"""Simulation and optimal control of twin-disc centrifugal fertilizer spreaders.

The package models a tractor-drawn spreader whose two discs each throw a
crescent-shaped pattern behind the vehicle, and provides controllers that
steer per-disc mass flow and disc speed so the accumulated deposit tracks
a per-cell prescription map.
"""

from .calibration import (CalibrationModel, ControlConstraints, DEFAULT_CALIBRATION,
                          DEFAULT_CONSTRAINTS, SpreaderControls, load_calibration,
                          pattern_from_controls, patterns_from_controls,
                          satisfies_constraints, validate_calibration)
from .config import RunConfig, default_calibration_path, default_scenario_path, load_scenario
from .controllers import (ControllerKind, OptimizerSettings, RecedingHorizonController,
                          make_controller)
from .errors import (CalibrationDomainError, ConfigurationError, DegenerateGeometryError,
                     InvalidStateError, NumericalFailureError, RunAbortedError, ShapeError,
                     SpreadOptError)
from .field import FieldGrid, as_amount_map, cost, load_map, save_map
from .kinematics import DriveCommand, DrivePlan, TractorState, step, trajectory
from .simulation import RunRecord, Scenario, run
from .spread import (DepositScaling, DepositionModel, PatternParams, TriangleSupport,
                     bearing, total_deposit)

__version__ = "0.1.0"
