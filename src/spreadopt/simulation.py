"""Closed-loop spreading runs.

A run walks the tractor along the drive plan, asks the controller for one
actuator command per step, deposits with the full two-distribution model
(the plant is always the full model; only a controller's internal
prediction may use the surrogate), accumulates the applied map, and
records a per-step trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .calibration import (CalibrationModel, ControlConstraints, SpreaderControls,
                          patterns_from_controls, satisfies_constraints)
from .controllers import (ControllerKind, OptimizerSettings, RecedingHorizonController,
                          make_controller)
from .errors import ConfigurationError, RunAbortedError, SpreadOptError, checked_integer
from .field import FieldGrid, as_amount_map, cost, save_map
from .kinematics import DrivePlan, TractorState, trajectory
from .spread import DepositScaling, TriangleSupport, total_deposit

TRACE_COLUMNS = ("k", "t", "x", "y", "phi", "D_l", "D_r", "rpm_l", "rpm_r",
                 "deposit_mass", "cost")


@dataclass(frozen=True)
class Scenario:
    """Everything a closed-loop run needs apart from the calibration."""

    grid: FieldGrid
    prescription: np.ndarray
    plan: DrivePlan
    dt: float
    initial_controls: SpreaderControls
    controller: ControllerKind = ControllerKind.MPC_FULL
    horizon: int = 5
    scaling: DepositScaling = DepositScaling.LITERAL
    # the triangle's one half-width, read by no run: the scenario file's
    # required [run] triangle_support key sets it and the summary echoes it
    support: TriangleSupport = TriangleSupport.SIGMA

    def __post_init__(self):
        object.__setattr__(self, "prescription",
                           as_amount_map(self.prescription, self.grid, name="prescription"))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        object.__setattr__(self, "horizon", checked_integer("horizon", self.horizon))
        object.__setattr__(self, "controller", ControllerKind(self.controller))
        object.__setattr__(self, "scaling", DepositScaling(self.scaling))
        object.__setattr__(self, "support", TriangleSupport(self.support))


@dataclass
class RunRecord:
    """Per-step trace and final outcome of one closed-loop run.

    Wall-clock fields are measurement artifacts and are excluded from any
    reproducibility comparison.
    """

    times: np.ndarray
    poses: np.ndarray
    controls: np.ndarray
    deposit_mass: np.ndarray
    cost_trace: np.ndarray
    final_map: np.ndarray
    final_cost: float
    controller_seconds: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def total_controller_seconds(self) -> float:
        return float(np.sum(self.controller_seconds))


def check_setup(scenario: Scenario, constraints: ControlConstraints) -> list[TractorState]:
    """The checks :func:`run` makes before its first decision: the initial
    controls must lie inside the actuator boxes, and the plan must
    integrate at the scenario's ``dt``.  Returns the plan's states."""
    u0 = scenario.initial_controls.as_array()
    if np.any(u0 < constraints.lower()) or np.any(u0 > constraints.upper()):
        raise ConfigurationError(
            f"initial controls {scenario.initial_controls} violate the actuator boxes")
    return trajectory(scenario.plan, scenario.dt)


def run(scenario: Scenario, cal: CalibrationModel, constraints: ControlConstraints,
        settings: OptimizerSettings,
        controller: RecedingHorizonController | None = None) -> RunRecord:
    """Execute one closed-loop run and return its record.

    ``controller`` defaults to the scenario's; any object with a
    ``plan_controls`` method of the same signature may stand in for it.

    :func:`check_setup` runs before the first decision; each controller
    output is additionally verified before it is applied.  A controller
    failure, or a ``MemoryError`` in the controller or the plant's deposit,
    raises :class:`RunAbortedError` carrying the partial record.
    """
    states = check_setup(scenario, constraints)
    n = len(states) - 1
    if controller is None:
        controller = make_controller(scenario.controller, scenario.horizon, cal, constraints,
                                     settings, scenario.scaling)

    applied = scenario.grid.zeros()
    previous = scenario.initial_controls
    times = np.empty(n)
    poses = np.empty((n, 3))
    controls_out = np.empty((n, 4))
    deposit_mass = np.empty(n)
    cost_trace = np.empty(n)
    controller_seconds = np.empty(n)

    def partial(k: int) -> RunRecord:
        return RunRecord(times[:k], poses[:k], controls_out[:k], deposit_mass[:k],
                         cost_trace[:k], applied.copy(), cost(applied, scenario.prescription),
                         controller_seconds[:k])

    for k in range(1, n + 1):
        tail = states[k:k + scenario.horizon]
        started = time.perf_counter()
        try:
            decided = controller.plan_controls(tail, applied, scenario.prescription,
                                               previous, scenario.grid)
        except (SpreadOptError, MemoryError) as exc:
            raise RunAbortedError(f"controller failed at step {k}: {_reason(exc)}",
                                  record=partial(k - 1), step=k) from exc
        controller_seconds[k - 1] = time.perf_counter() - started
        if not satisfies_constraints(decided, previous, constraints):
            raise RunAbortedError(
                f"controller emitted an infeasible control at step {k}: {decided}",
                record=partial(k - 1), step=k)

        pose = states[k]
        left, right = patterns_from_controls(decided, cal)
        try:
            deposit = total_deposit(pose, left, right, scenario.grid, scenario.scaling)
        except MemoryError as exc:
            raise RunAbortedError(f"plant deposit failed at step {k}: {_reason(exc)}",
                                  record=partial(k - 1), step=k) from exc
        applied += deposit

        idx = k - 1
        times[idx] = k * scenario.dt
        poses[idx] = (pose.x, pose.y, pose.heading)
        controls_out[idx] = decided.as_array()
        deposit_mass[idx] = float(np.sum(deposit))
        cost_trace[idx] = cost(applied, scenario.prescription)
        previous = decided

    return RunRecord(times, poses, controls_out, deposit_mass, cost_trace, applied,
                     cost(applied, scenario.prescription), controller_seconds)


def _reason(exc: Exception) -> str:
    """An exception's message, or its type's name if it has none, as a bare
    ``MemoryError`` has not."""
    return str(exc) or type(exc).__name__


def write_trace(path, record: RunRecord) -> None:
    """Step trace as CSV with a fixed header."""
    table = np.column_stack([np.arange(1, record.n_steps + 1), record.times, record.poses,
                             record.controls, record.deposit_mass, record.cost_trace])
    np.savetxt(path, table, fmt=["%d"] + ["%.12g"] * 10, delimiter=",",
               header=",".join(TRACE_COLUMNS), comments="")


def read_trace(path) -> dict[str, np.ndarray]:
    """Columns of a trace file keyed by header name."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        return {name: np.empty(0) for name in TRACE_COLUMNS}
    if data.shape[1] != len(TRACE_COLUMNS):
        raise ConfigurationError(
            f"trace file {path} has {data.shape[1]} columns, expected {len(TRACE_COLUMNS)}")
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}


def write_comparison(path, rows) -> None:
    """One ``controller,final_cost,wall_clock`` line per row."""
    with open(path, "w") as handle:
        handle.write("controller,final_cost,wall_clock\n")
        for controller, final_cost, wall_clock in rows:
            handle.write(f"{controller},{_format(final_cost)},{_format(wall_clock)}\n")


def write_summary(path, lines) -> None:
    """``key = value`` lines, one per ``(key, value)`` pair."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines))


def write_run_outputs(out_dir, record: RunRecord, summary_lines) -> None:
    """Final map, trace, and summary for one run under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    save_map(out_dir / "A.csv", record.final_map)
    write_trace(out_dir / "trace.csv", record)
    write_summary(out_dir / "summary.txt", summary_lines)


def _format(value) -> str:
    return format(float(value), ".12g")
