"""Closed-loop spreading runs and controller comparisons.

A run walks the tractor along the drive plan, asks the controller for one
actuator command per step, deposits with the full two-distribution model
(the plant is always the full model; only a controller's internal
prediction may use the surrogate), accumulates the applied map, and
records a per-step trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .calibration import (CalibrationModel, ControlConstraints, SpreaderControls,
                          patterns_from_controls, satisfies_constraints)
from .controllers import (ControllerKind, OptimizerSettings, RecedingHorizonController,
                          make_controller)
from .errors import ConfigurationError, RunAbortedError, SpreadOptError
from .field import FieldGrid, as_amount_map, cost, save_map
from .kinematics import DrivePlan, trajectory
from .spread import (DepositScaling, DepositionModel, TriangleSupport, total_deposit)

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
    support: TriangleSupport = TriangleSupport.UNIT

    def __post_init__(self):
        object.__setattr__(self, "prescription",
                           as_amount_map(self.prescription, self.grid, name="prescription"))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ConfigurationError(f"horizon must be a positive integer, got {self.horizon!r}")
        object.__setattr__(self, "horizon", int(self.horizon))
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


def run(scenario: Scenario, cal: CalibrationModel, constraints: ControlConstraints,
        settings: OptimizerSettings,
        controller: RecedingHorizonController | None = None) -> RunRecord:
    """Execute one closed-loop run and return its record.

    ``controller`` defaults to the scenario's; any object with a
    ``plan_controls`` method of the same signature may stand in for it.

    The feasibility of the initial controls against the boxes is required
    up front; each controller output is additionally verified before it is
    applied.  A controller failure raises :class:`RunAbortedError`
    carrying the partial record.
    """
    lo, hi = constraints.lower(), constraints.upper()
    u0 = scenario.initial_controls.as_array()
    if np.any(u0 < lo) or np.any(u0 > hi):
        raise ConfigurationError(
            f"initial controls {scenario.initial_controls} violate the actuator boxes")

    states = trajectory(scenario.plan, scenario.dt)
    n = len(states) - 1
    if controller is None:
        controller = make_controller(scenario.controller, scenario.horizon, cal, constraints,
                                     settings, scenario.scaling, scenario.support)

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
        except SpreadOptError as exc:
            raise RunAbortedError(f"controller failed at step {k}: {exc}",
                                  record=partial(k - 1), step=k) from exc
        controller_seconds[k - 1] = time.perf_counter() - started
        if not satisfies_constraints(decided, previous, constraints):
            raise RunAbortedError(
                f"controller emitted an infeasible control at step {k}: {decided}",
                record=partial(k - 1), step=k)

        pose = states[k]
        left, right = patterns_from_controls(decided, cal)
        deposit = total_deposit(pose, left, right, scenario.grid, DepositionModel.FULL_NORMAL,
                                scenario.scaling, scenario.support)
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


@dataclass(frozen=True)
class ComparisonRow:
    controller: str
    final_cost: float
    wall_clock: float


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[ComparisonRow, ...]
    ranking: tuple[str, ...]
    records: dict


def compare(scenario: Scenario, controllers, cal: CalibrationModel,
            constraints: ControlConstraints, settings: OptimizerSettings) -> ComparisonResult:
    """Run ``scenario`` once under each controller kind and rank the runs.

    Only the controller differs between the runs.  Repeating a kind is
    allowed (the runs are identical; the records dict keeps one per
    name).  A run that fails is recorded with a NaN cost and does not stop
    the others.
    """
    kinds = [ControllerKind(kind) for kind in controllers]
    if not kinds:
        raise ConfigurationError("comparison needs at least one controller")
    rows = []
    records = {}
    for kind in kinds:
        name = kind.value
        try:
            record = run(replace(scenario, controller=kind), cal, constraints, settings)
        except RunAbortedError as exc:
            records[name] = exc.record
            rows.append(ComparisonRow(name, math.nan, math.nan))
            continue
        records[name] = record
        rows.append(ComparisonRow(name, record.final_cost, record.total_controller_seconds))

    ranked = sorted((r for r in rows if math.isfinite(r.final_cost)),
                    key=lambda r: r.final_cost)
    return ComparisonResult(tuple(rows), tuple(r.controller for r in ranked), records)


def comparison_failed(result: ComparisonResult) -> bool:
    return any(not math.isfinite(r.final_cost) for r in result.rows)


def write_trace(path, record: RunRecord) -> None:
    """Step trace as CSV with a fixed header."""
    with open(path, "w") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\n")
        for i in range(record.n_steps):
            row = [i + 1, record.times[i], record.poses[i, 0], record.poses[i, 1],
                   record.poses[i, 2], record.controls[i, 0], record.controls[i, 1],
                   record.controls[i, 2], record.controls[i, 3],
                   record.deposit_mass[i], record.cost_trace[i]]
            handle.write(",".join(_format(v) for v in row) + "\n")


def read_trace(path) -> dict[str, np.ndarray]:
    """Columns of a trace file keyed by header name."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        return {name: np.empty(0) for name in TRACE_COLUMNS}
    if data.shape[1] != len(TRACE_COLUMNS):
        raise ConfigurationError(
            f"trace file {path} has {data.shape[1]} columns, expected {len(TRACE_COLUMNS)}")
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}


def write_comparison(path, result: ComparisonResult) -> None:
    with open(path, "w") as handle:
        handle.write("controller,final_cost,wall_clock\n")
        for row in result.rows:
            handle.write(f"{row.controller},{_format(row.final_cost)},"
                         f"{_format(row.wall_clock)}\n")


def write_run_outputs(out_dir, record: RunRecord, summary_lines) -> None:
    """Final map, trace, and summary for one run under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    save_map(out_dir / "A.csv", record.final_map)
    write_trace(out_dir / "trace.csv", record)
    (out_dir / "summary.txt").write_text("".join(f"{k} = {v}\n" for k, v in summary_lines))


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")
