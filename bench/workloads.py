"""Workload definitions and the seeded input generator.

Every workload is a closed loop: the controller's next decision waits for
the plant to deposit the previous one.  The program only ever sees the INI
and CSV files written here.

Each workload pins the seed of its inputs (``INPUT_SEED``); the run's
``--seed`` is recorded and does not change them.  The solver's iteration
count responds chaotically to any change of the prescription: redrawing
the zone map per run seed, or only moving each zone's rate by 0.5 g,
moved closed-loop steps per second by 15-25% between seeds, more than any
bound the benchmark may set.  Fixed inputs leave only the machine's own
noise.

* ``paper-compare``: ``spreadopt compare`` (all three controllers) on the
  shipped scenario and calibration.  The plan is cut to its first
  ``PAPER_STEPS`` steps so one run fits the benchmark's time budget; the
  full 62-step comparison is the ``paper-compare-full`` workload, run by
  hand.
* ``large-field-greedy``: greedy on a 300 m field with 180 cells per side
  (1.67 m cells, as shipped), a seeded variable-rate zone map and a seeded
  tramline plan with U-turns.  Dominated by the per-cell kernel, the
  Jacobian fold and the plant deposit.
* ``long-horizon-mpc``: mpc-full with H=10 on the first
  ``LONG_HORIZON_STEPS`` steps of the shipped S-plan, at 30 cells per side
  (5 m cells), with a seeded zone map.  Dominated by call
  count and per-call overhead in the solver and the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAPER_STEPS = 12
LONG_HORIZON_STEPS = 36

INPUT_SEED = 2105
# zone-map rates in grams per cell
ZONE_RATES = (12.0, 18.0, 24.0, 30.0)


@dataclass(frozen=True)
class Workload:
    name: str
    # controllers run, in the order the program runs them
    controllers: tuple[str, ...]
    # the controller whose decision times and final cost are reported
    main: str


WORKLOADS = {
    w.name: w for w in (
        Workload("paper-compare", ("greedy", "mpc-triangle", "mpc-full"), "mpc-full"),
        Workload("paper-compare-full", ("greedy", "mpc-triangle", "mpc-full"), "mpc-full"),
        Workload("large-field-greedy", ("greedy",), "greedy"),
        Workload("long-horizon-mpc", ("mpc-full",), "mpc-full"),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated files and the command line that runs the workload."""

    scenario: Path
    calibration: Path
    argv: tuple[str, ...]


def _segments_text(segments) -> str:
    return "".join(f"    {speed!r} {turn!r} {duration!r}\n"
                   for speed, turn, duration in segments)


def _scenario_text(*, side, n_cells, prescription, start, segments, controller, horizon,
                   controls, support, optimizer) -> str:
    x, y, heading = start
    fl, fr, rl, rr = controls
    opt = "".join(f"{key} = {value}\n" for key, value in optimizer.items())
    return (
        f"[field]\nside_length = {side!r}\nn_cells = {n_cells}\norigin_x = 0\norigin_y = 0\n\n"
        f"[prescription]\n{prescription}\n\n"
        f"[plan]\nstart_x = {x!r}\nstart_y = {y!r}\nstart_heading = {heading!r}\n"
        f"segments =\n{_segments_text(segments)}\n"
        f"[run]\ndt = 1\ncontroller = {controller}\nhorizon = {horizon}\n"
        f"scaling = literal\ntriangle_support = {support}\n\n"
        f"[controls]\nflow_left = {fl!r}\nflow_right = {fr!r}\n"
        f"rpm_left = {rl!r}\nrpm_right = {rr!r}\n\n"
        f"[optimizer]\n{opt}")


def zone_map(rng: np.random.Generator, n_cells: int, zone_cells: int) -> np.ndarray:
    """Variable-rate prescription: square zones of ``zone_cells`` cells,
    each at a rate drawn from ``ZONE_RATES``."""
    n_zones = -(-n_cells // zone_cells)
    zones = rng.choice(ZONE_RATES, size=(n_zones, n_zones))
    cells = np.repeat(np.repeat(zones, zone_cells, axis=0), zone_cells, axis=1)
    return cells[:n_cells, :n_cells]


def tramline_segments(passes: int, pass_steps: int, turn_steps: int, spacing: float):
    """Back-and-forth passes joined by half turns, alternating left and right.

    The turn speed makes the forward-Euler turn shift the next pass by about
    ``spacing`` metres.
    """
    rate = math.pi / turn_steps
    # an Euler half turn of n steps of length s shifts sideways by s / tan(rate / 2)
    speed = spacing * math.tan(rate / 2.0)
    segments = []
    for i in range(passes):
        segments.append((10.0, 0.0, float(pass_steps)))
        if i + 1 < passes:
            segments.append((speed, rate if i % 2 == 0 else -rate, float(turn_steps)))
    return segments


def _shipped():
    from spreadopt.config import default_calibration_path, default_scenario_path, load_scenario

    return load_scenario(default_scenario_path()), default_calibration_path()


def _optimizer_items(settings) -> dict:
    return {"max_iterations": settings.max_iterations,
            "gradient_tolerance": repr(settings.gradient_tolerance),
            "step_tolerance": repr(settings.step_tolerance),
            "finite_diff_epsilon": repr(settings.finite_diff_epsilon),
            "gauss_newton": "true" if settings.gauss_newton else "false",
            "restarts": settings.restarts,
            "seed": settings.seed}


def _truncated(segments, steps: int):
    out = []
    for speed, turn, duration in segments:
        take = min(duration, steps)
        if take <= 0:
            break
        out.append((speed, turn, float(take)))
        steps -= take
    return out


def generate(name: str, work: Path) -> Inputs:
    """Write the scenario, prescription and calibration of one workload
    under ``work`` and return the program's command line."""
    config, shipped_calibration = _shipped()
    shipped = config.scenario
    plan = [(s.speed, s.turn_rate, s.duration) for s in shipped.plan.segments]
    start = (shipped.plan.start.x, shipped.plan.start.y, shipped.plan.start.heading)
    ic = shipped.initial_controls
    controls = (ic.flow_left, ic.flow_right, ic.rpm_left, ic.rpm_right)
    common = dict(controls=controls, support=shipped.support.value,
                  optimizer=_optimizer_items(config.settings))
    rng = np.random.default_rng(INPUT_SEED)
    work.mkdir(parents=True, exist_ok=True)
    scenario = work / "scenario.ini"
    calibration = work / "calibration.ini"
    calibration.write_text(Path(shipped_calibration).read_text())

    if name in ("paper-compare", "paper-compare-full"):
        segments = plan if name == "paper-compare-full" else _truncated(plan, PAPER_STEPS)
        text = _scenario_text(side=shipped.grid.side_length, n_cells=shipped.grid.n_cells,
                              prescription=f"uniform = {float(shipped.prescription[0, 0])!r}",
                              start=start, segments=segments, controller="mpc-full",
                              horizon=shipped.horizon, **common)
        command = "compare"
    elif name == "large-field-greedy":
        n_cells = 180
        np.savetxt(work / "prescription.csv", zone_map(rng, n_cells, 9), fmt="%.12g",
                   delimiter=",")
        segments = tramline_segments(passes=2, pass_steps=26, turn_steps=8,
                                     spacing=24.0 + rng.uniform(-1.0, 1.0))
        text = _scenario_text(side=300.0, n_cells=n_cells, prescription="file = prescription.csv",
                              start=(20.0 + rng.uniform(-2.0, 2.0), 30.0 + rng.uniform(-2.0, 2.0),
                                     0.0),
                              segments=segments, controller="greedy", horizon=1, **common)
        command = "run"
    elif name == "long-horizon-mpc":
        n_cells = 30
        np.savetxt(work / "prescription.csv", zone_map(rng, n_cells, 3), fmt="%.12g",
                   delimiter=",")
        text = _scenario_text(side=shipped.grid.side_length, n_cells=n_cells,
                              prescription="file = prescription.csv", start=start,
                              segments=_truncated(plan, LONG_HORIZON_STEPS),
                              controller="mpc-full", horizon=10, **common)
        command = "run"
    else:
        raise KeyError(f"unknown workload {name!r}, expected one of {sorted(WORKLOADS)}")

    scenario.write_text(text)
    return Inputs(scenario, calibration,
                  (command, "--scenario", str(scenario), "--calibration", str(calibration)))


def validate(inputs: Inputs):
    """Parse the generated files the way the program will and return the
    run configuration; raises if they are not a valid scenario."""
    from spreadopt.calibration import load_calibration, validate_calibration
    from spreadopt.config import load_scenario

    config = load_scenario(inputs.scenario)
    cal, constraints = load_calibration(inputs.calibration)
    problems = validate_calibration(cal, constraints)
    if problems:
        raise ValueError(f"generated calibration is invalid: {problems}")
    return config, constraints
