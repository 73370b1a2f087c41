"""Full-scale acceptance checks on the built-in scenario.

Each test prints one PASS/FAIL verdict line outside pytest capture.  The
controller comparison is executed through the command line twice (for the
determinism check) by a session fixture; everything downstream reads those
outputs.
"""

import math
import time

import numpy as np
import pytest

from spreadopt import (
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    DepositScaling,
    DepositionModel,
    DriveCommand,
    DrivePlan,
    FieldGrid,
    OptimizerSettings,
    PatternParams,
    Scenario,
    SpreaderControls,
    TractorState,
    bearing,
    make_controller,
    patterns_from_controls,
    run,
    total_deposit,
    trajectory,
)
from spreadopt import controllers, simulation
from spreadopt.cli import main
from spreadopt.config import default_scenario_path, load_scenario
from spreadopt.simulation import read_trace

from checks import analytic_gradient, central_difference_gradient, clamp_controls
from replay import ScheduleReplayController

CAL = DEFAULT_CALIBRATION
CONSTRAINTS = DEFAULT_CONSTRAINTS
CONTROLLERS = ("greedy", "mpc-triangle", "mpc-full")


def _report(capfd, num, ok, label):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"ACCEPTANCE {num:2d} {verdict}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _read_comparison(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "controller,final_cost,wall_clock"
    rows = {}
    for line in lines[1:]:
        name, cost_text, wall_text = line.split(",")
        rows[name] = (cost_text, float(cost_text), float(wall_text))
    return rows


def _counting_evaluations(monkeypatch):
    """Count each controller's cost and Jacobian evaluations, by the kind
    of the run that built the controller."""
    counts = {}
    current = []

    def counted_controller(kind, *args, **kwargs):
        current[:] = [kind.value]
        counts[kind.value] = {"cost": 0, "jacobian": 0}
        return make_controller(kind, *args, **kwargs)

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[current[0]][name] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulation, "make_controller", counted_controller)
    monkeypatch.setattr(controllers._Predictor, "cost",
                        counted("cost", controllers._Predictor.cost))
    monkeypatch.setattr(controllers._Predictor, "cost_residual_jacobian",
                        counted("jacobian", controllers._Predictor.cost_residual_jacobian))
    return counts


@pytest.fixture(scope="session")
def comparison(tmp_path_factory):
    """Two identical full comparisons of all three controllers, with each
    controller's cost and Jacobian evaluations counted in the first."""
    first = tmp_path_factory.mktemp("compare_a")
    second = tmp_path_factory.mktemp("compare_b")
    started = time.perf_counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        evaluations = _counting_evaluations(monkeypatch)
        assert main(["compare", "--out", str(first)]) == 0
    elapsed = time.perf_counter() - started
    assert main(["compare", "--out", str(second)]) == 0
    traces = {name: read_trace(first / name / "trace.csv") for name in CONTROLLERS}
    return {
        "rows": _read_comparison(first / "comparison.csv"),
        "repeat_rows": _read_comparison(second / "comparison.csv"),
        "traces": traces,
        "elapsed": elapsed,
        "evaluations": evaluations,
    }


@pytest.fixture(scope="session")
def default_config():
    return load_scenario(default_scenario_path())


def _turn_windows(plan, dt):
    """Step windows [turn start, next turn start - 1] in 1-indexed steps."""
    starts, cursor = [], 0
    for segment in plan.segments:
        steps = int(round(segment.duration / dt))
        if segment.turn_rate != 0.0:
            starts.append(cursor + 1)
        cursor += steps
    windows = []
    for i, begin in enumerate(starts):
        end = starts[i + 1] - 1 if i + 1 < len(starts) else cursor
        windows.append((begin, end))
    return windows


def _random_feasible_schedule(rng, previous, horizon):
    steps, prev = [], previous
    for _ in range(horizon):
        wish = SpreaderControls(*(prev.as_array() + rng.uniform(-1.0, 1.0, 4) *
                                  [14.0, 14.0, 70.0, 70.0]))
        prev = clamp_controls(wish, prev, CONSTRAINTS)
        steps.append(prev)
    return steps


@pytest.mark.slow
def test_criterion_1_controller_ranking(comparison, capfd):
    j = {name: row[1] for name, row in comparison["rows"].items()}
    gaps_ok = (j["mpc-full"] < j["mpc-triangle"] < j["greedy"]
               and j["mpc-triangle"] - j["mpc-full"] >= 0.01 * j["greedy"]
               and j["greedy"] - j["mpc-triangle"] >= 0.01 * j["greedy"])
    in_time = comparison["elapsed"] < 600.0
    _report(capfd, 1, gaps_ok and in_time,
            f"cost ranking full {j['mpc-full']:.4g} < triangle {j['mpc-triangle']:.4g}"
            f" < greedy {j['greedy']:.4g}, gaps >= 1%, {comparison['elapsed']:.0f}s")


@pytest.mark.slow
def test_criterion_2_greedy_hits_the_rpm_floor(comparison, capfd):
    trace = comparison["traces"]["greedy"]
    floor = CONSTRAINTS.rpm_min
    ok = bool(((trace["rpm_l"] == floor) | (trace["rpm_r"] == floor)).any())
    _report(capfd, 2, ok, f"greedy rpm reaches the {floor:g} floor at some step")


@pytest.mark.slow
def test_criterion_3_mpc_full_recovers_top_rpm(comparison, default_config, capfd):
    trace = comparison["traces"]["mpc-full"]
    scenario = default_config.scenario
    windows = _turn_windows(scenario.plan, scenario.dt)
    ceiling = CONSTRAINTS.rpm_max
    ok = bool(windows)
    for begin, end in windows:
        mask = (trace["k"] >= begin) & (trace["k"] <= end)
        for column in ("rpm_l", "rpm_r"):
            ok = ok and bool((trace[column][mask] == ceiling).any())
    spans = ", ".join(f"[{b},{e}]" for b, e in windows)
    _report(capfd, 3, ok, f"mpc-full rpm returns to {ceiling:g} on both discs in steps {spans}")


@pytest.mark.slow
def test_criterion_4_greedy_is_an_order_of_magnitude_faster(comparison, capfd):
    # each controller is timed by the faster of the two identical compares,
    # so that a slow phase of the machine during one run of one controller
    # does not decide the ratio
    runs = [{name: row[2] for name, row in rows.items()}
            for rows in (comparison["rows"], comparison["repeat_rows"])]
    wall = {name: min(run[name] for run in runs) for name in CONTROLLERS}
    ok = (wall["greedy"] < 0.1 * wall["mpc-triangle"]
          and wall["greedy"] < 0.1 * wall["mpc-full"])

    def ratios(times):
        return (f"{times['mpc-triangle'] / times['greedy']:.1f}x"
                f" / {times['mpc-full'] / times['greedy']:.1f}x")

    # the deterministic work ratio: evaluations do not depend on the machine
    work = comparison["evaluations"]

    def work_ratios(kind):
        return " / ".join(f"{work[name][kind] / work['greedy'][kind]:.1f}x"
                          for name in ("mpc-triangle", "mpc-full"))

    _report(capfd, 4, ok,
            f"greedy {wall['greedy']:.2f}s vs triangle {wall['mpc-triangle']:.2f}s"
            f" and full {wall['mpc-full']:.2f}s controller time, fastest of two runs"
            f" ({ratios(wall)}; single runs {ratios(runs[0])} and {ratios(runs[1])});"
            f" evaluations over greedy's: cost {work_ratios('cost')},"
            f" Jacobian {work_ratios('jacobian')}")


def test_criterion_5_gradient_matches_finite_differences(default_config, capfd):
    scenario = default_config.scenario
    grid = scenario.grid
    previous = scenario.initial_controls
    rng = np.random.default_rng(501)
    worst = 0.0
    for trial in range(20):
        model = DepositionModel.FULL_NORMAL if trial % 2 == 0 else DepositionModel.TRIANGLE
        start = TractorState(rng.uniform(30.0, 120.0), rng.uniform(30.0, 120.0),
                             rng.uniform(-math.pi, math.pi))
        plan = DrivePlan(start, (DriveCommand(rng.uniform(3.0, 8.0),
                                              rng.uniform(-0.15, 0.15), 3.0),))
        tail = trajectory(plan, scenario.dt)[1:]
        applied = grid.zeros()
        schedule = _random_feasible_schedule(rng, previous, 3)
        predictor = controllers._Predictor(grid, tail, applied, scenario.prescription,
                                           model, CAL)
        rows = np.stack([controls.as_array() for controls in schedule])
        analytic = analytic_gradient(predictor, rows)
        numeric = central_difference_gradient(predictor, rows, epsilon=1e-5)
        worst = max(worst, np.abs(analytic - numeric).max() / np.abs(numeric).max())
    _report(capfd, 5, worst < 1e-4,
            f"max relative gradient error {worst:.3g} over 20 random schedules")


def test_criterion_6_conservative_scaling_conserves_mass(default_config, capfd):
    scenario = default_config.scenario
    grid = scenario.grid
    controls = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    left, right = patterns_from_controls(controls, CAL)

    single = total_deposit(TractorState(75.0, 75.0, 0.0), left, right, grid,
                           DepositScaling.CONSERVATIVE)
    dispensed = controls.flow_left + controls.flow_right
    single_err = abs(float(np.sum(single)) - dispensed) / dispensed

    n = int(scenario.plan.total_duration / scenario.dt)
    replay = ScheduleReplayController((controls,) * n)
    conservative = Scenario(grid, scenario.prescription, scenario.plan, scenario.dt,
                            controls, scaling=DepositScaling.CONSERVATIVE)
    record = run(conservative, CAL, CONSTRAINTS, OptimizerSettings(), controller=replay)

    # interior steps keep the whole ring (reach d + 3 sigma) inside the field
    reach = CAL.distance(600.0) + 3.0 * CAL.sigma_distance(600.0)
    low = np.array(grid.origin) + reach
    high = np.array(grid.origin) + grid.side_length - reach
    interior = ((record.poses[:, 0] >= low[0]) & (record.poses[:, 0] <= high[0])
                & (record.poses[:, 1] >= low[1]) & (record.poses[:, 1] <= high[1]))
    deposited = float(record.deposit_mass[interior].sum())
    fed = dispensed * int(interior.sum())
    run_err = abs(deposited - fed) / fed

    ok = single_err <= 0.02 and run_err <= 0.05 and interior.sum() > 0
    _report(capfd, 6, ok, f"mass error {single_err:.2%} single step, {run_err:.2%} over "
                   f"{int(interior.sum())} interior steps")


def test_criterion_7_prediction_equals_open_loop_simulation(default_config, capfd):
    scenario = default_config.scenario
    grid = scenario.grid
    previous = scenario.initial_controls
    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(10):
        start = TractorState(rng.uniform(30.0, 120.0), rng.uniform(30.0, 120.0),
                             rng.uniform(-math.pi, math.pi))
        plan = DrivePlan(start, (DriveCommand(rng.uniform(3.0, 8.0),
                                              rng.uniform(-0.15, 0.15), 5.0),))
        schedule = _random_feasible_schedule(rng, previous, 5)
        tail = trajectory(plan, scenario.dt)[1:]
        predictor = controllers._Predictor(grid, tail, grid.zeros(), scenario.prescription,
                                           DepositionModel.FULL_NORMAL, CAL)
        predicted = predictor.cost(np.stack([controls.as_array() for controls in schedule]))
        open_loop = Scenario(grid, scenario.prescription, plan, scenario.dt, previous)
        record = run(open_loop, CAL, CONSTRAINTS, OptimizerSettings(),
                     controller=ScheduleReplayController(schedule))
        worst = max(worst, abs(predicted - record.final_cost) / record.final_cost)
    _report(capfd, 7, worst < 1e-9,
            f"max relative prediction error {worst:.3g} over 10 random schedules")


def test_criterion_8_geometry_identities(capfd):
    behind = abs(bearing((-1.0, 0.0), (0.0, 0.0), 0.0) - 0.0)
    starboard = abs(bearing((0.0, -1.0), (0.0, 0.0), 0.0) - math.pi / 2)
    port = abs(bearing((0.0, 1.0), (0.0, 0.0), 0.0) + math.pi / 2)
    hand_ok = max(behind, starboard, port) <= 1e-12

    grid = FieldGrid(40.0, 10, origin=(-20.0, -20.0))
    left = PatternParams(30.0, 8.0, 2.0, -0.8, 0.3)
    right = PatternParams(60.0, 8.0, 2.0, 0.8, 0.3)
    dep = total_deposit(TractorState(3.0, -2.0, 0.6), left, right, grid)

    rotated = total_deposit(TractorState(2.0, 3.0, 0.6 + math.pi / 2), left, right, grid)
    rot_err = np.abs(rotated - np.rot90(dep, -1)).max() / dep.max()

    swapped_left = PatternParams(60.0, 8.0, 2.0, -0.8, 0.3)
    swapped_right = PatternParams(30.0, 8.0, 2.0, 0.8, 0.3)
    mirrored = total_deposit(TractorState(3.0, 2.0, -0.6), swapped_left, swapped_right, grid)
    mir_err = np.abs(mirrored - np.flipud(dep)).max() / dep.max()

    ok = hand_ok and rot_err <= 1e-12 and mir_err <= 1e-12
    _report(capfd, 8, ok, f"bearing hand cases exact, rotation {rot_err:.2g} and "
                   f"mirror {mir_err:.2g} relative")


@pytest.mark.slow
def test_criterion_9_every_emitted_control_is_feasible(comparison, default_config, capfd):
    initial = default_config.scenario.initial_controls
    violations = 0
    for name in CONTROLLERS:
        trace = comparison["traces"][name]
        flows = np.column_stack([trace["D_l"], trace["D_r"]])
        rpms = np.column_stack([trace["rpm_l"], trace["rpm_r"]])
        if (flows < CONSTRAINTS.flow_min).any() or (flows > CONSTRAINTS.flow_max).any():
            violations += 1
        if (rpms < CONSTRAINTS.rpm_min).any() or (rpms > CONSTRAINTS.rpm_max).any():
            violations += 1
        prev_flows = np.vstack([[initial.flow_left, initial.flow_right], flows[:-1]])
        prev_rpms = np.vstack([[initial.rpm_left, initial.rpm_right], rpms[:-1]])
        # 5e-9 covers the 12-significant-digit rounding of the trace file
        if (np.hypot(*(flows - prev_flows).T) > CONSTRAINTS.flow_rate_max + 5e-9).any():
            violations += 1
        if (np.hypot(*(rpms - prev_rpms).T) > CONSTRAINTS.rpm_rate_max + 5e-9).any():
            violations += 1
    _report(capfd, 9, violations == 0,
            f"{violations} box or rate violations across the three runs")


@pytest.mark.slow
def test_criterion_10_comparison_is_deterministic(comparison, capfd):
    first = {name: row[0] for name, row in comparison["rows"].items()}
    repeat = {name: row[0] for name, row in comparison["repeat_rows"].items()}
    ok = first == repeat and set(first) == set(CONTROLLERS)
    _report(capfd, 10, ok, "repeated compare runs agree bitwise on every cost column")
