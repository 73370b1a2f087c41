
import math

import numpy as np
import pytest

from spreadopt import (
    ConfigurationError,
    ControllerKind,
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    DepositScaling,
    DriveCommand,
    DrivePlan,
    FieldGrid,
    OptimizerSettings,
    RunAbortedError,
    Scenario,
    SpreaderControls,
    TractorState,
    as_amount_map,
    cost,
    patterns_from_controls,
    run,
    total_deposit,
    trajectory,
)
from spreadopt import simulation
from spreadopt.simulation import (TRACE_COLUMNS, RunRecord, _format, read_trace,
                                  write_run_outputs, write_trace)

from replay import ScheduleReplayController

CAL = DEFAULT_CALIBRATION
SETTINGS = OptimizerSettings()


def tiny_scenario(controller=ControllerKind.GREEDY, horizon=1, steps=3, dose=20.0):
    grid = FieldGrid(40.0, 10)
    prescribed = as_amount_map(np.full((10, 10), dose), grid)
    plan = DrivePlan(TractorState(6.0, 20.0, 0.0),
                     (DriveCommand(5.0, 0.0, float(steps)),))
    return Scenario(grid, prescribed, plan, 1.0,
                    SpreaderControls(45.0, 45.0, 600.0, 600.0),
                    controller, horizon)


def fixed_schedule(steps):
    return (SpreaderControls(45.0, 45.0, 600.0, 600.0),) * steps


def test_an_empty_plan_produces_an_empty_record():
    grid = FieldGrid(20.0, 5)
    prescribed = as_amount_map(np.full((5, 5), 10.0), grid)
    scenario = Scenario(grid, prescribed, DrivePlan(TractorState(10.0, 10.0, 0.0), ()),
                        1.0, SpreaderControls(45.0, 45.0, 600.0, 600.0))
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    assert record.n_steps == 0
    assert np.array_equal(record.final_map, grid.zeros())
    assert record.final_cost == cost(grid.zeros(), prescribed)


def test_replayed_deposits_accumulate_exactly():
    scenario = tiny_scenario(steps=4)
    schedule = fixed_schedule(4)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS,
                 controller=ScheduleReplayController(schedule))

    applied = scenario.grid.zeros()
    states = trajectory(scenario.plan, scenario.dt)
    for k, controls in enumerate(schedule, start=1):
        left, right = patterns_from_controls(controls, CAL)
        deposit = total_deposit(states[k], left, right, scenario.grid)
        assert record.deposit_mass[k - 1] == float(np.sum(deposit))
        applied += deposit
    assert np.array_equal(record.final_map, applied)
    assert record.final_cost == cost(applied, scenario.prescription)
    assert record.cost_trace[-1] == record.final_cost


def test_record_steps_follow_the_trajectory():
    scenario = tiny_scenario(steps=4)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS,
                 controller=ScheduleReplayController(fixed_schedule(4)))
    states = trajectory(scenario.plan, scenario.dt)
    assert record.n_steps == 4
    assert np.array_equal(record.times, np.arange(1, 5) * scenario.dt)
    for i, state in enumerate(states[1:]):
        assert record.poses[i, 0] == state.x
        assert record.poses[i, 1] == state.y
        assert record.poses[i, 2] == state.heading
    assert np.all(record.controller_seconds >= 0.0)
    assert len(record.cost_trace) == len(record.deposit_mass) == 4


def test_the_plant_is_always_the_full_model():
    scenario = tiny_scenario(ControllerKind.MPC_TRIANGLE, horizon=2)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    # the applied map must be explained by full-model deposition of the
    # controls the surrogate chose
    applied = scenario.grid.zeros()
    states = trajectory(scenario.plan, scenario.dt)
    for i in range(record.n_steps):
        controls = SpreaderControls(*record.controls[i])
        left, right = patterns_from_controls(controls, CAL)
        applied += total_deposit(states[i + 1], left, right, scenario.grid)
    assert np.array_equal(record.final_map, applied)


def test_interior_steps_conserve_dispensed_mass():
    grid = FieldGrid(60.0, 60)
    prescribed = as_amount_map(np.full((60, 60), 20.0), grid)
    plan = DrivePlan(TractorState(25.0, 30.0, 0.0), (DriveCommand(2.0, 0.0, 5.0),))
    scenario = Scenario(grid, prescribed, plan, 1.0,
                        SpreaderControls(45.0, 45.0, 600.0, 600.0),
                        scaling=DepositScaling.CONSERVATIVE)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS,
                 controller=ScheduleReplayController(fixed_schedule(5)))
    for i in range(record.n_steps):
        dispensed = record.controls[i, 0] + record.controls[i, 1]
        assert record.deposit_mass[i] == pytest.approx(dispensed, rel=0.02)


def test_run_is_bitwise_reproducible():
    scenario = tiny_scenario(ControllerKind.MPC_FULL, horizon=2)
    first = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    second = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    assert first.final_cost == second.final_cost
    assert np.array_equal(first.final_map, second.final_map)
    assert np.array_equal(first.controls, second.controls)


def test_initial_controls_must_satisfy_the_boxes():
    scenario = tiny_scenario()
    bad = Scenario(scenario.grid, scenario.prescription, scenario.plan, 1.0,
                   SpreaderControls(300.0, 45.0, 600.0, 600.0))
    with pytest.raises(ConfigurationError):
        run(bad, CAL, DEFAULT_CONSTRAINTS, SETTINGS)


def test_an_exhausted_replay_aborts_with_a_partial_record():
    scenario = tiny_scenario(steps=4)
    with pytest.raises(RunAbortedError) as excinfo:
        run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS,
            controller=ScheduleReplayController(fixed_schedule(2)))
    err = excinfo.value
    assert err.step == 3
    assert err.record.n_steps == 2
    assert err.record.final_cost == err.record.cost_trace[-1]


def out_of_memory_at(step, call):
    """``call`` that raises ``MemoryError`` on its ``step``-th call, as numpy
    does when an allocation fails; no memory is exhausted."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == step:
            raise MemoryError("Unable to allocate 335. MiB for an array with shape (43912800,)")
        return call(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("where", ["controller", "plant"])
def test_a_memory_error_in_a_run_aborts_with_a_partial_record(monkeypatch, where):
    scenario = tiny_scenario(steps=4)
    controller = ScheduleReplayController(fixed_schedule(4))
    if where == "controller":
        controller.plan_controls = out_of_memory_at(2, controller.plan_controls)
    else:
        monkeypatch.setattr(simulation, "total_deposit",
                            out_of_memory_at(2, simulation.total_deposit))
    with pytest.raises(RunAbortedError) as excinfo:
        run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS, controller=controller)
    err = excinfo.value
    assert err.step == 2 and err.record.n_steps == 1
    assert str(err).startswith(f"{'plant deposit' if where == 'plant' else where} failed "
                               "at step 2: Unable to allocate")
    assert isinstance(err.__cause__, MemoryError)


def test_a_bare_memory_error_is_named_by_its_type():
    scenario = tiny_scenario(steps=3)

    class Exhausted:
        def plan_controls(self, plan_tail, applied, prescribed, previous, grid):
            raise MemoryError

    with pytest.raises(RunAbortedError, match="^controller failed at step 1: MemoryError$"):
        run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS, controller=Exhausted())


def test_an_infeasible_controller_output_aborts():
    class Jumpy:
        def plan_controls(self, plan_tail, applied, prescribed, previous, grid):
            return SpreaderControls(previous.flow_left + 50.0, previous.flow_right,
                                    previous.rpm_left, previous.rpm_right)

    scenario = tiny_scenario(steps=3)
    with pytest.raises(RunAbortedError) as excinfo:
        run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS, controller=Jumpy())
    assert excinfo.value.step == 1
    assert excinfo.value.record.n_steps == 0


# --- trace and output files ---------------------------------------------------

def test_trace_round_trips_through_csv(tmp_path):
    scenario = tiny_scenario(steps=4)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS,
                 controller=ScheduleReplayController(fixed_schedule(4)))
    path = tmp_path / "trace.csv"
    write_trace(path, record)
    table = read_trace(path)
    assert set(table) == set(TRACE_COLUMNS)
    assert np.array_equal(table["k"], np.arange(1, 5))
    np.testing.assert_allclose(table["t"], record.times, rtol=1e-11)
    np.testing.assert_allclose(table["x"], record.poses[:, 0], rtol=1e-11)
    np.testing.assert_allclose(table["rpm_r"], record.controls[:, 3], rtol=1e-11)
    np.testing.assert_allclose(table["deposit_mass"], record.deposit_mass, rtol=1e-11)
    np.testing.assert_allclose(table["cost"], record.cost_trace, rtol=1e-11)


SPECIAL_DOUBLES = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324)


def test_the_trace_formats_a_number_as_the_comparison_table_does():
    # doubles of every exponent: random bit patterns
    doubles = np.random.default_rng(25).integers(0, 2**64, 100_000, dtype=np.uint64)
    for x in [*doubles.view(np.float64).tolist(), *SPECIAL_DOUBLES]:
        assert "%.12g" % x == _format(x)


def _trace_row_by_row(record):
    lines = [",".join(TRACE_COLUMNS)]
    for i in range(record.n_steps):
        row = [record.times[i], *record.poses[i], *record.controls[i],
               record.deposit_mass[i], record.cost_trace[i]]
        lines.append(",".join([str(i + 1), *(_format(v) for v in row)]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_the_trace_is_the_row_by_row_table(tmp_path, steps):
    rng = np.random.default_rng(steps)
    columns = rng.normal(size=(steps, 10)) * 10.0 ** rng.integers(-300, 300, size=(steps, 10))
    if steps:
        columns[0, :len(SPECIAL_DOUBLES)] = SPECIAL_DOUBLES
    record = RunRecord(columns[:, 0], columns[:, 1:4], columns[:, 4:8], columns[:, 8],
                       columns[:, 9], np.zeros((2, 2)), 0.0, np.zeros(steps))
    path = tmp_path / "trace.csv"
    write_trace(path, record)
    assert path.read_text() == _trace_row_by_row(record)


def test_run_outputs_written_as_three_files(tmp_path):
    scenario = tiny_scenario(steps=3)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, SETTINGS,
                 controller=ScheduleReplayController(fixed_schedule(3)))
    out = tmp_path / "out"
    write_run_outputs(out, record, [("final_cost", repr(record.final_cost))])
    assert (out / "A.csv").exists()
    assert (out / "trace.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert f"final_cost = {record.final_cost!r}" in summary
    loaded = np.loadtxt(out / "A.csv", delimiter=",")
    np.testing.assert_allclose(loaded, record.final_map, rtol=1e-11)


def test_compare_ranks_variants_by_final_cost(tmp_path, monkeypatch):
    import spreadopt.cli
    from spreadopt.cli import main
    from test_cli import TINY_SCENARIO

    # keep each variant's record, to hold the comparison table against it
    records = []
    real_run = spreadopt.cli.run

    def keep(scenario, cal, constraints, settings, controller=None):
        records.append(real_run(scenario, cal, constraints, settings, controller))
        return records[-1]

    monkeypatch.setattr(spreadopt.cli, "run", keep)
    scenario_path = tmp_path / "tiny.ini"
    scenario_path.write_text(TINY_SCENARIO)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario_path), "--out", str(out),
                 "--only", "greedy,mpc-full"]) == 0
    rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert [name for name, _, _ in rows] == ["greedy", "mpc-full"]
    assert len(records) == len(rows)
    for (_, final_cost, wall_clock), record in zip(rows, records):
        assert final_cost == _format(record.final_cost)
        assert wall_clock == _format(record.total_controller_seconds)
    costs = {name: record.final_cost for (name, _, _), record in zip(rows, records)}
    summary = (out / "summary.txt").read_text().splitlines()
    assert f"ranking = {' '.join(sorted(costs, key=costs.get))}" in summary
