import dataclasses
import math

import numpy as np
import pytest

from spreadopt import (
    ConfigurationError,
    ControllerKind,
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    DepositScaling,
    DepositionModel,
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
from spreadopt.simulation import (
    TRACE_COLUMNS,
    compare,
    comparison_failed,
    read_trace,
    write_run_outputs,
    write_trace,
)

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
        deposit = total_deposit(states[k], left, right, scenario.grid,
                                DepositionModel.FULL_NORMAL)
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
        applied += total_deposit(states[i + 1], left, right, scenario.grid,
                                 DepositionModel.FULL_NORMAL)
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


# --- comparisons ---------------------------------------------------------------

def test_compare_ranks_variants_by_final_cost():
    base = tiny_scenario(ControllerKind.GREEDY, horizon=2)
    result = compare(base, [ControllerKind.GREEDY, ControllerKind.MPC_FULL],
                     CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    assert [r.controller for r in result.rows] == ["greedy", "mpc-full"]
    costs = {r.controller: r.final_cost for r in result.rows}
    assert result.ranking == tuple(sorted(costs, key=costs.get))
    assert not comparison_failed(result)
    for row in result.rows:
        assert row.error is None
        assert row.final_cost == row.record.final_cost
        assert row.wall_clock == row.record.total_controller_seconds


def test_compare_allows_repeated_controllers():
    base = tiny_scenario(ControllerKind.GREEDY)
    result = compare(base, [ControllerKind.GREEDY, ControllerKind.GREEDY],
                     CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    assert result.rows[0].final_cost == result.rows[1].final_cost
    assert result.ranking == ("greedy", "greedy")
    # each row keeps its own run's record
    assert result.rows[0].record is not result.rows[1].record


def test_compare_needs_at_least_one_controller():
    with pytest.raises(ConfigurationError, match="at least one controller"):
        compare(tiny_scenario(), [], CAL, DEFAULT_CONSTRAINTS, SETTINGS)


def test_compare_varies_only_the_controller(monkeypatch):
    import spreadopt.simulation as sim

    # the scenario's own controller is mpc-full; every run must see the
    # kind it was asked for and otherwise the scenario unchanged
    base = tiny_scenario(ControllerKind.MPC_FULL, horizon=2)
    seen = []
    real_run = sim.run

    def spy(scenario, cal, constraints, settings, controller=None):
        seen.append(scenario)
        return real_run(scenario, cal, constraints, settings, controller)

    monkeypatch.setattr(sim, "run", spy)
    sim.compare(base, ["greedy", ControllerKind.MPC_TRIANGLE], CAL, DEFAULT_CONSTRAINTS,
                SETTINGS)
    assert [s.controller for s in seen] == [ControllerKind.GREEDY, ControllerKind.MPC_TRIANGLE]
    for scenario in seen:
        assert scenario.prescription is base.prescription
        assert dataclasses.replace(scenario, controller=base.controller) == base


def test_compare_records_a_failed_variant_as_nan(monkeypatch):
    import spreadopt.simulation as sim

    base = tiny_scenario(ControllerKind.GREEDY)
    real_run = sim.run
    partial = real_run(base, CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    raised = RunAbortedError("boom", record=partial, step=1)

    def flaky(scenario, cal, constraints, settings, controller=None):
        if scenario.controller is ControllerKind.MPC_TRIANGLE:
            raise raised
        return real_run(scenario, cal, constraints, settings, controller)

    monkeypatch.setattr(sim, "run", flaky)
    result = sim.compare(base, [ControllerKind.GREEDY, ControllerKind.MPC_TRIANGLE],
                         CAL, DEFAULT_CONSTRAINTS, SETTINGS)
    failed = result.rows[1]
    assert math.isnan(failed.final_cost) and math.isnan(failed.wall_clock)
    assert failed.error is raised and failed.record is partial
    assert result.rows[0].error is None
    assert result.ranking == ("greedy",)
    assert comparison_failed(result)
