"""Invariants of closed-loop runs over random small scenarios.

Each example draws a field of 6-30 cells per side with a random zone
prescription, a drive plan of 1-3 segments from a start anywhere in or
near the field, any controller with a horizon of 1-4, either scaling and
an initial control anywhere in the actuator boxes (edges included).  The
run must emit only controls that meet the boxes and the 2-norm pair rate
limit, must repeat bitwise, and for the full-model controllers (greedy and
mpc-full) the predictor's cost of each applied control must equal the
plant's cost after that step.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadopt import (
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    ControllerKind,
    DepositScaling,
    DepositionModel,
    DriveCommand,
    DrivePlan,
    FieldGrid,
    OptimizerSettings,
    Scenario,
    TractorState,
    make_controller,
    run,
)
from spreadopt import controllers
from spreadopt.config import default_calibration_path, default_scenario_path, load_scenario
from spreadopt.calibration import load_calibration

from checks import chain_feasible, controls_in_boxes

CAL = DEFAULT_CALIBRATION
CONSTRAINTS = DEFAULT_CONSTRAINTS
SETTINGS = OptimizerSettings()


@st.composite
def scenarios(draw):
    n = draw(st.integers(6, 30))
    side = draw(st.floats(10.0, 200.0))
    grid = FieldGrid(side, n)
    # square zones of a random size, each at one of a few dose levels
    zone = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zones = -(-n // zone)
    levels = rng.choice([0.0, 12.0, 20.0, 30.0], size=(zones, zones))
    prescription = np.kron(levels, np.ones((zone, zone)))[:n, :n]

    start = TractorState(draw(st.floats(-0.2, 1.2)) * side, draw(st.floats(-0.2, 1.2)) * side,
                         draw(st.floats(-math.pi, math.pi)))
    segments = draw(st.lists(
        st.builds(DriveCommand, st.floats(1.0, 8.0), st.floats(-0.4, 0.4),
                  st.integers(1, 3).map(float)),
        min_size=1, max_size=3))
    return Scenario(grid, prescription, DrivePlan(start, tuple(segments)), 1.0,
                    draw(controls_in_boxes(CONSTRAINTS)),
                    draw(st.sampled_from(ControllerKind)), draw(st.integers(1, 4)),
                    draw(st.sampled_from(DepositScaling)))


class _Recorder:
    """Passes decisions through and keeps each call's pose and applied map."""

    def __init__(self, controller):
        self.controller = controller
        self.calls = []

    def plan_controls(self, plan_tail, applied, prescribed, previous, grid):
        self.calls.append((plan_tail[0], applied.copy()))
        return self.controller.plan_controls(plan_tail, applied, prescribed, previous, grid)


def _run(scenario):
    recorder = _Recorder(make_controller(scenario.controller, scenario.horizon, CAL, CONSTRAINTS,
                                         SETTINGS, scenario.scaling))
    return run(scenario, CAL, CONSTRAINTS, SETTINGS, controller=recorder), recorder.calls


def _check_closed_loop(scenario):
    record, calls = _run(scenario)
    assert record.n_steps == len(calls) > 0
    assert chain_feasible(record.controls, scenario.initial_controls, CONSTRAINTS)

    if scenario.controller is not ControllerKind.MPC_TRIANGLE:
        # the predictor drops only the normal model's deposit beyond its
        # window, at most spread.WINDOW_TOLERANCE per gram, and sums the two
        # discs onto the map in another order than the plant
        for (pose, applied), controls, plant in zip(calls, record.controls, record.cost_trace):
            predictor = controllers._Predictor(scenario.grid, [pose], applied,
                                               scenario.prescription,
                                               DepositionModel.FULL_NORMAL, CAL,
                                               scenario.scaling)
            assert predictor.cost(controls[None, :]) == pytest.approx(plant, rel=1e-9, abs=1e-9)

    again, _ = _run(scenario)
    assert again.controls.tobytes() == record.controls.tobytes()
    assert again.cost_trace.tobytes() == record.cost_trace.tobytes()
    assert again.final_map.tobytes() == record.final_map.tobytes()


@settings(max_examples=30, deadline=None)
@given(scenario=scenarios())
def test_closed_loop_is_feasible_predicted_and_repeatable(scenario):
    _check_closed_loop(scenario)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_closed_loop_invariants_over_many_scenarios(scenario):
    _check_closed_loop(scenario)


def _shipped(kind, **plan):
    """The shipped scenario under controller ``kind``, its plan's fields
    replaced by ``plan``, with the shipped calibration and settings."""
    config = load_scenario(default_scenario_path())
    cal, constraints = load_calibration(default_calibration_path())
    scenario = dataclasses.replace(config.scenario, controller=kind,
                                   plan=dataclasses.replace(config.scenario.plan, **plan))
    return scenario, cal, constraints, config.settings


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_a_zero_width_flow_box_runs_to_the_end(kind):
    # flow_min = flow_max leaves each solve the speeds alone; the first 26
    # shipped steps take in the first turn
    scenario, cal, constraints, settings_ = _shipped(kind)
    scenario = dataclasses.replace(scenario, plan=dataclasses.replace(
        scenario.plan, segments=scenario.plan.segments[:2]))
    pinned = dataclasses.replace(constraints, flow_min=45.0, flow_max=45.0)
    record = run(scenario, cal, pinned, settings_)
    assert record.n_steps == 26
    assert chain_feasible(record.controls, scenario.initial_controls, pinned)
    assert np.all(record.controls[:, :2] == 45.0)
    assert math.isfinite(record.final_cost)


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_a_plan_entirely_off_the_field_runs_to_the_end(kind):
    # no band of any speed reaches the field from any pose of the plan
    scenario, cal, constraints, settings_ = _shipped(kind, start=TractorState(-500.0, -500.0,
                                                                              0.0))
    record = run(scenario, cal, constraints, settings_)
    assert record.n_steps == 62
    assert chain_feasible(record.controls, scenario.initial_controls, constraints)
    # nothing lands, so the cost stays the prescription's sum of squares
    assert not record.final_map.any()
    assert record.final_cost == float(np.sum(scenario.prescription ** 2)) == 3240000.0
