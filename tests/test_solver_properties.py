"""Invariants of the schedule solver over random small problems.

Each example draws a field of 6-30 cells per side, a driven tail of 1-4
poses, random applied and prescribed maps, either deposition model, either
scaling and either triangle support, a previous control anywhere in the
actuator boxes (edges included) and a feasible warm start whose pair
changes reach up to the full rate disc.  ``controllers._optimize`` must
return a schedule that meets the boxes and the 2-norm pair rate limit,
predicts no worse than the warm start, and is bitwise the same on a second
call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadopt import (
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    DepositScaling,
    DepositionModel,
    DriveCommand,
    DrivePlan,
    FieldGrid,
    OptimizerSettings,
    TractorState,
    trajectory,
)
from spreadopt import controllers
from spreadopt.spread import TriangleSupport

from checks import chain_feasible, controls_in_boxes

CONSTRAINTS = DEFAULT_CONSTRAINTS


@st.composite
def problems(draw):
    n = draw(st.integers(6, 30))
    side = draw(st.floats(10.0, 200.0))
    horizon = draw(st.integers(1, 4))
    start = TractorState(draw(st.floats(-0.2, 1.2)) * side, draw(st.floats(-0.2, 1.2)) * side,
                         draw(st.floats(-math.pi, math.pi)))
    command = DriveCommand(draw(st.floats(1.0, 8.0)), draw(st.floats(-0.4, 0.4)),
                           float(horizon))
    poses = trajectory(DrivePlan(start, (command,)), 1.0)[1:]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    applied = rng.uniform(0.0, draw(st.floats(0.0, 40.0)), (n, n))
    prescribed = rng.choice([0.0, 12.0, 20.0, 30.0], size=(n, n))
    grid = FieldGrid(side, n)
    predictor = controllers._Predictor(
        grid, poses, applied, prescribed, draw(st.sampled_from(DepositionModel)),
        DEFAULT_CALIBRATION, draw(st.sampled_from(DepositScaling)),
        draw(st.sampled_from(TriangleSupport)))

    lo, hi = CONSTRAINTS.lower(), CONSTRAINTS.upper()
    previous = draw(controls_in_boxes(CONSTRAINTS))
    # each step moves the flow pair and the rpm pair to a point of the rate
    # disc around the last step, clipped to the boxes (which only shrinks it)
    steps = []
    current = previous.as_array()
    for _ in range(horizon):
        delta = np.empty(4)
        for pair, rate in (((0, 1), CONSTRAINTS.flow_rate_max),
                           ((2, 3), CONSTRAINTS.rpm_rate_max)):
            radius = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))) * rate
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            delta[list(pair)] = radius * math.cos(angle), radius * math.sin(angle)
        current = np.clip(current + delta, lo, hi)
        steps.append(current)
    return predictor, previous, np.array(steps)


def _check_solver(predictor, previous, start):
    assert chain_feasible(start, previous, CONSTRAINTS)
    prev = previous.as_array()
    controls, cost = controllers._optimize(predictor, prev, start, CONSTRAINTS,
                                           OptimizerSettings())
    assert chain_feasible(controls, previous, CONSTRAINTS)
    assert cost == predictor.cost(controls)
    assert predictor.cost(controls) <= predictor.cost(start)
    again, again_cost = controllers._optimize(predictor, prev, start, CONSTRAINTS,
                                              OptimizerSettings())
    assert again.tobytes() == controls.tobytes()
    assert again_cost == cost


@settings(max_examples=15, deadline=None)
@given(problem=problems())
def test_solver_returns_a_feasible_no_worse_deterministic_schedule(problem):
    _check_solver(*problem)


@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_cost_and_jacobian_paths_give_the_same_cost(problem):
    # the solver compares line-search costs from cost() with iterate costs
    # from cost_residual_jacobian(), so the two must round alike
    predictor, _, controls = problem
    assert predictor.cost(controls) == predictor.cost_residual_jacobian(controls)[0]


def _fresh(predictor):
    """A predictor over the same problem that has evaluated nothing."""
    n = predictor.grid.n_cells
    return controllers._Predictor(predictor.grid, predictor.poses,
                                  predictor.applied.reshape(n, n),
                                  predictor.target.reshape(n, n), predictor.model,
                                  predictor.cal, predictor.scaling, predictor.support)


def _jacobian_bytes(predictor, controls):
    return [(np.shape(part), np.asarray(part).tobytes())
            for part in predictor.cost_residual_jacobian(controls)]


@settings(max_examples=100, deadline=None)
@given(problem=problems(), count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_a_jacobian_after_cost_calls_equals_a_fresh_predictors(problem, count, seed):
    # the predictor keeps its last evaluation for a Jacobian at the same
    # controls; whatever it evaluated before, its Jacobian at any controls
    # must be bitwise what a predictor that evaluated nothing returns
    predictor, _, start = problem
    rng = np.random.default_rng(seed)
    lo, hi = CONSTRAINTS.lower(), CONSTRAINTS.upper()
    step = np.array([10.0, 10.0, 50.0, 50.0])
    schedules = [np.clip(start + rng.uniform(-1.0, 1.0, start.shape) * step, lo, hi)
                 for _ in range(count + 1)]
    evaluated, new = schedules[:-1], schedules[-1]
    reference = _fresh(predictor)
    for controls in (evaluated[-1], evaluated[0], new):
        for earlier in evaluated:
            predictor.cost(earlier)
        expected = _jacobian_bytes(reference, controls)
        assert _jacobian_bytes(predictor, controls) == expected
        # and again, with nothing evaluated in between
        assert _jacobian_bytes(predictor, controls) == expected


@settings(max_examples=100, deadline=None)
@given(problem=problems(), data=st.data())
def test_reusing_unchanged_discs_equals_a_fresh_predictor(problem, data):
    # each schedule keeps some entries of the one before it bitwise, so
    # that some discs' rpm repeats; evaluating it with the kept record must
    # give bitwise what a predictor that evaluated nothing gives
    predictor, _, start = problem
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lo, hi = CONSTRAINTS.lower(), CONSTRAINTS.upper()
    step = np.array([10.0, 10.0, 50.0, 50.0])
    controls = start
    for _ in range(data.draw(st.integers(1, 4))):
        moved = np.clip(controls + rng.uniform(-1.0, 1.0, start.shape) * step, lo, hi)
        keep = rng.random(start.shape) < data.draw(st.floats(0.0, 1.0))
        controls = np.where(keep, controls, moved)
        fresh = _fresh(predictor)
        if data.draw(st.booleans()):
            assert predictor.cost(controls) == fresh.cost(controls)
        assert _jacobian_bytes(predictor, controls) == _jacobian_bytes(fresh, controls)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_solver_invariants_over_many_problems(problem):
    _check_solver(*problem)
