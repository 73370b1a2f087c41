import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadopt import (
    ControlConstraints,
    ControlSchedule,
    ControllerKind,
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    DepositScaling,
    DepositionModel,
    FieldGrid,
    InfeasibleScheduleError,
    OptimizerSettings,
    ConfigurationError,
    Scenario,
    SpreaderControls,
    TractorState,
    as_amount_map,
    clamp_controls,
    cost,
    cost_gradient,
    finite_difference_gradient,
    greedy_step,
    make_controller,
    mpc_step,
    optimize_schedule,
    predict_cost,
    run,
    schedule_feasible,
    trajectory,
    DriveCommand,
    DrivePlan,
)
from spreadopt import controllers
from spreadopt.spread import SQRT_TWO_PI

from replay import ScheduleReplayController

CAL = DEFAULT_CALIBRATION
RATE_DIAG = 20.0 / math.sqrt(2.0)  # largest per-disc flow change per step


def pinned_rpm_constraints(rpm=600.0):
    return ControlConstraints(rpm_min=rpm, rpm_max=rpm)


def single_cell_problem(deficit=30.0, rpm=600.0):
    """One cell whose center sits on the pattern ring, sized so a unit of
    flow from either disc lands exactly one unit of mass in the cell."""
    d = CAL.distance(rpm)
    sd = CAL.sigma_distance(rpm)
    psi = CAL.angle(rpm)
    sa = CAL.sigma_angle(rpm)
    radial_peak = 1.0 / (SQRT_TWO_PI * sd)
    angular_at_lobe = math.exp(-0.5 * (psi / sa) ** 2) / (SQRT_TWO_PI * sa)
    area = d / (radial_peak * angular_at_lobe)
    side = math.sqrt(area)
    grid = FieldGrid(side, 1)
    state = TractorState(side / 2.0 + d, side / 2.0, 0.0)
    prescribed = as_amount_map(np.full((1, 1), deficit), grid)
    return grid, state, prescribed


def schedule_of(rows):
    return ControlSchedule(tuple(SpreaderControls(*row) for row in rows))


def random_feasible_schedule(rng, previous, constraints, horizon):
    steps = []
    prev = previous
    for _ in range(horizon):
        wish = SpreaderControls(*(prev.as_array() + rng.uniform(-1.0, 1.0, 4) *
                                  [RATE_DIAG, RATE_DIAG, 70.0, 70.0]))
        nxt = clamp_controls(wish, prev, constraints)
        steps.append(nxt)
        prev = nxt
    return ControlSchedule(tuple(steps))


def small_field(n=10, side=40.0, dose=20.0):
    grid = FieldGrid(side, n)
    prescribed = as_amount_map(np.full((n, n), dose), grid)
    return grid, prescribed


def straight_tail(start, speed, count):
    plan = DrivePlan(start, (DriveCommand(speed, 0.0, float(count)),))
    return trajectory(plan, 1.0)[1:]


# --- prediction -------------------------------------------------------------

def test_zero_flow_schedule_predicts_the_current_cost():
    grid, prescribed = small_field()
    rng = np.random.default_rng(3)
    applied = as_amount_map(rng.uniform(0.0, 10.0, (10, 10)), grid)
    schedule = schedule_of([(0.0, 0.0, 600.0, 600.0)])
    tail = [TractorState(20.0, 20.0, 0.0)]
    value = predict_cost(schedule, tail, applied, prescribed,
                         DepositionModel.FULL_NORMAL, CAL, grid)
    assert value == cost(applied, prescribed)


def test_single_cell_prediction_reduces_to_scalar_arithmetic():
    grid, state, prescribed = single_cell_problem(deficit=30.0)
    applied = as_amount_map(np.full((1, 1), 5.0), grid)
    schedule = schedule_of([(12.0, 25.0, 600.0, 600.0)])
    value = predict_cost(schedule, [state], applied, prescribed,
                         DepositionModel.FULL_NORMAL, CAL, grid,
                         DepositScaling.CONSERVATIVE)
    assert value == pytest.approx((30.0 - 5.0 - 12.0 - 25.0) ** 2, rel=1e-12)


def test_five_step_prediction_matches_the_open_loop_simulation():
    grid, prescribed = small_field(n=12, side=50.0)
    start = TractorState(5.0, 25.0, 0.0)
    plan = DrivePlan(start, (DriveCommand(4.0, 0.0, 5.0),))
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    rng = np.random.default_rng(8)
    schedule = random_feasible_schedule(rng, previous, DEFAULT_CONSTRAINTS, 5)

    tail = trajectory(plan, 1.0)[1:]
    predicted = predict_cost(schedule, tail, grid.zeros(), prescribed,
                             DepositionModel.FULL_NORMAL, CAL, grid)

    scenario = Scenario(grid, prescribed, plan, 1.0, previous)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(),
                 controller=ScheduleReplayController(schedule))
    assert predicted == pytest.approx(record.final_cost, rel=1e-9)


def test_prediction_rejects_an_infeasible_schedule():
    grid, state, prescribed = single_cell_problem()
    previous = SpreaderControls(0.0, 0.0, 600.0, 600.0)
    jump = schedule_of([(50.0, 0.0, 600.0, 600.0)])  # flow rate 50 > 20
    with pytest.raises(InfeasibleScheduleError):
        predict_cost(jump, [state], grid.zeros(), prescribed,
                     DepositionModel.FULL_NORMAL, CAL, grid,
                     previous=previous, constraints=DEFAULT_CONSTRAINTS)


def test_schedule_feasibility_checks_boxes_and_pair_rates():
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    good = schedule_of([(55.0, 45.0, 650.0, 600.0), (60.0, 50.0, 700.0, 650.0)])
    assert schedule_feasible(good, previous, DEFAULT_CONSTRAINTS)
    paired_rate = schedule_of([(60.0, 60.0, 600.0, 600.0)])  # pair norm 21.2
    assert not schedule_feasible(paired_rate, previous, DEFAULT_CONSTRAINTS)
    box = schedule_of([(45.0, 45.0, 600.0, 910.0)])
    assert not schedule_feasible(box, previous, DEFAULT_CONSTRAINTS)
    later_jump = schedule_of([(45.0, 45.0, 600.0, 600.0), (45.0, 45.0, 780.0, 600.0)])
    assert not schedule_feasible(later_jump, previous, DEFAULT_CONSTRAINTS)


# --- gradients ----------------------------------------------------------------

@pytest.mark.parametrize("model", [DepositionModel.FULL_NORMAL, DepositionModel.TRIANGLE])
def test_gradient_matches_central_differences(model):
    grid, prescribed = small_field()
    start = TractorState(8.0, 20.0, 0.0)
    tail = straight_tail(start, 5.0, 3)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    rng = np.random.default_rng(21)
    applied = as_amount_map(rng.uniform(0.0, 8.0, (10, 10)), grid)
    schedule = random_feasible_schedule(rng, previous, DEFAULT_CONSTRAINTS, 3)

    analytic = cost_gradient(schedule, tail, applied, prescribed, model, CAL, grid)
    numeric = finite_difference_gradient(schedule, tail, applied, prescribed,
                                         model, CAL, grid)
    scale = np.abs(numeric).max()
    assert scale > 0
    assert np.abs(analytic - numeric).max() / scale < 1e-6


def test_flow_gradient_is_negative_on_an_unfertilized_field():
    grid, prescribed = small_field()
    start = TractorState(30.0, 20.0, 0.0)
    schedule = schedule_of([(0.0, 0.0, 600.0, 600.0)])
    g = cost_gradient(schedule, [start], grid.zeros(), prescribed,
                      DepositionModel.FULL_NORMAL, CAL, grid)
    assert g[0] < 0 and g[1] < 0  # more flow reduces the shortfall
    assert g[2] == 0.0 and g[3] == 0.0  # disc speed is inert at zero flow


def test_gradient_vanishes_at_a_met_prescription():
    grid, prescribed = small_field()
    start = TractorState(20.0, 20.0, 0.0)
    schedule = schedule_of([(0.0, 0.0, 600.0, 600.0)])
    g = cost_gradient(schedule, [start], prescribed.copy(), prescribed,
                      DepositionModel.FULL_NORMAL, CAL, grid)
    assert np.array_equal(g, np.zeros(4))


# --- Jacobian fold ---------------------------------------------------------------

def _fold_jacobian_out_of_place(S, masks):
    """Reference fold that leaves ``S`` alone and allocates its result."""
    h = masks.shape[0]
    out = np.empty_like(S)
    carry = np.zeros((S.shape[0], 4))
    for i in reversed(range(h)):
        carry = masks[i][None, :] * (S[:, 4 * i:4 * i + 4] + carry)
        out[:, 4 * i:4 * i + 4] = carry
    return out


@settings(max_examples=200, deadline=None)
@given(masks=st.lists(st.tuples(*[st.booleans()] * 4), min_size=1, max_size=10),
       rows=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       zero_rows=st.floats(0.0, 1.0), negative_zeros=st.floats(0.0, 0.5))
def test_in_place_fold_matches_the_out_of_place_fold(masks, rows, seed, zero_rows,
                                                     negative_zeros):
    masks = np.array(masks, dtype=float)
    columns = 4 * len(masks)
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-6, 4, size=columns)
    # rows outside every disc's window are zero, with either sign
    zero = rng.random(rows) < zero_rows
    S[zero] = np.where(rng.random((int(zero.sum()), 1)) < 0.5, 0.0, -0.0)
    S[rng.random(S.shape) < negative_zeros] = -0.0
    e = rng.normal(size=rows)
    e[rng.random(rows) < 0.2] = 0.0

    reference = _fold_jacobian_out_of_place(S.copy(), masks)
    folded = controllers._fold_jacobian(S, masks)
    assert folded is S
    assert np.array_equal(folded, reference)
    # what the Gauss-Newton step reads of the fold
    assert (folded.T @ folded).tobytes() == (reference.T @ reference).tobytes()
    assert (folded.T @ e).tobytes() == (reference.T @ e).tobytes()


def test_greedy_solve_allocates_no_field_sized_temporaries(monkeypatch):
    grid = FieldGrid(300.0, 180)
    prescribed = as_amount_map(np.full((180, 180), 20.0), grid)
    predictor = controllers._Predictor(grid, [TractorState(150.0, 150.0, 0.3)], grid.zeros(),
                                       prescribed, DepositionModel.FULL_NORMAL, CAL)
    prev = np.array([45.0, 45.0, 600.0, 600.0])
    _, _, S = predictor.cost_residual_jacobian(prev[None, :])
    fold = controllers._fold_jacobian
    folds = []

    def counted_fold(S, masks):
        folds.append(S.shape)
        return fold(S, masks)

    monkeypatch.setattr(controllers, "_fold_jacobian", counted_fold)
    tracemalloc.start()
    try:
        controllers._optimize(predictor, prev, prev[None, :], DEFAULT_CONSTRAINTS,
                              OptimizerSettings())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert folds and folds[0] == S.shape
    # measured: 5.3x with a fold that allocates its result, 2.9x in place
    assert peak < 4 * S.nbytes


# --- optimizer ------------------------------------------------------------------

def test_optimizer_reaches_the_single_cell_target():
    grid, state, prescribed = single_cell_problem(deficit=30.0)
    previous = SpreaderControls(5.0, 5.0, 600.0, 600.0)
    initial = schedule_of([(5.0, 5.0, 600.0, 600.0)])
    out = optimize_schedule(initial, [state], grid.zeros(), prescribed,
                            DepositionModel.FULL_NORMAL, CAL, grid,
                            pinned_rpm_constraints(), OptimizerSettings(), previous,
                            DepositScaling.CONSERVATIVE)
    first = out.steps[0]
    assert first.flow_left + first.flow_right == pytest.approx(30.0, abs=1e-3)
    assert first.rpm_left == 600.0 and first.rpm_right == 600.0
    final = predict_cost(out, [state], grid.zeros(), prescribed,
                         DepositionModel.FULL_NORMAL, CAL, grid,
                         DepositScaling.CONSERVATIVE)
    assert final < 1e-6


def test_optimizer_saturates_rates_for_an_out_of_reach_deficit():
    grid, state, prescribed = single_cell_problem(deficit=100.0)
    previous = SpreaderControls(0.0, 0.0, 600.0, 600.0)
    initial = schedule_of([(0.0, 0.0, 600.0, 600.0)] * 2)
    out = optimize_schedule(initial, [state, state], grid.zeros(), prescribed,
                            DepositionModel.FULL_NORMAL, CAL, grid,
                            pinned_rpm_constraints(), OptimizerSettings(), previous,
                            DepositScaling.CONSERVATIVE)
    flows = out.as_array()[:, :2]
    assert np.allclose(flows[0], RATE_DIAG, atol=1e-6)
    assert np.allclose(flows[1], 2.0 * RATE_DIAG, atol=1e-6)
    # both steps ride the disc-pair rate circle
    assert math.hypot(*(flows[0] - 0.0)) == pytest.approx(20.0, abs=1e-6)
    assert math.hypot(*(flows[1] - flows[0])) == pytest.approx(20.0, abs=1e-6)


def test_optimizer_returns_a_stationary_start_unchanged():
    grid, prescribed = small_field()
    start = TractorState(20.0, 20.0, 0.0)
    previous = SpreaderControls(0.0, 0.0, 600.0, 600.0)
    initial = schedule_of([(0.0, 0.0, 600.0, 600.0)] * 2)
    out = optimize_schedule(initial, straight_tail(start, 5.0, 2),
                            prescribed.copy(), prescribed,
                            DepositionModel.FULL_NORMAL, CAL, grid,
                            DEFAULT_CONSTRAINTS, OptimizerSettings(), previous)
    assert np.array_equal(out.as_array(), initial.as_array())


@pytest.mark.parametrize("model", [DepositionModel.FULL_NORMAL, DepositionModel.TRIANGLE])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimizer_never_increases_the_cost(model, seed):
    grid, prescribed = small_field(n=8, side=30.0)
    start = TractorState(5.0, 15.0, 0.0)
    tail = straight_tail(start, 5.0, 3)
    rng = np.random.default_rng(seed)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    applied = as_amount_map(rng.uniform(0.0, 15.0, (8, 8)), grid)
    initial = random_feasible_schedule(rng, previous, DEFAULT_CONSTRAINTS, 3)

    before = predict_cost(initial, tail, applied, prescribed, model, CAL, grid)
    out = optimize_schedule(initial, tail, applied, prescribed, model, CAL, grid,
                            DEFAULT_CONSTRAINTS, OptimizerSettings(), previous)
    after = predict_cost(out, tail, applied, prescribed, model, CAL, grid)
    assert after <= before + 1e-9
    assert schedule_feasible(out, previous, DEFAULT_CONSTRAINTS)


def test_optimizer_rejects_an_infeasible_start():
    grid, state, prescribed = single_cell_problem()
    previous = SpreaderControls(0.0, 0.0, 600.0, 600.0)
    initial = schedule_of([(80.0, 80.0, 600.0, 600.0)])
    with pytest.raises(InfeasibleScheduleError):
        optimize_schedule(initial, [state], grid.zeros(), prescribed,
                          DepositionModel.FULL_NORMAL, CAL, grid,
                          DEFAULT_CONSTRAINTS, OptimizerSettings(), previous)


def test_optimizer_is_deterministic():
    grid, prescribed = small_field(n=8, side=30.0)
    start = TractorState(5.0, 15.0, 0.0)
    tail = straight_tail(start, 5.0, 2)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    initial = schedule_of([(45.0, 45.0, 600.0, 600.0)] * 2)

    def solve(settings):
        out = optimize_schedule(initial, tail, grid.zeros(), prescribed,
                                DepositionModel.FULL_NORMAL, CAL, grid,
                                DEFAULT_CONSTRAINTS, settings, previous)
        return out.as_array()

    assert np.array_equal(solve(OptimizerSettings()), solve(OptimizerSettings()))
    seeded = OptimizerSettings(restarts=2, seed=7)
    assert np.array_equal(solve(seeded), solve(seeded))


def test_restarts_can_only_improve():
    grid, prescribed = small_field(n=8, side=30.0)
    start = TractorState(5.0, 15.0, 0.0)
    tail = straight_tail(start, 5.0, 2)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    initial = schedule_of([(45.0, 45.0, 600.0, 600.0)] * 2)

    def final_cost(settings):
        out = optimize_schedule(initial, tail, grid.zeros(), prescribed,
                                DepositionModel.FULL_NORMAL, CAL, grid,
                                DEFAULT_CONSTRAINTS, settings, previous)
        return predict_cost(out, tail, grid.zeros(), prescribed,
                            DepositionModel.FULL_NORMAL, CAL, grid)

    assert final_cost(OptimizerSettings(restarts=3, seed=1)) <= final_cost(OptimizerSettings()) + 1e-9


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        OptimizerSettings(max_iterations=0)
    with pytest.raises(ConfigurationError):
        OptimizerSettings(gradient_tolerance=-1.0)
    with pytest.raises(ConfigurationError):
        OptimizerSettings(restarts=-1)


# --- controller steps -------------------------------------------------------

def test_greedy_backs_off_once_the_prescription_is_met():
    grid, prescribed = small_field()
    start = TractorState(20.0, 20.0, 0.0)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    out = greedy_step(start, prescribed.copy(), prescribed, previous,
                      CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(), grid)
    assert out.flow_left == pytest.approx(45.0 - RATE_DIAG, abs=1e-6)
    assert out.flow_right == pytest.approx(45.0 - RATE_DIAG, abs=1e-6)


def test_greedy_treats_a_symmetric_field_symmetrically():
    grid = FieldGrid(30.0, 10)
    prescribed = as_amount_map(np.full((10, 10), 20.0), grid)
    start = TractorState(15.0, 15.0, 0.0)  # grid is mirror symmetric about y=15
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    out = greedy_step(start, grid.zeros(), prescribed, previous,
                      CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(), grid)
    d_flow = (out.flow_left - previous.flow_left) - (out.flow_right - previous.flow_right)
    d_rpm = (out.rpm_left - previous.rpm_left) - (out.rpm_right - previous.rpm_right)
    assert abs(d_flow) <= 1e-6
    assert abs(d_rpm) <= 1e-3


def test_greedy_is_single_step_full_model_mpc():
    grid, prescribed = small_field()
    start = TractorState(10.0, 20.0, 0.3)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    rng = np.random.default_rng(4)
    applied = as_amount_map(rng.uniform(0.0, 10.0, (10, 10)), grid)
    a = greedy_step(start, applied, prescribed, previous,
                    CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(), grid)
    b = mpc_step([start], applied, prescribed, previous,
                 DepositionModel.FULL_NORMAL, 1, CAL, DEFAULT_CONSTRAINTS,
                 OptimizerSettings(), grid)
    assert np.array_equal(a.as_array(), b.as_array())


def test_controller_outputs_stay_feasible():
    grid, prescribed = small_field()
    start = TractorState(5.0, 20.0, 0.0)
    tail = straight_tail(start, 5.0, 4)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    for model in (DepositionModel.FULL_NORMAL, DepositionModel.TRIANGLE):
        out = mpc_step(tail[:3], grid.zeros(), prescribed, previous, model,
                       3, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(), grid)
        assert schedule_feasible(ControlSchedule((out,)), previous, DEFAULT_CONSTRAINTS)


def test_greedy_controller_forces_a_single_step_horizon():
    controller = make_controller(ControllerKind.GREEDY, 7, CAL, DEFAULT_CONSTRAINTS,
                                 OptimizerSettings())
    assert controller.horizon == 1
    assert controller.model is DepositionModel.FULL_NORMAL


def test_receding_horizon_controller_truncates_at_the_plan_end():
    grid, prescribed = small_field()
    start = TractorState(5.0, 20.0, 0.0)
    tail = straight_tail(start, 5.0, 2)  # shorter than the horizon
    controller = make_controller(ControllerKind.MPC_FULL, 5, CAL, DEFAULT_CONSTRAINTS,
                                 OptimizerSettings())
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    out = controller.plan_controls(tail, grid.zeros(), prescribed, previous, grid)
    assert schedule_feasible(ControlSchedule((out,)), previous, DEFAULT_CONSTRAINTS)


def test_geometry_cache_holds_only_the_current_horizon():
    grid, prescribed = small_field()
    start = TractorState(5.0, 20.0, 0.0)
    plan = DrivePlan(start, (DriveCommand(4.0, 0.0, 6.0),))
    scenario = Scenario(grid, prescribed, plan, 1.0, SpreaderControls(45.0, 45.0, 600.0, 600.0))
    controller = make_controller(ControllerKind.MPC_FULL, 3, CAL, DEFAULT_CONSTRAINTS,
                                 OptimizerSettings())
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(), controller=controller)
    assert record.n_steps == 6
    assert len(controller._geometry_cache) <= 3
