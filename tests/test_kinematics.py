import math

import pytest
from hypothesis import given, strategies as st

from spreadopt import (
    ConfigurationError,
    DriveCommand,
    DrivePlan,
    InvalidStateError,
    TractorState,
    step,
    trajectory,
)
from spreadopt import kinematics

S_PLAN = DrivePlan(
    TractorState(50.0, 100.0, 0.0),
    (
        DriveCommand(10.0, 0.0, 10.0),
        DriveCommand(4.0, -math.pi / 16, 16.0),
        DriveCommand(10.0, 0.0, 10.0),
        DriveCommand(4.0, math.pi / 16, 16.0),
        DriveCommand(10.0, 0.0, 10.0),
    ),
)


def test_straight_step_moves_along_heading():
    out = step(TractorState(50.0, 100.0, 0.0), DriveCommand(10.0, 0.0, 1.0), 1.0)
    assert (out.x, out.y, out.heading) == (60.0, 100.0, 0.0)


def test_zero_command_is_a_fixed_point():
    state = TractorState(0.0, 0.0, 0.0)
    out = step(state, DriveCommand(0.0, 0.0, 1.0), 1.0)
    assert (out.x, out.y, out.heading) == (0.0, 0.0, 0.0)


def test_first_euler_step_of_turn_has_no_lateral_motion():
    # position update uses the heading at the step start
    out = step(TractorState(0.0, 0.0, 0.0), DriveCommand(4.0, -math.pi / 16, 1.0), 1.0)
    assert out.x == 4.0
    assert out.y == 0.0
    assert out.heading == -math.pi / 16


def test_trajectory_includes_both_endpoints():
    plan = DrivePlan(TractorState(0.0, 0.0, 0.0), (DriveCommand(10.0, 0.0, 3.0),))
    states = trajectory(plan, 1.0)
    assert [s.x for s in states] == [0.0, 10.0, 20.0, 30.0]
    assert all(s.y == 0.0 and s.heading == 0.0 for s in states)


def test_sixteen_second_turn_accumulates_half_revolution():
    plan = DrivePlan(TractorState(0.0, 0.0, 0.0), (DriveCommand(4.0, -math.pi / 16, 16.0),))
    states = trajectory(plan, 1.0)
    assert states[-1].heading == pytest.approx(-math.pi, abs=1e-12)


def test_s_plan_duration_and_state_count():
    assert S_PLAN.total_duration == 62.0
    assert len(trajectory(S_PLAN, 1.0)) == 63


def test_s_plan_turns_happen_on_the_headland():
    # the straights span the field; both turning maneuvers swing beyond
    # the eastern edge and return, as a real headland turn would
    xs = [s.x for s in trajectory(S_PLAN, 1.0)]
    assert max(xs) > 150.0
    assert xs[0] == 50.0 and all(x > 30.0 for x in xs)


def test_fractional_segment_duration_is_rejected():
    plan = DrivePlan(TractorState(0.0, 0.0, 0.0), (DriveCommand(10.0, 0.0, 2.5),))
    with pytest.raises(ConfigurationError):
        trajectory(plan, 1.0)


def test_a_step_count_that_overflows_is_rejected():
    # 10 / 1e-320 is an infinite step count, which round() cannot convert
    with pytest.raises(ConfigurationError, match="not an integer multiple of dt=1e-320"):
        trajectory(S_PLAN, 1e-320)


def _no_state_built(monkeypatch):
    """Make building any state fail the test, so that no plan of too many
    steps is ever integrated."""
    def forbidden(*args):
        raise AssertionError("a state was built")
    monkeypatch.setattr(kinematics, "step", forbidden)


def test_a_plan_of_too_many_steps_is_rejected_before_any_state(monkeypatch):
    _no_state_built(monkeypatch)
    # 62 s at dt = 1e-9: every segment is a whole number of steps
    with pytest.raises(ConfigurationError,
                       match=r"^dt=1e-09 gives the plan 62000000000 steps, more than the "
                             r"1000000 allowed$"):
        trajectory(S_PLAN, 1e-9)


def test_the_step_bound_counts_every_segment(monkeypatch):
    monkeypatch.setattr(kinematics, "MAX_STEPS", 62)
    assert len(trajectory(S_PLAN, 1.0)) == 63
    _no_state_built(monkeypatch)
    # 124 steps in all, though no segment alone takes more than 32
    with pytest.raises(ConfigurationError, match="^dt=0.5 gives the plan 124 steps"):
        trajectory(S_PLAN, 0.5)


def test_nonfinite_state_is_rejected():
    with pytest.raises(InvalidStateError):
        TractorState(math.nan, 0.0, 0.0)
    with pytest.raises(InvalidStateError):
        TractorState(0.0, math.inf, 0.0)


def test_invalid_commands_are_rejected():
    with pytest.raises(ConfigurationError):
        DriveCommand(-1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        DriveCommand(1.0, 0.0, 0.0)
    with pytest.raises(InvalidStateError):
        DriveCommand(math.nan, 0.0, 1.0)


def test_nonpositive_dt_is_rejected():
    with pytest.raises(ConfigurationError):
        trajectory(S_PLAN, -1.0)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@given(speed=st.floats(0.0, 20.0), duration=st.integers(1, 20), heading=finite)
def test_straight_segments_stay_on_the_heading_ray(speed, duration, heading):
    plan = DrivePlan(TractorState(0.0, 0.0, heading),
                     (DriveCommand(speed, 0.0, float(duration)),))
    end = trajectory(plan, 1.0)[-1]
    assert end.x == pytest.approx(math.cos(heading) * speed * duration, abs=1e-9)
    assert end.y == pytest.approx(math.sin(heading) * speed * duration, abs=1e-9)
    assert end.heading == heading


@given(st.lists(st.tuples(st.floats(0.0, 15.0), st.floats(-0.5, 0.5), st.integers(1, 8)),
                min_size=1, max_size=5))
def test_final_heading_is_the_sum_of_turn_increments(segs):
    plan = DrivePlan(TractorState(0.0, 0.0, 0.0),
                     (tuple(DriveCommand(u, w, float(T)) for u, w, T in segs)))
    end = trajectory(plan, 1.0)[-1]
    expected = sum(w * T for _, w, T in segs)
    assert end.heading == pytest.approx(expected, abs=1e-9)


@given(segs=st.lists(st.tuples(st.floats(0.0, 15.0), st.floats(-0.5, 0.5), st.integers(1, 6)),
                     min_size=1, max_size=4),
       heading=st.floats(-3.0, 3.0))
def test_negating_turn_rates_mirrors_the_trajectory(segs, heading):
    fwd = DrivePlan(TractorState(0.0, 0.0, heading),
                    tuple(DriveCommand(u, w, float(T)) for u, w, T in segs))
    mirrored = DrivePlan(TractorState(0.0, 0.0, -heading),
                         tuple(DriveCommand(u, -w, float(T)) for u, w, T in segs))
    for a, b in zip(trajectory(fwd, 1.0), trajectory(mirrored, 1.0)):
        assert b.x == pytest.approx(a.x, abs=1e-9)
        assert b.y == pytest.approx(-a.y, abs=1e-9)
        assert b.heading == pytest.approx(-a.heading, abs=1e-9)


def test_two_substeps_compose_to_the_trajectory_state():
    cmd = DriveCommand(6.0, 0.25, 2.0)
    start = TractorState(1.0, -2.0, 0.3)
    by_steps = step(step(start, cmd, 1.0), cmd, 1.0)
    plan = DrivePlan(start, (cmd,))
    assert trajectory(plan, 1.0)[2] == by_steps
