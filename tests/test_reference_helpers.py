"""The solver's and kernel's per-call helpers give bitwise the results of
their step-by-step forms in ``checks``, on the edges where the two could
part: entries at the rate box and the actuator boxes, zeros of either sign,
clip masks with zeros and horizons from 1 to 10."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadopt import CalibrationDomainError, PatternParams, controllers, spread
from spreadopt.spread import DepositionModel, TriangleSupport

from checks import (clip_masks_reference, fold_jacobian_reference, normal_equations_reference,
                    normal_factor_reference, pattern_domain_error_reference, unroll_reference)

ZEROS = (0.0, -0.0)


@st.composite
def unroll_problems(draw):
    """Boxes with zero flow floors of either sign, a previous control on or
    inside them, and deltas at the rate box, at zero of either sign, onto
    the actuator bounds, or anywhere in between."""
    horizon = draw(st.integers(1, 10))
    lo, hi, rbox, prev = [], [], [], []
    for _ in range(4):
        low = draw(st.one_of(st.sampled_from(ZEROS), st.floats(0.0, 500.0)))
        high = draw(st.one_of(st.just(low), st.floats(low, 1000.0)))
        rate = draw(st.floats(0.1, 100.0))
        start = draw(st.one_of(st.sampled_from((low, high)), st.floats(low, high)))
        lo.append(low), hi.append(high), rbox.append(rate), prev.append(start)
    deltas = np.array([[draw(st.one_of(st.sampled_from((rbox[c], -rbox[c], *ZEROS,
                                                        lo[c] - prev[c], hi[c] - prev[c])),
                                       st.floats(-rbox[c], rbox[c])))
                        for c in range(4)] for _ in range(horizon)])
    return deltas, np.array(prev), np.array(lo), np.array(hi)


@settings(max_examples=300, deadline=None)
@given(problem=unroll_problems())
def test_unroll_and_clip_masks_match_their_references(problem):
    deltas, prev, lo, hi = problem
    controls = controllers._unroll(deltas, prev, lo, hi)
    reference = unroll_reference(deltas, prev, lo, hi)
    assert controls.tobytes() == reference.tobytes()
    masks = controllers._clip_masks(reference, deltas, prev)
    assert masks.tobytes() == clip_masks_reference(reference, deltas, prev).tobytes()


@st.composite
def fold_problems(draw):
    """A matrix with 4H columns, zero rows and zeros of either sign, in
    either memory order, a residual, and clip masks with zeros."""
    horizon = draw(st.integers(1, 10))
    rows = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = rng.normal(size=(rows, 4 * horizon)) * 10.0 ** rng.integers(-8, 8, size=4 * horizon)
    S[rng.random(rows) < 0.2] = 0.0
    S[rng.random(S.shape) < draw(st.floats(0.0, 0.5))] = -0.0
    e = rng.normal(size=rows)
    e[rng.random(rows) < 0.2] = draw(st.sampled_from(ZEROS))
    masks = (rng.random((horizon, 4)) >= draw(st.floats(0.0, 0.6))).astype(float)
    order = draw(st.sampled_from("CF"))
    return np.asarray(S, order=order), e, masks


@settings(max_examples=300, deadline=None)
@given(problem=fold_problems())
def test_fold_and_normal_equations_match_their_references(problem):
    S, e, masks = problem
    work = S.copy(order="K")
    assert controllers._fold_jacobian(work, masks) is work
    assert work.tobytes() == fold_jacobian_reference(S.copy(order="K"), masks).tobytes()
    M, grad = controllers._normal_equations(S, e, masks)
    M_ref, grad_ref = normal_equations_reference(S, e, masks)
    assert M.tobytes() == M_ref.tobytes()
    assert grad.tobytes() == grad_ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 80), sd=st.floats(1e-3, 50.0), sa=st.floats(1e-3, 3.0),
       seed=st.integers(0, 2**32 - 1), zero_frac=st.floats(0.0, 0.5))
def test_normal_factors_match_the_one_axis_reference(n, sd, sa, seed, zero_frac):
    rng = np.random.default_rng(seed)
    offsets = rng.normal(size=(2, n)) * np.array([[5.0 * sd], [5.0 * sa]])
    offsets[rng.random((2, n)) < zero_frac] = -0.0
    offsets[rng.random((2, n)) < zero_frac] = 0.0
    x, y = offsets.copy()
    radial, angular = spread._normal_factors(offsets, sd, sa)
    assert radial.tobytes() == normal_factor_reference(x, sd).tobytes()
    assert angular.tobytes() == normal_factor_reference(y, sa).tobytes()
    # the kernel the plant and the predictor call, on a band's geometry
    params = PatternParams(1.0, 15.0, sd, -0.8, sa)
    dist, angle = x + 15.0, y - 0.8
    factors = spread.disc_factors(dist, angle, params, DepositionModel.FULL_NORMAL,
                                  TriangleSupport.UNIT)
    assert factors[0].tobytes() == normal_factor_reference(dist - 15.0, sd).tobytes()
    assert factors[1].tobytes() == normal_factor_reference(angle + 0.8, sa).tobytes()


EDGES = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, math.pi, -math.pi,
         math.nextafter(math.pi, 0.0), 4.0)


@settings(max_examples=500, deadline=None)
@given(values=st.tuples(*[st.one_of(st.sampled_from(EDGES), st.floats(-10.0, 10.0))] * 5))
def test_pattern_validation_matches_the_reference(values):
    expected = pattern_domain_error_reference(*values)
    if expected is None:
        params = PatternParams(*values)
        assert (params.mass_flow, params.center_distance, params.sigma_distance,
                params.center_angle, params.sigma_angle) == values
    else:
        with pytest.raises(CalibrationDomainError) as raised:
            PatternParams(*values)
        assert str(raised.value) == expected
