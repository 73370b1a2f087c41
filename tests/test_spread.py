import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spreadopt import (
    CalibrationDomainError,
    DegenerateGeometryError,
    DepositScaling,
    DepositionModel,
    FieldGrid,
    PatternParams,
    ShapeError,
    TractorState,
    bearing,
    total_deposit,
)
from spreadopt.spread import (
    SQRT_TWO_PI,
    TriangleSupport,
    _density_factors,
    deposit_from_factors,
    disc_deposit,
    disc_deposit_partials,
    pose_geometry,
)

PARAMS = PatternParams(45.0, 15.0, 2.0, 0.8, 0.3)


def density(x, y, params, model=DepositionModel.FULL_NORMAL):
    """One disc's density at radial offsets ``x`` and angular offsets ``y``
    (which may broadcast), as the kernels build it from its two factors."""
    offsets = np.array(np.broadcast_arrays(x, y), dtype=float)
    factors = _density_factors(offsets, params.sigma_distance, params.sigma_angle, model)
    return deposit_from_factors(params.mass_flow, factors, 1.0)


def triangle(x, y, params):
    return density(x, y, params, DepositionModel.TRIANGLE)


def make_pair(flow_left=45.0, flow_right=45.0, d=15.0, sd=2.0, psi=0.8, sa=0.3):
    left = PatternParams(flow_left, d, sd, -psi, sa)
    right = PatternParams(flow_right, d, sd, psi, sa)
    return left, right


# --- geometry -------------------------------------------------------------

def test_bearing_hand_cases():
    # heading +x, so the reverse direction points along -x
    assert abs(bearing((-1.0, 0.0), (0.0, 0.0), 0.0) - 0.0) <= 1e-12
    assert abs(bearing((0.0, -1.0), (0.0, 0.0), 0.0) - math.pi / 2) <= 1e-12
    assert abs(bearing((0.0, 1.0), (0.0, 0.0), 0.0) + math.pi / 2) <= 1e-12


def test_bearing_of_coincident_cell_is_degenerate():
    with pytest.raises(DegenerateGeometryError):
        bearing((2.0, 3.0), (2.0, 3.0), 0.0)


@given(heading=st.floats(-6.0, 6.0), spin=st.floats(-6.0, 6.0),
       dx=st.floats(-30.0, 30.0), dy=st.floats(-30.0, 30.0))
def test_bearing_is_invariant_under_joint_rotation(heading, spin, dx, dy):
    if math.hypot(dx, dy) < 1e-6:
        return
    base = bearing((dx, dy), (0.0, 0.0), heading)
    c, s = math.cos(spin), math.sin(spin)
    rotated = bearing((c * dx - s * dy, s * dx + c * dy), (0.0, 0.0), heading + spin)
    # compare on the circle: near +-pi the two may land on opposite signs
    assert abs(math.remainder(rotated - base, math.tau)) < 1e-7


def test_pose_geometry_matches_scalar_operations():
    xs = np.array([3.0, 0.0, -1.0])
    ys = np.array([4.0, -1.0, 0.0])
    dist, angle = pose_geometry(xs, ys, 0.0, 0.0, 0.0)
    assert np.allclose(dist, [5.0, 1.0, 1.0])
    for i in range(3):
        assert angle[i] == pytest.approx(bearing((xs[i], ys[i]), (0.0, 0.0), 0.0), abs=1e-12)


def test_pose_geometry_degenerate_cell_gets_zero_angle():
    dist, angle = pose_geometry(np.array([2.0]), np.array([3.0]), 2.0, 3.0, 1.0)
    assert dist[0] == 0.0
    assert angle[0] == 0.0


# --- densities ------------------------------------------------------------

def test_normal_peak_value():
    peak = density(0.0, 0.0, PARAMS)
    assert peak == pytest.approx(45.0 / (2 * math.pi * 2.0 * 0.3), rel=1e-12)
    assert peak == pytest.approx(11.9366, abs=5e-5)


def test_zero_mass_flow_gives_zero_density():
    silent = PatternParams(0.0, 15.0, 2.0, 0.8, 0.3)
    assert density(1.0, 0.2, silent) == 0.0
    assert triangle(0.5, 0.2, silent) == 0.0


def test_normal_density_one_sigma_falloff():
    peak = density(0.0, 0.0, PARAMS)
    assert density(2.0, 0.0, PARAMS) == pytest.approx(peak * math.exp(-0.5), rel=1e-12)
    assert density(0.0, 0.3, PARAMS) == pytest.approx(peak * math.exp(-0.5), rel=1e-12)


def test_normal_density_is_even_and_radially_monotone():
    for x, y in ((1.3, 0.2), (0.4, -0.25)):
        assert density(x, y, PARAMS) == density(-x, y, PARAMS)
        assert density(x, y, PARAMS) == density(x, -y, PARAMS)
    xs = np.linspace(0.0, 8.0, 30)
    vals = density(xs, 0.1, PARAMS)
    assert (np.diff(vals) < 0.0).all()


@given(flow=st.floats(0.0, 200.0), d=st.floats(0.5, 30.0), sd=st.floats(0.1, 5.0),
       psi=st.floats(0.05, 2.5), sa=st.floats(0.05, 1.0))
def test_triangle_and_normal_peaks_agree(flow, d, sd, psi, sa):
    p = PatternParams(flow, d, sd, psi, sa)
    assert triangle(0.0, 0.0, p) == pytest.approx(density(0.0, 0.0, p), rel=1e-12)


def test_triangle_halfway_value():
    # halfway to the radial edge of the support
    value = triangle(0.5 * SQRT_TWO_PI * PARAMS.sigma_distance, 0.0, PARAMS)
    assert value == pytest.approx(45.0 * 0.5 / (2 * math.pi * 2.0 * 0.3), rel=1e-12)
    assert value == pytest.approx(5.9683, abs=5e-5)


def test_triangle_sigma_support_scales_with_the_widths():
    p = PARAMS
    wide = SQRT_TWO_PI * p.sigma_distance
    assert triangle(wide, 0.0, p) == 0.0
    assert triangle(-1.5 * wide, 0.0, p) == 0.0
    assert triangle(0.0, SQRT_TWO_PI * p.sigma_angle, p) == 0.0
    assert triangle(0.9 * wide, 0.0, p) > 0.0
    half = triangle(0.5 * wide, 0.0, p)
    peak = density(0.0, 0.0, p)
    assert half == pytest.approx(0.5 * peak, rel=1e-12)


def test_sigma_support_triangle_mass_matches_the_flow():
    # plane integral of the separable tent product equals D
    p = PatternParams(45.0, 15.0, 2.0, 0.8, 0.3)
    xs = np.linspace(-6.0, 6.0, 4001)[:, None]
    ys = np.linspace(-1.0, 1.0, 4001)[None, :]
    q = triangle(xs, ys, p)
    mass = np.trapezoid(np.trapezoid(q, ys.ravel(), axis=1), xs.ravel())
    assert mass == pytest.approx(45.0, rel=1e-3)


def test_pattern_params_validation():
    with pytest.raises(CalibrationDomainError):
        PatternParams(-1.0, 15.0, 2.0, 0.8, 0.3)
    with pytest.raises(CalibrationDomainError):
        PatternParams(45.0, 0.0, 2.0, 0.8, 0.3)
    with pytest.raises(CalibrationDomainError):
        PatternParams(45.0, 15.0, -2.0, 0.8, 0.3)
    with pytest.raises(CalibrationDomainError):
        PatternParams(45.0, 15.0, 2.0, math.pi, 0.3)
    with pytest.raises(CalibrationDomainError):
        PatternParams(45.0, 15.0, 2.0, 0.8, 0.0)


# --- whole-field deposit --------------------------------------------------

def test_zero_flow_deposits_nothing():
    grid = FieldGrid(30.0, 6)
    left, right = make_pair(0.0, 0.0)
    dep = total_deposit(TractorState(15.0, 15.0, 0.0), left, right, grid)
    assert np.array_equal(dep, grid.zeros())


def test_left_and_right_discs_superpose():
    grid = FieldGrid(60.0, 12)
    state = TractorState(30.0, 30.0, 0.7)
    left, right = make_pair(30.0, 75.0)
    quiet_left, _ = make_pair(0.0, 75.0)
    _, quiet_right = make_pair(30.0, 0.0)
    both = total_deposit(state, left, right, grid)
    left_only = total_deposit(state, left, quiet_right, grid)
    right_only = total_deposit(state, quiet_left, right, grid)
    assert np.array_equal(both, left_only + right_only)


def test_deposit_is_rotation_equivariant():
    grid = FieldGrid(40.0, 10, origin=(-20.0, -20.0))
    left, right = make_pair(30.0, 60.0, d=8.0)
    pose = TractorState(3.0, -2.0, 0.6)
    rotated = TractorState(2.0, 3.0, 0.6 + math.pi / 2)
    dep = total_deposit(pose, left, right, grid)
    dep_rot = total_deposit(rotated, left, right, grid)
    assert np.allclose(dep_rot, np.rot90(dep, -1), rtol=1e-12, atol=1e-12 * dep.max())


def test_deposit_mirrors_when_discs_swap():
    grid = FieldGrid(40.0, 10, origin=(-20.0, -20.0))
    left, right = make_pair(30.0, 60.0, d=8.0)
    swapped_left, swapped_right = make_pair(60.0, 30.0, d=8.0)
    dep = total_deposit(TractorState(3.0, -2.0, 0.6), left, right, grid)
    mirrored = total_deposit(TractorState(3.0, 2.0, -0.6), swapped_left, swapped_right, grid)
    assert np.allclose(mirrored, np.flipud(dep), rtol=1e-12, atol=1e-12 * dep.max())


def test_deposit_requires_the_disc_sign_convention():
    grid = FieldGrid(30.0, 6)
    left, right = make_pair()
    with pytest.raises(ShapeError):
        total_deposit(TractorState(15.0, 15.0, 0.0), right, left, grid)


def test_conservative_deposit_sums_to_the_mass_flow():
    # pattern kept well inside the field; one disc at a time
    grid = FieldGrid(150.0, 90)
    state = TractorState(75.0, 75.0, 0.0)
    left, right = make_pair(45.0, 0.0)
    dep = total_deposit(state, left, right, grid, DepositScaling.CONSERVATIVE)
    assert float(dep.sum()) == pytest.approx(45.0, rel=0.02)
    fine = FieldGrid(150.0, 900)
    dep10 = total_deposit(state, left, right, fine, DepositScaling.CONSERVATIVE)
    assert float(dep10.sum()) == pytest.approx(45.0, rel=0.002)


def test_literal_deposit_stores_the_density_itself():
    grid = FieldGrid(150.0, 90)
    state = TractorState(75.0, 75.0, 0.0)
    left, right = make_pair(45.0, 0.0)
    dep = total_deposit(state, left, right, grid)
    # the ring peak sits d metres behind the tractor at the lobe angle
    peak = density(0.0, 0.0, left)
    assert 0.5 * peak < dep.max() <= peak * 1.0000001


def test_tractor_on_a_cell_center_stays_finite():
    grid = FieldGrid(30.0, 3)
    state = TractorState(15.0, 15.0, 0.0)  # exactly the middle cell center
    left, right = make_pair()
    for scaling in DepositScaling:
        dep = total_deposit(state, left, right, grid, scaling=scaling)
        assert np.isfinite(dep).all()
        assert dep.min() >= 0.0


def test_entry_points_reject_an_unknown_model_or_support():
    # the kernels compare these arguments with ==, so an unknown value must
    # be caught where it enters; older scenario files may still name "unit"
    dist, angle = np.array([14.0, 15.0]), np.array([0.7, 0.8])
    left, right = make_pair()
    grid = FieldGrid(60.0, 12)
    state = TractorState(30.0, 30.0, 0.0)
    calls = [
        lambda: disc_deposit(dist, angle, 1.0, PARAMS, "bogus"),
        lambda: disc_deposit(dist, angle, 1.0, PARAMS, DepositionModel.TRIANGLE, "bogus"),
        lambda: disc_deposit(dist, angle, 1.0, PARAMS, DepositionModel.TRIANGLE, "unit"),
        lambda: total_deposit(state, left, right, grid, "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'(bogus|unit)' is not a valid"):
            call()
    # a member's value is accepted as the member
    assert np.array_equal(disc_deposit(dist, angle, 1.0, PARAMS, "triangle", "sigma"),
                          disc_deposit(dist, angle, 1.0, PARAMS, DepositionModel.TRIANGLE,
                                       TriangleSupport.SIGMA))


# --- analytic parameter partials -------------------------------------------

def _fd_partial(make, base, name, eps):
    lo = dict(base, **{name: base[name] - eps})
    hi = dict(base, **{name: base[name] + eps})
    return (make(**hi) - make(**lo)) / (2 * eps)


@pytest.mark.parametrize("model", list(DepositionModel))
def test_disc_partials_match_finite_differences(model):
    rng = np.random.default_rng(11)
    dist = rng.uniform(5.0, 25.0, 40)
    angle = rng.uniform(-2.0, 2.0, 40)
    scale = rng.uniform(0.5, 2.0, 40)
    base = dict(mass_flow=45.0, center_distance=15.0, sigma_distance=2.0,
                center_angle=0.8, sigma_angle=0.3)

    def value(**kw):
        return disc_deposit(dist, angle, scale, PatternParams(**kw), model)

    got = disc_deposit_partials(dist, angle, scale, PatternParams(**base), model)
    unit, d_dist, d_sigma_d, d_angle, d_sigma_a = got

    eps = 1e-6
    for name, analytic in (("mass_flow", unit), ("center_distance", d_dist),
                           ("sigma_distance", d_sigma_d), ("center_angle", d_angle),
                           ("sigma_angle", d_sigma_a)):
        fd = _fd_partial(value, base, name, eps)
        scale_ref = max(np.abs(fd).max(), 1e-9)
        assert np.abs(analytic - fd).max() / scale_ref < 1e-5, name
