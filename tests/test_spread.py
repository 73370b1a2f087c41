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
    TriangleSupport,
    bearing,
    deposition_density_normal,
    deposition_density_triangle,
    radial_offset,
    total_deposit,
)
from spreadopt.spread import (
    SQRT_TWO_PI,
    disc_deposit,
    disc_deposit_partials,
    pose_geometry,
)

PARAMS = PatternParams(45.0, 15.0, 2.0, 0.8, 0.3)


def make_pair(flow_left=45.0, flow_right=45.0, d=15.0, sd=2.0, psi=0.8, sa=0.3):
    left = PatternParams(flow_left, d, sd, -psi, sa)
    right = PatternParams(flow_right, d, sd, psi, sa)
    return left, right


# --- geometry -------------------------------------------------------------

def test_radial_offset_hand_cases():
    assert radial_offset((3.0, 4.0), (0.0, 0.0), 5.0) == 0.0
    assert radial_offset((3.0, 4.0), (0.0, 0.0), 2.0) == 3.0
    assert radial_offset((0.0, 0.0), (0.0, 0.0), 5.0) == -5.0


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
    peak = deposition_density_normal(0.0, 0.0, PARAMS)
    assert peak == pytest.approx(45.0 / (2 * math.pi * 2.0 * 0.3), rel=1e-12)
    assert peak == pytest.approx(11.9366, abs=5e-5)


def test_zero_mass_flow_gives_zero_density():
    silent = PatternParams(0.0, 15.0, 2.0, 0.8, 0.3)
    assert deposition_density_normal(1.0, 0.2, silent) == 0.0
    assert deposition_density_triangle(0.5, 0.2, silent) == 0.0


def test_normal_density_one_sigma_falloff():
    peak = deposition_density_normal(0.0, 0.0, PARAMS)
    assert deposition_density_normal(2.0, 0.0, PARAMS) == pytest.approx(
        peak * math.exp(-0.5), rel=1e-12)
    assert deposition_density_normal(0.0, 0.3, PARAMS) == pytest.approx(
        peak * math.exp(-0.5), rel=1e-12)


def test_normal_density_is_even_and_radially_monotone():
    for x, y in ((1.3, 0.2), (0.4, -0.25)):
        assert deposition_density_normal(x, y, PARAMS) == deposition_density_normal(-x, y, PARAMS)
        assert deposition_density_normal(x, y, PARAMS) == deposition_density_normal(x, -y, PARAMS)
    xs = np.linspace(0.0, 8.0, 30)
    vals = deposition_density_normal(xs, 0.1, PARAMS)
    assert (np.diff(vals) < 0.0).all()


@given(flow=st.floats(0.0, 200.0), d=st.floats(0.5, 30.0), sd=st.floats(0.1, 5.0),
       psi=st.floats(0.05, 2.5), sa=st.floats(0.05, 1.0))
def test_triangle_and_normal_peaks_agree(flow, d, sd, psi, sa):
    p = PatternParams(flow, d, sd, psi, sa)
    assert deposition_density_triangle(0.0, 0.0, p) == pytest.approx(
        deposition_density_normal(0.0, 0.0, p), rel=1e-12)


def test_triangle_unit_support_cuts_off_at_one():
    assert deposition_density_triangle(1.0, 0.0, PARAMS) == 0.0
    assert deposition_density_triangle(-1.5, 0.0, PARAMS) == 0.0
    assert deposition_density_triangle(0.0, 1.0, PARAMS) == 0.0
    assert deposition_density_triangle(0.999, 0.0, PARAMS) > 0.0


def test_triangle_halfway_value():
    value = deposition_density_triangle(0.5, 0.0, PARAMS)
    assert value == pytest.approx(45.0 * 0.5 / (2 * math.pi * 2.0 * 0.3), rel=1e-12)
    assert value == pytest.approx(5.9683, abs=5e-5)


def test_triangle_sigma_support_scales_with_the_widths():
    p = PARAMS
    wide = SQRT_TWO_PI * p.sigma_distance
    assert deposition_density_triangle(wide, 0.0, p, TriangleSupport.SIGMA) == 0.0
    assert deposition_density_triangle(0.9 * wide, 0.0, p, TriangleSupport.SIGMA) > 0.0
    half = deposition_density_triangle(0.5 * wide, 0.0, p, TriangleSupport.SIGMA)
    peak = deposition_density_normal(0.0, 0.0, p)
    assert half == pytest.approx(0.5 * peak, rel=1e-12)


def test_sigma_support_triangle_mass_matches_the_flow():
    # plane integral of the separable tent product equals D
    p = PatternParams(45.0, 15.0, 2.0, 0.8, 0.3)
    xs = np.linspace(-6.0, 6.0, 4001)[:, None]
    ys = np.linspace(-1.0, 1.0, 4001)[None, :]
    q = deposition_density_triangle(xs, ys, p, TriangleSupport.SIGMA)
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
    dep = total_deposit(state, left, right, grid, DepositionModel.FULL_NORMAL,
                        DepositScaling.CONSERVATIVE)
    assert float(dep.sum()) == pytest.approx(45.0, rel=0.02)
    fine = FieldGrid(150.0, 900)
    dep10 = total_deposit(state, left, right, fine, DepositionModel.FULL_NORMAL,
                          DepositScaling.CONSERVATIVE)
    assert float(dep10.sum()) == pytest.approx(45.0, rel=0.002)


def test_literal_deposit_stores_the_density_itself():
    grid = FieldGrid(150.0, 90)
    state = TractorState(75.0, 75.0, 0.0)
    left, right = make_pair(45.0, 0.0)
    dep = total_deposit(state, left, right, grid)
    # the ring peak sits d metres behind the tractor at the lobe angle
    peak = deposition_density_normal(0.0, 0.0, left)
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
    # be caught where it enters
    dist, angle = np.array([14.0, 15.0]), np.array([0.7, 0.8])
    left, right = make_pair()
    grid = FieldGrid(60.0, 12)
    state = TractorState(30.0, 30.0, 0.0)
    calls = [
        lambda: disc_deposit(dist, angle, 1.0, PARAMS, "bogus"),
        lambda: disc_deposit(dist, angle, 1.0, PARAMS, DepositionModel.TRIANGLE, "bogus"),
        lambda: total_deposit(state, left, right, grid, "bogus"),
        lambda: total_deposit(state, left, right, grid, DepositionModel.TRIANGLE,
                              DepositScaling.LITERAL, "bogus"),
        lambda: total_deposit(state, left, right, grid, DepositionModel.FULL_NORMAL, "bogus"),
        lambda: deposition_density_triangle(0.1, 0.1, PARAMS, "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'bogus' is not a valid"):
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


@pytest.mark.parametrize("model,support", [
    (DepositionModel.FULL_NORMAL, TriangleSupport.UNIT),
    (DepositionModel.TRIANGLE, TriangleSupport.UNIT),
    (DepositionModel.TRIANGLE, TriangleSupport.SIGMA),
])
def test_disc_partials_match_finite_differences(model, support):
    rng = np.random.default_rng(11)
    dist = rng.uniform(5.0, 25.0, 40)
    angle = rng.uniform(-2.0, 2.0, 40)
    scale = rng.uniform(0.5, 2.0, 40)
    base = dict(mass_flow=45.0, center_distance=15.0, sigma_distance=2.0,
                center_angle=0.8, sigma_angle=0.3)

    def value(**kw):
        return disc_deposit(dist, angle, scale, PatternParams(**kw), model, support)

    got = disc_deposit_partials(dist, angle, scale, PatternParams(**base), model, support)
    unit, d_dist, d_sigma_d, d_angle, d_sigma_a = got

    eps = 1e-6
    for name, analytic in (("mass_flow", unit), ("center_distance", d_dist),
                           ("sigma_distance", d_sigma_d), ("center_angle", d_angle),
                           ("sigma_angle", d_sigma_a)):
        fd = _fd_partial(value, base, name, eps)
        scale_ref = max(np.abs(fd).max(), 1e-9)
        assert np.abs(analytic - fd).max() / scale_ref < 1e-5, name
