import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spreadopt import (
    CalibrationDomainError,
    CalibrationModel,
    ConfigurationError,
    ControlConstraints,
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    ShapeError,
    SpreaderControls,
    clamp_controls,
    fit_calibration,
    load_calibration,
    pattern_from_controls,
    patterns_from_controls,
    satisfies_constraints,
    save_calibration,
    validate_calibration,
)

RPM_GRID = np.linspace(300.0, 900.0, 13)


def exact_series(rpm):
    cal = DEFAULT_CALIBRATION
    return (np.array([cal.distance(r) for r in rpm]),
            np.array([cal.sigma_distance(r) for r in rpm]),
            np.array([cal.angle(r) for r in rpm]),
            np.array([cal.sigma_angle(r) for r in rpm]))


# --- default model --------------------------------------------------------

def test_default_pattern_parameters_at_600_rpm():
    cal = DEFAULT_CALIBRATION
    assert cal.distance(600.0) == pytest.approx(15.0, abs=1e-12)
    assert cal.sigma_distance(600.0) == pytest.approx(2.0, abs=1e-12)
    assert cal.angle(600.0) == pytest.approx(math.pi / 4 + 1e-7 * 600.0 ** 2, abs=1e-12)
    assert cal.sigma_angle(600.0) == pytest.approx(0.3 + 1e-8 * 600.0 ** 2, abs=1e-12)


def test_slowest_disc_gives_the_narrowest_valid_pattern():
    cal = DEFAULT_CALIBRATION
    values = (cal.distance(300.0), cal.sigma_distance(300.0),
              cal.angle(300.0), cal.sigma_angle(300.0))
    assert values[0] == pytest.approx(9.0, abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert cal.sigma_distance(300.0) == min(cal.sigma_distance(r) for r in RPM_GRID)


def test_polynomial_slopes():
    cal = DEFAULT_CALIBRATION
    for rpm in (300.0, 600.0, 900.0):
        assert cal.distance_slope(rpm) == pytest.approx(0.02, abs=1e-15)
        assert cal.sigma_distance_slope(rpm) == pytest.approx(1.0 / 300.0, abs=1e-15)
        assert cal.angle_slope(rpm) == pytest.approx(2e-7 * rpm, rel=1e-12)
        assert cal.sigma_angle_slope(rpm) == pytest.approx(2e-8 * rpm, rel=1e-12)


def test_pattern_from_controls_maps_flow_and_rpm():
    p = pattern_from_controls(600.0, 45.0, DEFAULT_CALIBRATION, "right")
    assert p.mass_flow == 45.0
    assert p.center_distance == pytest.approx(15.0)
    assert p.sigma_distance == pytest.approx(2.0)
    assert p.center_angle > 0


def test_left_and_right_lobes_are_antisymmetric():
    for rpm in (300.0, 575.0, 900.0):
        left = pattern_from_controls(rpm, 45.0, DEFAULT_CALIBRATION, "left")
        right = pattern_from_controls(rpm, 45.0, DEFAULT_CALIBRATION, "right")
        assert left.center_angle == -right.center_angle
        assert left.center_distance == right.center_distance


def test_patterns_from_controls_splits_the_control_vector():
    controls = SpreaderControls(10.0, 20.0, 400.0, 800.0)
    left, right = patterns_from_controls(controls, DEFAULT_CALIBRATION)
    assert left.mass_flow == 10.0 and right.mass_flow == 20.0
    assert left.center_distance == pytest.approx(11.0)
    assert right.center_distance == pytest.approx(19.0)
    assert left.center_angle < 0 < right.center_angle


def test_out_of_domain_calibration_raises():
    broken = CalibrationModel((0.02, 3.0), (0.0, 1.0 / 300.0, 0.0),
                              (0.0, 0.0, math.pi / 4), (0.0, -1e-3, 0.3))
    with pytest.raises(CalibrationDomainError):
        pattern_from_controls(600.0, 45.0, broken, "right")


@pytest.mark.parametrize("rpm, flow", [(math.nan, 45.0), (math.inf, 45.0), (600.0, math.nan),
                                       (600.0, math.inf)])
def test_non_finite_operating_point_raises(rpm, flow):
    with pytest.raises(CalibrationDomainError):
        pattern_from_controls(rpm, flow, DEFAULT_CALIBRATION, "left")


# --- actuator envelope ----------------------------------------------------

def test_clamp_respects_the_rpm_ceiling():
    prev = SpreaderControls(45.0, 45.0, 900.0, 600.0)
    wish = SpreaderControls(45.0, 45.0, 950.0, 600.0)
    out = clamp_controls(wish, prev, DEFAULT_CONSTRAINTS)
    assert out.rpm_left == 900.0


def test_clamp_respects_the_flow_rate_window():
    prev = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    wish = SpreaderControls(100.0, 45.0, 600.0, 600.0)
    out = clamp_controls(wish, prev, DEFAULT_CONSTRAINTS)
    assert out.flow_left == 65.0


def test_clamp_keeps_feasible_controls_unchanged():
    prev = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    wish = SpreaderControls(50.0, 40.0, 650.0, 550.0)
    assert clamp_controls(wish, prev, DEFAULT_CONSTRAINTS) == wish


controls_strategy = st.builds(
    SpreaderControls,
    st.floats(-50.0, 260.0), st.floats(-50.0, 260.0),
    st.floats(100.0, 1100.0), st.floats(100.0, 1100.0))


@given(wish=controls_strategy)
def test_clamp_is_an_idempotent_projection(wish):
    prev = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    once = clamp_controls(wish, prev, DEFAULT_CONSTRAINTS)
    assert clamp_controls(once, prev, DEFAULT_CONSTRAINTS) == once
    c = DEFAULT_CONSTRAINTS
    for value, prev_value, lo, hi, rate in (
            (once.flow_left, 45.0, c.flow_min, c.flow_max, c.flow_rate_max),
            (once.flow_right, 45.0, c.flow_min, c.flow_max, c.flow_rate_max),
            (once.rpm_left, 600.0, c.rpm_min, c.rpm_max, c.rpm_rate_max),
            (once.rpm_right, 600.0, c.rpm_min, c.rpm_max, c.rpm_rate_max)):
        assert lo <= value <= hi
        assert abs(value - prev_value) <= rate + 1e-12


def test_clamp_with_unreachable_window_raises():
    # previous rpm below the admissible box leaves an empty intersection
    prev = SpreaderControls(45.0, 45.0, 100.0, 600.0)
    wish = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    with pytest.raises(CalibrationDomainError):
        clamp_controls(wish, prev, DEFAULT_CONSTRAINTS)


def test_rate_feasibility_uses_the_disc_pair_norm():
    prev = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    diag = 20.0 / math.sqrt(2.0)
    on_the_circle = SpreaderControls(45.0 + diag, 45.0 + diag, 600.0, 600.0)
    outside = SpreaderControls(60.0, 60.0, 600.0, 600.0)  # pair norm 21.2
    componentwise_ok = SpreaderControls(65.0, 45.0, 600.0, 600.0)
    assert satisfies_constraints(on_the_circle, prev, DEFAULT_CONSTRAINTS)
    assert not satisfies_constraints(outside, prev, DEFAULT_CONSTRAINTS)
    assert satisfies_constraints(componentwise_ok, prev, DEFAULT_CONSTRAINTS)
    fast_spin = SpreaderControls(45.0, 45.0, 680.0, 680.0)  # pair norm 113
    assert not satisfies_constraints(fast_spin, prev, DEFAULT_CONSTRAINTS)


def test_box_violations_fail_feasibility():
    prev = SpreaderControls(10.0, 10.0, 600.0, 600.0)
    assert not satisfies_constraints(SpreaderControls(-1.0, 10.0, 600.0, 600.0),
                                     prev, DEFAULT_CONSTRAINTS)
    assert not satisfies_constraints(SpreaderControls(10.0, 10.0, 600.0, 910.0),
                                     prev, DEFAULT_CONSTRAINTS)


def test_constraint_envelope_validation():
    with pytest.raises(ConfigurationError):
        ControlConstraints(rpm_min=900.0, rpm_max=300.0)
    with pytest.raises(ConfigurationError):
        ControlConstraints(flow_rate_max=0.0)


# --- chart fitting ----------------------------------------------------------

def test_fit_recovers_exact_polynomial_data():
    fit = fit_calibration(RPM_GRID, *exact_series(RPM_GRID))
    cal = fit.model
    for rpm in (317.0, 500.0, 886.0):
        assert cal.distance(rpm) == pytest.approx(DEFAULT_CALIBRATION.distance(rpm), rel=1e-9)
        assert cal.sigma_distance(rpm) == pytest.approx(
            DEFAULT_CALIBRATION.sigma_distance(rpm), rel=1e-9)
        assert cal.angle(rpm) == pytest.approx(DEFAULT_CALIBRATION.angle(rpm), rel=1e-9)
        assert cal.sigma_angle(rpm) == pytest.approx(
            DEFAULT_CALIBRATION.sigma_angle(rpm), rel=1e-9)
    for series in fit.residuals.values():
        assert np.abs(series).max() < 1e-8


def test_two_point_chart_yields_the_interpolating_line():
    rpm = np.array([400.0, 800.0])
    fit = fit_calibration(rpm, *exact_series(rpm))
    c1, c0 = fit.model.distance_coeffs
    assert c1 == pytest.approx(0.02, abs=1e-12)
    assert c0 == pytest.approx(3.0, abs=1e-9)
    # quadratics degrade to the determined degree, zero-padded in front
    assert fit.model.sigma_distance_coeffs[0] == 0.0
    assert fit.model.sigma_distance(400.0) == pytest.approx(400.0 / 300.0, rel=1e-12)
    assert fit.model.sigma_distance(800.0) == pytest.approx(800.0 / 300.0, rel=1e-12)


def test_fit_rejects_a_single_distinct_rpm():
    rpm = np.array([600.0, 600.0, 600.0])
    with pytest.raises(ShapeError):
        fit_calibration(rpm, *exact_series(rpm))


def test_fit_rejects_ragged_series():
    with pytest.raises(ShapeError):
        fit_calibration(np.array([300.0, 600.0]), np.array([9.0, 15.0, 21.0]),
                        np.array([1.0, 2.0]), np.array([0.8, 0.8]), np.array([0.3, 0.3]))


def test_noisy_chart_fit_is_unbiased():
    # 1000 refits with N(0, 0.1^2) noise on the distance chart
    rng = np.random.default_rng(2024)
    d_true, sd, psi, sa = exact_series(RPM_GRID)
    c1_samples = np.empty(1000)
    c0_samples = np.empty(1000)
    for i in range(1000):
        noisy = d_true + rng.normal(0.0, 0.1, d_true.shape)
        fit = fit_calibration(RPM_GRID, noisy, sd, psi, sa)
        c1_samples[i], c0_samples[i] = fit.model.distance_coeffs
    for samples, truth in ((c1_samples, 0.02), (c0_samples, 3.0)):
        sem = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - truth) <= 3.0 * sem


# --- range validation and files ---------------------------------------------

def test_default_calibration_validates_cleanly():
    assert validate_calibration(DEFAULT_CALIBRATION, DEFAULT_CONSTRAINTS) == []


def test_validation_names_a_negative_sigma_angle():
    broken = CalibrationModel((0.02, 3.0), (0.0, 1.0 / 300.0, 0.0),
                              (1e-7, 0.0, math.pi / 4), (0.0, -1e-3, 0.3))
    problems = validate_calibration(broken, DEFAULT_CONSTRAINTS)
    assert problems
    assert any("sigma_angle" in p for p in problems)


def test_calibration_file_round_trip(tmp_path):
    path = tmp_path / "cal.ini"
    save_calibration(path, DEFAULT_CALIBRATION, DEFAULT_CONSTRAINTS)
    cal, constraints = load_calibration(path)
    assert cal == DEFAULT_CALIBRATION
    assert constraints == DEFAULT_CONSTRAINTS


def test_loading_an_invalid_calibration_fails(tmp_path):
    path = tmp_path / "cal.ini"
    broken = CalibrationModel((0.02, 3.0), (0.0, 1.0 / 300.0, 0.0),
                              (1e-7, 0.0, math.pi / 4), (0.0, -1e-3, 0.3))
    save_calibration(path, broken, DEFAULT_CONSTRAINTS)
    with pytest.raises(ConfigurationError, match="sigma_angle"):
        load_calibration(path)


def test_loading_a_truncated_file_fails(tmp_path):
    path = tmp_path / "cal.ini"
    path.write_text("[pattern]\ndistance = 0.02 3\n")
    with pytest.raises(ConfigurationError):
        load_calibration(path)
