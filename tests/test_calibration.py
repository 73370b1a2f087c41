import dataclasses
import math
import tracemalloc

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
    SpreaderControls,
    default_calibration_path,
    load_calibration,
    pattern_from_controls,
    patterns_from_controls,
    satisfies_constraints,
    validate_calibration,
)
from spreadopt.calibration import pattern_range

from checks import clamp_controls

RPM_GRID = np.linspace(300.0, 900.0, 13)


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


# --- range validation and files ---------------------------------------------

def test_default_calibration_validates_cleanly():
    assert validate_calibration(DEFAULT_CALIBRATION, DEFAULT_CONSTRAINTS) == []


def test_validation_names_a_negative_sigma_angle():
    broken = CalibrationModel((0.02, 3.0), (0.0, 1.0 / 300.0, 0.0),
                              (1e-7, 0.0, math.pi / 4), (0.0, -1e-3, 0.3))
    problems = validate_calibration(broken, DEFAULT_CONSTRAINTS)
    assert problems
    assert any("sigma_angle" in p for p in problems)


def test_the_packaged_calibration_is_the_in_code_default():
    # the CLI reads the file and the library defaults to the constants, so
    # the two must not drift apart
    assert load_calibration(default_calibration_path()) == (DEFAULT_CALIBRATION,
                                                            DEFAULT_CONSTRAINTS)


def test_loading_an_invalid_calibration_fails(tmp_path):
    shipped = default_calibration_path().read_text()
    path = tmp_path / "cal.ini"
    # the angular spread reaches zero at 300 rpm
    path.write_text("[pattern]\n"
                    "distance = 0.02 3\n"
                    "sigma_distance = 0 0.0033333333333333335 0\n"
                    "angle = 1e-7 0 pi/4\n"
                    "sigma_angle = 0 -1e-3 0.3\n\n"
                    + shipped[shipped.index("[constraints]"):])
    with pytest.raises(ConfigurationError, match="sigma_angle"):
        load_calibration(path)


def rpm_box_calibration(tmp_path, rpm_min, rpm_max, sigma_angle_zero):
    """The shipped calibration file with the rpm box [``rpm_min``, ``rpm_max``]
    and an angular spread that falls through zero at ``sigma_angle_zero`` RPM."""
    shipped = default_calibration_path().read_text()
    replaced = {"sigma_angle = 1e-8 0 0.3\n": f"sigma_angle = 0 -1e-3 {sigma_angle_zero}e-3\n",
                "rpm_min = 300\n": f"rpm_min = {rpm_min}\n",
                "rpm_max = 900\n": f"rpm_max = {rpm_max}\n"}
    for line, edited in replaced.items():
        assert shipped.count(line) == 1
        shipped = shipped.replace(line, edited)
    path = tmp_path / "cal.ini"
    path.write_text(shipped)
    return path


def test_validation_samples_no_rpm_past_the_box(tmp_path):
    # invalid from 900.3 RPM, valid on the whole box
    cal, constraints = load_calibration(rpm_box_calibration(tmp_path, 300.5, 900.2, 900.3))
    assert (constraints.rpm_min, constraints.rpm_max) == (300.5, 900.2)
    pattern_from_controls(constraints.rpm_max, 45.0, cal, "right")
    pattern_from_controls(constraints.rpm_min, 45.0, cal, "right")


def test_validation_samples_a_fractional_rpm_ceiling(tmp_path):
    # invalid from 900.1 RPM, between the last whole RPM and the ceiling
    path = rpm_box_calibration(tmp_path, 300, 900.2, 900.1)
    broken = dataclasses.replace(DEFAULT_CALIBRATION, sigma_angle_coeffs=(0.0, -1e-3, 0.9001))
    with pytest.raises(CalibrationDomainError):
        pattern_from_controls(900.2, 45.0, broken, "right")
    with pytest.raises(ConfigurationError, match="sigma_angle.*violated at 900.2 RPM"):
        load_calibration(path)


@pytest.mark.parametrize("line", ["sigma_distance = 0 0.0033333333333333335 0",
                                  "sigma_angle = 1e-8 0 0.3"],
                         ids=["sigma_distance", "sigma_angle"])
def test_validation_finds_a_dip_between_two_whole_rpms(tmp_path, line):
    # (rpm - 600.5)**2 - 1e-6: negative only strictly between 600 and 601 RPM
    key = line.split(" = ")[0]
    shipped = default_calibration_path().read_text()
    assert shipped.count(line + "\n") == 1
    path = tmp_path / "cal.ini"
    path.write_text(shipped.replace(line, f"{key} = 1 -1201 360600.249999"))
    with pytest.raises(ConfigurationError, match=rf"{key}\).*violated at 600\.5 RPM"):
        load_calibration(path)


def test_validation_of_a_vast_rpm_box_names_the_problem():
    problems = validate_calibration(DEFAULT_CALIBRATION, ControlConstraints(rpm_max=1e15))
    assert len(problems) == 1
    assert problems[0].startswith("center angle must lie in (0, pi)")
    assert "violated at 1e+15 RPM" in problems[0]


def test_validation_memory_does_not_grow_with_the_rpm_box():
    tracemalloc.start()
    try:
        validate_calibration(DEFAULT_CALIBRATION,
                             ControlConstraints(rpm_min=1.0, rpm_max=1e6 + 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_validation_rejects_a_parameter_that_overflows():
    # finite coefficients on a finite box, but 1e200 ** 2 is infinite, which
    # pattern_from_controls rejects
    cal = dataclasses.replace(DEFAULT_CALIBRATION, sigma_distance_coeffs=(1.0, 0.0, 0.0))
    constraints = ControlConstraints(rpm_max=1e200)
    with pytest.raises(CalibrationDomainError):
        pattern_from_controls(1e200, 45.0, cal, "right")
    problems = validate_calibration(cal, constraints)
    assert any(p.startswith("radial spread") and "(value inf)" in p for p in problems)


@pytest.mark.parametrize("spread, finite", [("1e-200", False), ("5e-324", False),
                                             ("1e-150", True)])
def test_validation_rejects_a_peak_deposit_that_overflows(spread, finite):
    # 200 g over 2 pi 1e-300 is finite; over 2 pi 1e-400 it is not, and that
    # product, or a subnormal's, underflows to zero
    value = float(spread)
    cal = dataclasses.replace(DEFAULT_CALIBRATION, sigma_distance_coeffs=(0.0, 0.0, value),
                              sigma_angle_coeffs=(0.0, 0.0, value))
    problems = validate_calibration(cal, DEFAULT_CONSTRAINTS)
    if finite:
        assert problems == []
        return
    assert len(problems) == 1
    assert problems[0].startswith("peak deposit")
    assert (f"radial spread (sigma_distance) {value:g} at 300 RPM and "
            f"angular spread (sigma_angle) {value:g} at 300 RPM") in problems[0]


coefficient = st.floats(-10.0, 10.0)


@given(coeffs=st.one_of(st.tuples(coefficient, coefficient),
                        st.tuples(coefficient, coefficient, coefficient)),
       lo=st.floats(-5.0, 5.0), width=st.floats(0.0, 10.0))
def test_pattern_range_bounds_the_polynomial_over_the_box(coeffs, lo, width):
    hi = lo + width
    least, greatest = pattern_range(coeffs, lo, hi)
    for value, rpm in (least, greatest):
        assert lo <= rpm <= hi
        assert value == np.polyval(coeffs, rpm)
    sampled = np.polyval(coeffs, np.linspace(lo, hi, 1001))
    slack = 1e-9 * (1.0 + np.abs(sampled).max())
    assert least[0] <= sampled.min() + slack
    assert greatest[0] >= sampled.max() - slack


def test_loading_a_truncated_file_fails(tmp_path):
    path = tmp_path / "cal.ini"
    path.write_text("[pattern]\ndistance = 0.02 3\n")
    with pytest.raises(ConfigurationError):
        load_calibration(path)


# --- checks.clamp_controls, which the tests draw feasible schedules with ---

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
