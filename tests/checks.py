"""Reference computations the tests hold the predictor and solver to, the
strategy that draws their starting controls, the projection that turns a
wished control into a feasible one, and the step-by-step forms of the
per-call helpers."""

import math

import numpy as np
from hypothesis import strategies as st

from spreadopt import (CalibrationDomainError, SpreaderControls, pattern_from_controls,
                       satisfies_constraints)
from spreadopt.controllers import _DISC_COLUMNS
from spreadopt.spread import band, band_bounds, disc_deposit, disc_deposit_partials


def analytic_gradient(predictor, controls):
    """Gradient of ``predictor.cost`` at the (H, 4) array ``controls`` from
    the residual Jacobian, flattened step-major as (flow_left, flow_right,
    rpm_left, rpm_right) per step."""
    _, e, S, _ = predictor.cost_residual_jacobian(controls, np.ones(np.shape(controls)))
    return 2.0 * (S.T @ e)


def central_difference_gradient(predictor, controls, epsilon=1e-5):
    """Central-difference gradient of ``predictor.cost``, for verifying the
    analytic one.  Same layout as :func:`analytic_gradient`."""
    base = np.asarray(controls, dtype=float)
    flat = base.ravel()
    out = np.empty(flat.size)
    for idx in range(flat.size):
        bumped = flat.copy()
        bumped[idx] = flat[idx] + epsilon
        up = predictor.cost(bumped.reshape(base.shape))
        bumped[idx] = flat[idx] - epsilon
        down = predictor.cost(bumped.reshape(base.shape))
        out[idx] = (up - down) / (2.0 * epsilon)
    return out


def controls_in_boxes(constraints):
    """Controls anywhere in the actuator boxes, edges included."""
    return st.builds(SpreaderControls, *(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi))
                                         for lo, hi in zip(constraints.lower().tolist(),
                                                           constraints.upper().tolist())))


def chain_feasible(rows, previous, constraints):
    """Whether each row of the (H, 4) array ``rows`` meets the boxes and the
    pair rate limits from the row before it, starting at ``previous``."""
    anchor = previous
    for row in rows:
        controls = SpreaderControls.from_array(row)
        if not satisfies_constraints(controls, anchor, constraints):
            return False
        anchor = controls
    return True


def clamp_controls(controls, previous, constraints):
    """Project each component of ``controls`` onto its box intersected with
    the rate window around ``previous``.

    The projection is componentwise with the full rate limit per component,
    so it is idempotent but does not by itself bound the (left, right) pair
    norm; ``satisfies_constraints`` is the exact check.
    """
    u = controls.as_array()
    prev = previous.as_array()
    lo = np.maximum(constraints.lower(), prev - constraints.rates())
    hi = np.minimum(constraints.upper(), prev + constraints.rates())
    if np.any(lo > hi):
        raise CalibrationDomainError(
            f"previous control {previous} leaves no feasible window under {constraints}")
    return SpreaderControls.from_array(np.clip(u, lo, hi))


# -- loop-by-loop references of the solver's and kernel's per-call helpers ----
# The package computes these with fewer calls; each must give the same bits.

def unroll_reference(deltas, prev, lo, hi):
    """Running controls of a (H, 4) delta array, one ``np.clip`` per step."""
    controls = np.empty_like(deltas)
    current = prev
    for i in range(deltas.shape[0]):
        current = np.clip(current + deltas[i], lo, hi)
        controls[i] = current
    return controls


def clip_masks_reference(controls, deltas, prev):
    """1.0 where the unroll kept a step's control plus its delta."""
    return (controls == np.concatenate(([prev], controls[:-1])) + deltas).astype(float)


def fold_jacobian_reference(S, masks):
    """The fold of a matrix's columns through the unroll, one step at a
    time from the last, in place in ``S``."""
    h = masks.shape[0]
    blocks = S.reshape(S.shape[0], h, 4)
    for i in reversed(range(h)):
        if i + 1 < h:
            blocks[:, i] += blocks[:, i + 1]
        if not masks[i].all():
            blocks[:, i] *= masks[i]
    return S


def normal_equations_reference(S, e, masks):
    """Gauss-Newton matrix and gradient from one stacked fold and one fold
    of its transpose."""
    folded = fold_jacobian_reference(np.concatenate((S.T @ S, [2.0 * (S.T @ e)])), masks)
    return fold_jacobian_reference(folded[:-1].T, masks), folded[-1]


def field_order_prediction(predictor, controls):
    """A one-pose prediction over every cell, in field order: the applied
    map copied, each disc's deposit on its band scattered in disc order, the
    prescription subtracted and the squares summed.  Returns that cost, the
    residual and the Jacobian with a row per cell (columns in control
    order, every column built), and each disc's band cells.
    ``predictor.geometry[0]`` must reach both bands."""
    values = np.asarray(controls, dtype=float).reshape(4).tolist()
    cal, model, support = predictor.cal, predictor.model, predictor.support
    amount = predictor.applied.copy()
    S = np.zeros((predictor.n_cells, 4))
    bands = []
    for flow_col, rpm_col, side, sign in _DISC_COLUMNS:
        rpm = values[rpm_col]
        params = pattern_from_controls(rpm, values[flow_col], cal, side)
        _, cells, dist, angle, scale = band(
            predictor.geometry[0], *band_bounds(params, model, support, predictor.scaling))
        amount[cells] += disc_deposit(dist, angle, scale, params, model, support)
        unit, d_dist, d_sd, d_angle, d_sa = disc_deposit_partials(dist, angle, scale, params,
                                                                  model, support)
        S[cells, flow_col] = unit
        S[cells, rpm_col] = (d_dist * cal.distance_slope(rpm)
                             + d_sd * cal.sigma_distance_slope(rpm)
                             + d_angle * (sign * cal.angle_slope(rpm))
                             + d_sa * cal.sigma_angle_slope(rpm))
        bands.append(cells)
    e = amount - predictor.target
    return float(e @ e), e, S, bands


def normal_factor_reference(offset, sigma):
    """``exp(-0.5 * (offset / sigma) ** 2) / (sqrt(2 pi) sigma)`` for one
    axis, in a new array."""
    out = np.divide(offset, sigma, out=np.empty(np.shape(offset)))
    out *= out
    out *= -0.5
    np.exp(out, out=out)
    out /= math.sqrt(2.0 * math.pi) * sigma
    return out


def pattern_domain_error_reference(mass_flow, center_distance, sigma_distance, center_angle,
                                   sigma_angle):
    """The message of the ``CalibrationDomainError`` that a pattern with
    these parameters raises, or None if it is valid."""
    values = (mass_flow, center_distance, sigma_distance, center_angle, sigma_angle)
    if not all(math.isfinite(v) for v in values):
        text = ", ".join(f"{name}={value!r}" for name, value in zip(
            ("mass_flow", "center_distance", "sigma_distance", "center_angle", "sigma_angle"),
            values))
        return f"pattern parameters must be finite: PatternParams({text})"
    if mass_flow < 0:
        return f"mass flow must be non-negative, got {mass_flow}"
    if center_distance <= 0:
        return f"pattern center distance must be positive, got {center_distance}"
    if sigma_distance <= 0:
        return f"radial spread must be positive, got {sigma_distance}"
    if sigma_angle <= 0:
        return f"angular spread must be positive, got {sigma_angle}"
    if not -math.pi < center_angle < math.pi:
        return f"pattern center angle must lie in (-pi, pi), got {center_angle}"
    return None
