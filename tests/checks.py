"""Reference computations the tests hold the predictor and solver to, and
the strategy that draws their starting controls."""

import numpy as np
from hypothesis import strategies as st

from spreadopt import SpreaderControls, satisfies_constraints


def analytic_gradient(predictor, controls):
    """Gradient of ``predictor.cost`` at the (H, 4) array ``controls`` from
    the residual Jacobian, flattened step-major as (flow_left, flow_right,
    rpm_left, rpm_right) per step."""
    _, e, S, _ = predictor.cost_residual_jacobian(controls)
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
