"""Receding-horizon controllers for the spreader.

All controllers minimize the same objective: the predicted sum of squared
per-cell deviations from the prescription after depositing over a short
horizon of known future poses.  The decision variables are the per-step
actuator commands (per-disc mass flow and RPM).

The optimizer works in per-step delta coordinates.  Each delta component
is boxed to ``rate / sqrt(2)`` so any pair of simultaneous left/right
changes respects the Euclidean rate limit exactly, and the running
control is clipped to the actuator boxes while unrolling.  Deltas make
the feasible set a plain box, so projection is a componentwise clip.
Steps are chosen by a Gauss-Newton direction on the least-squares
structure (with a small Levenberg floor) and fall back to projected
gradient descent, both under a backtracking line search that only ever
accepts a decrease, so the result never predicts worse than the initial
schedule.  A Gauss-Newton direction is searched only if the projected
path ``alpha -> clip(x + alpha d)`` descends at its start, that is, if the
gradient's product with the direction, less the components pushing
against an active delta bound, is negative.  Clipping often makes the
direction non-descent (Bertsekas, projected Newton, 1982); such a
direction is treated as a failed search without spending a cost
evaluation.  A solve has one convergence test, the predicted-reduction test
of Levenberg-Marquardt methods: it stops without searching at all when the
Gauss-Newton model promises less than ``sqrt(eps) max(1, cost)`` over the
deltas that may move (:data:`STOP_GAIN`: the relative reduction at which
MINPACK's ``ftol`` stops, below which a step refines only digits that
rounding already blurs).  Otherwise it ends when neither search lowers the
cost, or at ``max_iterations``.  The line search accepts any decrease above
``1e-12 max(1, cost)`` (:data:`ACCEPT_GAIN`), far below the stop: at the
stop's value it rejected the short steps of capped MPC solves, which then
spent twice the cost evaluations.

The greedy controller is the one-step case of the same solver, its
unroll and its fold included, with the full deposition model; the
model-predictive controllers look several steps ahead with either the
full model or the triangle surrogate.  The plant is always simulated with
the full model regardless of what a controller believes.

The residual and Jacobian the solver reads have rows only on the cells
of the discs' bands (:class:`_Predictor`), and each iteration forms its
4H x 4H normal equations from that Jacobian's Gram matrix, so no iteration
fills, folds or multiplies a Jacobian with a row for every cell.  Sums over
fewer rows round differently from the dense ones, so Gauss-Newton steps
agree with dense evaluation to rounding, not bitwise.  Every prediction
works on its decision's cells, gathered once per decision: each evaluation
fills one work array in place on the span its discs can change and adds the
change of that span's squares to the field's base cost, so no evaluation
reads the field.
"""

from __future__ import annotations

import enum
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .calibration import (CalibrationModel, ControlConstraints, SpreaderControls,
                          pattern_from_controls, pattern_range)
from .errors import ConfigurationError, NumericalFailureError, ShapeError, checked_integer
from .field import FieldGrid, as_amount_map
from .spread import (BandGeometry, DepositScaling, DepositionModel, PatternParams, _reach,
                     band, band_bounds, by_distance, deposit_from_factors,
                     disc_deposit_partials, disc_factors, pose_geometry, reach_box)

_log = logging.getLogger("spreadopt.optimizer")

# control-vector component order used throughout: flow_left, flow_right,
# rpm_left, rpm_right; (flow column, rpm column, side, sign of the center
# angle) per disc
_DISC_COLUMNS = ((0, 2, "left", -1.0), (1, 3, "right", 1.0))


class ControllerKind(str, enum.Enum):
    GREEDY = "greedy"
    MPC_TRIANGLE = "mpc-triangle"
    MPC_FULL = "mpc-full"


# a solve stops when the Gauss-Newton model promises a relative gain below
# STOP_GAIN; the line search accepts a relative decrease above ACCEPT_GAIN
STOP_GAIN = math.sqrt(sys.float_info.epsilon)
ACCEPT_GAIN = 1e-12

# the optimizer keys that nothing reads, and the one value each accepts
_PINNED = {"gradient_tolerance": 1e-6, "step_tolerance": 1e-10, "finite_diff_epsilon": 1e-5,
           "gauss_newton": True, "restarts": 0, "seed": 0}


@dataclass(frozen=True)
class OptimizerSettings:
    """Tuning knobs of the schedule optimizer.

    ``max_iterations`` caps the iterations of one solve, a safeguard
    behind :func:`_solve_deltas`'s convergence test.  The other keys, those
    of :data:`_PINNED`, are read by nothing: each accepts only its shipped
    value until it is removed.
    """

    max_iterations: int = 60
    gradient_tolerance: float = 1e-6
    step_tolerance: float = 1e-10
    finite_diff_epsilon: float = 1e-5
    gauss_newton: bool = True
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "max_iterations",
                           checked_integer("max_iterations", self.max_iterations))
        for name, shipped in _PINNED.items():
            value = getattr(self, name)
            if value != shipped:
                raise ConfigurationError(
                    f"{name} accepts only its shipped value {shipped!r}, got {value!r}")
            object.__setattr__(self, name, shipped)


class _Predictor:
    """Shared forward model: deposits a schedule over fixed poses and
    accumulates onto a starting map.

    Geometry depends only on the poses, so it is computed once per
    instance, through a cache keyed by pose: the controller's, kept over a
    run, or a private one.  Each pose's entry is a
    :class:`spread.BandGeometry`: the distance, bearing, area scale and flat
    index of the cells in the pose's reach box, the square of half-side
    ``radius`` around it, sorted by distance.  The controller passes an
    upper bound on the band radius of every speed in its actuator box
    (:func:`_reach_radius`); the default, an infinite radius, covers the
    whole grid.  A disc's radial band is one slice of that order, found by
    two binary searches (:func:`spread.band`); a band reaching past the box
    first grows the box to it (:meth:`_band`), so a band never depends on
    the box.  Its deposit and partials are computed on that slice only and
    scattered back to the cells.  Outside the band the normal model's
    deposit is at most ``spread.WINDOW_TOLERANCE`` per gram of flow (times
    the conservative area scale) and the triangle's is exactly zero.  The
    residual and the Jacobian that the solver reads keep only the rows that
    span the bands (:meth:`_rows`).  One crescent covers a few percent of a
    large field, so the bands skip most of the kernel work.

    Each evaluation fills one work array in place with the residual on a
    span of it: the applied amounts, plus the discs' deposits in disc order,
    less the prescription.  It returns ``c0 + (e . e - r0 . r0)`` over the
    span: the base cost ``c0``, summed over the field once per predictor,
    plus the change of the span's squares from ``r0``, the residual without
    deposits.  The work array holds the decision's cells, and the applied
    map, the prescription and ``r0`` are gathered on them once per geometry
    (:meth:`_gather`).  One pose's cells are its distance order, where its two
    windows are slices and the span is the slice from the first start to the
    last stop.  Several poses' are the union of their boxes in field order,
    the span every cell of it, and each pose keeps the work-array position of
    each of its cells, so a disc's positions are a view of that map.  Every
    residual entry is bitwise the dense one; only the cost's summation order
    differs, by rounding.

    One record of the last evaluation is kept: the bits of its controls,
    its objective (its residual stays in the work array), and per
    disc its ``PatternParams``, band and radial and angular density
    factors.  :meth:`_evaluate` alone decides what to compute again.  At
    bitwise the record's controls it returns the record's objective and
    computes nothing.  In the solver that is every Jacobian: a solve's
    first is taken at the start that :func:`_solve_deltas` has just
    evaluated (unless clipping its deltas moved it), every later one at the
    candidate the line search has just accepted, so a Jacobian adds only
    the partials and the chain rule through the calibration.  At other
    controls, each disc whose rpm is bitwise the record's keeps its band and
    factors, which depend only on the pose and the rpm, and only multiplies
    its deposit again.  Rpm repeats mostly because the unroll clips it at
    the actuator box.  Only the two factors are kept per disc, not the
    offsets or the deposit, so the record stays within a few band-sized
    arrays per disc.  Every reuse gives bitwise the
    results of evaluating afresh.
    """

    def __init__(self, grid: FieldGrid, poses, applied, prescribed,
                 model: DepositionModel, cal: CalibrationModel,
                 scaling: DepositScaling = DepositScaling.LITERAL,
                 geometry_cache: dict | None = None, radius: float = math.inf):
        if not poses:
            raise ShapeError("prediction needs at least one pose")
        applied = as_amount_map(applied, grid, name="applied map")
        prescribed = as_amount_map(prescribed, grid, name="prescription map")
        self.grid = grid
        self.model = DepositionModel(model)
        self.cal = cal
        self.scaling = DepositScaling(scaling)
        self.applied = applied.ravel()
        self.target = prescribed.ravel()
        # the record of the last evaluation: its controls' bits and objective,
        # and each disc's parameters, band and density factors, step-major
        self._key = None
        self._value = None
        self._discs = [None] * (2 * len(poses))
        # per disc, step-major as the record: its step, the flat indices of
        # its flow and rpm entries, its side and the sign of its center angle
        self._layout = [(i, 4 * i + flow_col, 4 * i + rpm_col, side, sign)
                        for i in range(len(poses))
                        for flow_col, rpm_col, side, sign in _DISC_COLUMNS]
        self.poses = list(poses)
        self._cache = {} if geometry_cache is None else geometry_cache
        self.geometry = [self._pose_geometry(pose, radius) for pose in self.poses]
        # the base cost of every cell: the one pass over the field
        r0 = self.applied - self.target
        self._base_cost = float(r0 @ r0)
        self._gather()

    @property
    def horizon(self) -> int:
        return len(self.geometry)

    def _pose_geometry(self, pose, radius: float) -> BandGeometry:
        """The cached geometry of a pose if it covers ``radius``, else a new
        one over the pose's reach box."""
        key = (pose.x, pose.y, pose.heading)
        entry = self._cache.get(key)
        if entry is None or entry.radius < radius:
            cells, cx, cy = reach_box(self.grid, pose.x, pose.y, radius)
            dist, angle = pose_geometry(cx, cy, pose.x, pose.y, pose.heading)
            entry = self._cache[key] = by_distance(self.grid, cells, dist, angle, radius,
                                                   self.scaling)
        return entry

    def _disc_params(self, flow: float, rpm: float, side: str):
        return pattern_from_controls(rpm, flow, self.cal, side)

    def _band(self, i: int, params: PatternParams):
        """One disc's window of pose ``i``'s geometry, and the cell indices,
        distance, bearing and area scale on it."""
        inner, outer = band_bounds(params, self.model, self.scaling)
        if outer > self.geometry[i].radius:
            self.geometry[i] = self._pose_geometry(self.poses[i], outer)
            self._gather()
        return band(self.geometry[i], inner, outer)

    def _gather(self):
        """The decision's cells, the applied map, the prescription and their
        difference on them, the work array its evaluations fill, and for
        several poses each pose's map from its distance order to the work
        array."""
        orders = [geometry.cells for geometry in self.geometry]
        if len(orders) == 1:
            cells, self._where = orders[0], None
        else:
            # marked on the field, once per geometry: sorting and searching
            # the boxes' cells took 40 times as long on the shipped field
            cells, where = _union(orders, self.applied.size)
            self._where = list(where)
        applied, target = self.applied[cells], self.target[cells]
        self._cells, self._near = cells, (applied, target, applied - target)
        self._work = np.empty(cells.size)

    def _positions(self):
        """The span of the work array that the discs can change, and each
        disc's positions in the work array: one pose's windows and the slice
        that spans them, or several poses' mapped windows and every cell."""
        windows = [band[0] for _, band, _ in self._discs]
        if self._where is None:
            return slice(min(w.start for w in windows), max(w.stop for w in windows)), windows
        return slice(None), [self._where[i][w] for (i, *_), w in zip(self._layout, windows)]

    def _rows(self):
        """Cell index of each Jacobian row, each disc's rows among them, and
        where the work array holds the residual on those rows.  One pose's
        rows are its span, several poses' the union of their bands."""
        span, positions = self._positions()
        if self._where is None:
            # rows between windows that are apart are zero, with the true
            # residual
            return (self._cells[span],
                    [slice(w.start - span.start, w.stop - span.start) for w in positions], span)
        held, rows = _union(positions, self._work.size)
        return self._cells[held], rows, held

    def cost(self, controls: np.ndarray) -> float:
        """Objective for a (H, 4) control array."""
        return self._evaluate(controls)

    def _fill_cost(self, values) -> float:
        """Fill the residual on the span of the work array the discs can
        change (:meth:`_positions`), with the record's deposits at the flows
        in ``values``, and add the change of its squares' sum to the base
        cost."""
        span, positions = self._positions()
        applied, target, r0 = self._near
        work = self._work
        np.copyto(work[span], applied[span])
        for (_, flow_j, _, _, _), at, (_, band, factors) in zip(self._layout, positions,
                                                                self._discs):
            work[at] += deposit_from_factors(values[flow_j], factors, band[4])
        e = work[span]
        e -= target[span]
        r0 = r0[span]
        return self._base_cost + (float(e @ e) - float(r0 @ r0))

    def _evaluate(self, controls: np.ndarray) -> float:
        """Fill the residual at ``controls`` and return the objective, unless
        ``controls`` are bitwise the record's: then the record's objective,
        with its residual left as it is."""
        controls = np.asarray(controls, dtype=np.float64)
        key = controls.tobytes()
        if key == self._key:
            return self._value
        same = ((np.frombuffer(key, np.int64) == np.frombuffer(self._key, np.int64)).tolist()
                if self._key is not None else [False] * controls.size)
        values = controls.ravel().tolist()
        # the record matches no controls until this evaluation completes
        self._key = None
        for k, (i, flow_j, rpm_j, side, _) in enumerate(self._layout):
            flow = values[flow_j]
            if same[rpm_j]:
                params, band, factors = self._discs[k]
                if not same[flow_j]:
                    params = self._disc_params(flow, values[rpm_j], side)
            else:
                # the old factors are freed before the new ones are built
                self._discs[k] = None
                params = self._disc_params(flow, values[rpm_j], side)
                band = self._band(i, params)
                factors = disc_factors(band[2], band[3], params, self.model)
            self._discs[k] = (params, band, factors)
        value = self._fill_cost(values)
        if not math.isfinite(value):
            raise NumericalFailureError(f"predicted cost is not finite for controls {controls!r}")
        self._value, self._key = value, key
        return value

    def cost_residual_jacobian(self, controls: np.ndarray, masks: np.ndarray):
        """Objective, then the residual and its Jacobian with respect to
        every control entry (columns step-major in component order) on the
        rows of :meth:`_rows`, and the cell index of each row.  Every other
        row of the Jacobian is zero.

        ``masks`` are the clip masks of the unroll that gave ``controls``
        (:func:`_clip_masks`).  The fold multiplies an rpm column whose mask
        is zero by zero, so that column is left zero: its partials and chain
        rule are not built, and the normal equations differ from those of a
        full build only in the sign of a zero.  A mask of ones builds every
        column."""
        controls = np.asarray(controls, dtype=np.float64)
        value = self._evaluate(controls)
        rows, band_rows, held = self._rows()
        S = np.zeros((rows.size, 4 * self.horizon))
        # building every rpm column took shipped mpc-full's controller time 19% up
        kept = masks.ravel().tolist()
        for (_, flow_j, rpm_j, _, sign), at, disc in zip(self._layout, band_rows, self._discs):
            if kept[rpm_j]:
                self._disc_columns(S, at, flow_j, rpm_j, sign, controls.item(rpm_j), *disc)
            else:
                _, band, factors = disc
                S[at, flow_j] = deposit_from_factors(1.0, factors, band[4])
        # gathered once the last disc's partials are freed: they and the
        # Jacobian are the solve's peak
        return value, np.array(self._work[held]), S, rows

    def _disc_columns(self, S, at, flow_j, rpm_j, sign, rpm, params, band, factors):
        """Write one disc's flow and rpm columns into rows ``at`` of ``S``.
        A call of its own, so that one disc's partials are freed before the
        next disc's."""
        _, _, dist, angle, scale = band
        unit, d_dist, d_sd, d_angle, d_sa = disc_deposit_partials(
            dist, angle, scale, params, self.model, factors)
        S[at, flow_j] = unit
        # the chain rule through the calibration, summed in place in the
        # order d_dist * a + d_sd * b + d_angle * c + d_sa * d rounds
        d_dist *= self.cal.distance_slope(rpm)
        d_sd *= self.cal.sigma_distance_slope(rpm)
        d_dist += d_sd
        d_angle *= sign * self.cal.angle_slope(rpm)
        d_dist += d_angle
        d_sa *= self.cal.sigma_angle_slope(rpm)
        d_dist += d_sa
        S[at, rpm_j] = d_dist


def _union(parts, size: int):
    """The sorted union of index arrays below ``size``, and each part's
    positions in it, gathered one part at a time as callers scatter them."""
    marked = np.zeros(size, dtype=bool)
    for part in parts:
        marked[part] = True
    union = np.flatnonzero(marked)
    position = np.empty(size, dtype=np.intp)
    position[union] = np.arange(union.size)
    return union, (position[part] for part in parts)


def _reach_radius(cal: CalibrationModel, model: DepositionModel,
                  constraints: ControlConstraints) -> float:
    """Upper bound on a disc's outer band distance (``spread.band_bounds``)
    over the actuator box's rpm range: the greatest center distance plus the
    reach of the greatest radial and the least angular spread, as a reach
    grows with the one (the normal one while its log term tops one half,
    which ``WINDOW_TOLERANCE`` ensures) and never with the other.  A spread
    out of its domain (unvalidated calibrations only) gives the whole grid."""
    box = constraints.rpm_min, constraints.rpm_max
    _, (distance, _) = pattern_range(cal.distance_coeffs, *box)
    (sd_least, _), (sd, _) = pattern_range(cal.sigma_distance_coeffs, *box)
    (sa, _), _ = pattern_range(cal.sigma_angle_coeffs, *box)
    in_domain = sd_least > 0.0 and sa > 0.0
    return distance + _reach(sd, sa, model) if in_domain else math.inf


def _unroll(deltas: np.ndarray, prev: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Running controls for a (H, 4) delta array, clipped to the actuator
    boxes step by step."""
    controls = np.empty_like(deltas)
    current = prev
    for delta, row in zip(deltas, controls):
        current = np.add(current, delta, out=row).clip(lo, hi, out=row)
    return controls


def _clip_masks(controls: np.ndarray, deltas: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Clip masks of an unroll: 1.0 where :func:`_unroll` kept a step's
    control plus its delta, 0.0 where it clipped that sum to a box."""
    before = np.concatenate(([prev], controls[:-1]))
    return (controls == before + deltas).astype(float)


def _fold_jacobian(S: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Chain a matrix's columns, one per control entry, back through the
    unroll to deltas.

    Overwrites ``S`` with ``S F``, where ``F`` is the Jacobian of the
    unrolled controls with respect to the deltas, and returns it.  From the
    last step back, each step's four columns become their own sum with the
    next step's folded columns, zeroed where that step's control was
    clipped.  Splitting the columns into steps is a view of any 2-D array,
    a transposed one included, so the fold always lands in ``S``.
    """
    h = masks.shape[0]
    blocks = S.reshape(S.shape[0], h, 4)
    blocks[:, h - 1] *= masks[h - 1]
    for i in reversed(range(h - 1)):
        blocks[:, i] += blocks[:, i + 1]
        blocks[:, i] *= masks[i]
    return S


def _normal_equations(S: np.ndarray, e: np.ndarray, masks: np.ndarray):
    """Gauss-Newton matrix ``M = Sxᵀ Sx`` and gradient ``2 Sxᵀ e`` of the
    delta Jacobian ``Sx = S F``.

    The fold is linear, so ``M = Fᵀ (SᵀS) F`` and ``Sxᵀ e = Fᵀ (Sᵀe)``: one
    fold of the Gram matrix stacked on the gradient row gives ``G F`` and
    the gradient, and a second fold, of ``(G F)ᵀ`` in place, gives ``M``.
    Both work on 4H columns and at most 4H + 1 rows, whatever the number of
    cells.
    """
    # folding S first took shipped mpc-full's controller time 41% up
    n = S.shape[1]
    stacked = np.empty((n + 1, n))
    np.matmul(S.T, S, out=stacked[:n])
    gradient = np.matmul(S.T, e, out=stacked[n])
    gradient *= 2.0
    folded = _fold_jacobian(stacked, masks)
    return _fold_jacobian(folded[:-1].T, masks), folded[-1]


def _solve_deltas(predictor: _Predictor, prev: np.ndarray, start: np.ndarray,
                  constraints: ControlConstraints, settings: OptimizerSettings):
    """Minimize the predicted cost over delta space from the (H, 4) control
    schedule ``start``.

    The solve ends when the Gauss-Newton model promises a gain below
    ``STOP_GAIN * max(1, cost)`` (its one convergence test), when neither
    the Gauss-Newton nor the gradient search lowers the cost, or after
    ``settings.max_iterations`` iterations.  The line search accepts any
    decrease above ``ACCEPT_GAIN * max(1, cost)``, a threshold kept far
    below the stop: at the stop's value, capped MPC solves rejected the
    short steps they live on and spent twice the cost evaluations.
    Returns ``(controls, cost, iterations)``: the last iterate, the solve's
    best since every accepted step lowers the cost, if it predicts below
    ``start``, else ``start`` and its cost.  ``start`` may hold deltas
    beyond the ``rate/sqrt(2)`` box the solver searches in; the solve then
    begins from the clipped deltas, a different and possibly worse schedule.
    """
    lo = constraints.lower()
    hi = constraints.upper()
    rbox = constraints.rates() / math.sqrt(2.0)
    low = -rbox
    h = predictor.horizon
    # each delta's bound, flat and step-major as the iterate
    bounds = rbox.tolist() * h

    def at_bounds(deltas):
        """Flat index of each delta on its bound, and whether it is the
        upper one: the box holds every iterate, so there ``x >= rbox`` is
        ``x > 0``."""
        return [(j, v > 0.0) for j, (v, r) in enumerate(zip(deltas.ravel().tolist(), bounds))
                if v <= -r or v >= r]

    start_cost = predictor.cost(start)
    x = np.clip(np.diff(np.vstack([prev, start]), axis=0), low, rbox)
    on_bound = at_bounds(x)
    controls = _unroll(x, prev, lo, hi)
    lam = 1e-8

    def line_search(direction, alpha, tries):
        """First halving of ``alpha`` whose projected step decreases the cost."""
        for _ in range(tries):
            candidate = (x + alpha * direction).clip(low, rbox)
            cand_controls = _unroll(candidate, prev, lo, hi)
            cand_cost = predictor.cost(cand_controls)
            if cand_cost < cost - ACCEPT_GAIN * max(1.0, cost):
                return candidate, cand_controls, cand_cost
            alpha *= 0.5
        return None

    for iteration in range(1, settings.max_iterations + 1):
        # only the accepted iterate's masks are read
        masks = _clip_masks(controls, x, prev)
        cost, e, S, _ = predictor.cost_residual_jacobian(controls, masks)
        M, grad = _normal_equations(S, e, masks)
        # not held through this iteration's cost evaluations and the next
        # Jacobian's
        del e, S
        grad_x = grad.reshape(h, 4)
        rhs = -0.5 * grad
        if _log.isEnabledFor(logging.DEBUG):
            pg_norm = float(abs(x - (x - grad_x).clip(low, rbox)).max())
            _log.debug("iter %d cost %.6e pg %.3e lam %.1e", iteration, cost, pg_norm, lam)

        # the model's largest reduction over the deltas that may move: below
        # sqrt(eps) of the cost, a step would only change digits that
        # rounding already blurs.  A delta on its bound is pinned if the
        # gradient pushes it outward.
        threshold = STOP_GAIN * max(1.0, cost)
        pinned = [j for j, upper in on_bound if (grad.item(j) < 0.0 if upper
                                                 else grad.item(j) > 0.0)]
        gain = 0.0
        if len(pinned) < rhs.size:
            if pinned:
                free = np.ones(rhs.size, dtype=bool)
                free[pinned] = False
                rhs_f, diagonal = rhs[free], M.diagonal()[free]
            else:
                rhs_f, diagonal = rhs, M.diagonal()
            diagonal_sum = float(diagonal.sum())
            floor = 1e-12 * (diagonal_sum / rhs_f.size + 1e-12)
            # r^T A^-1 r >= |r|^2 / trace(A) for positive definite A: solve
            # only when that bound does not clear the threshold (always solving
            # took large-field-greedy's controller time 12% up)
            gain = float(rhs_f @ rhs_f) / (diagonal_sum + floor * rhs_f.size)
            if gain < threshold:
                M_ff = M[np.ix_(free, free)] if pinned else M.copy()
                M_ff.flat[::rhs_f.size + 1] += floor
                try:
                    gain = float(rhs_f @ np.linalg.solve(M_ff, rhs_f))
                except np.linalg.LinAlgError:
                    gain = math.inf
        if gain < threshold:
            _log.debug("stop: model gain %.3e below the stop tolerance %.3e", gain, threshold)
            break

        accepted = None
        # with no delta pinned, the diagonal summed above is the trace
        trace = float(M.trace()) if pinned else diagonal_sum
        M.flat[::M.shape[0] + 1] += lam * (trace / M.shape[0] + 1e-12)
        try:
            direction = np.linalg.solve(M, rhs).reshape(h, 4)
        except np.linalg.LinAlgError:
            direction = None
        if direction is not None:
            # slope of alpha -> clip(x + alpha d) at 0+: components pushing
            # against an active rbox bound do not move
            blocked = [j for j, upper in on_bound
                       if (direction.item(j) > 0.0 if upper else direction.item(j) < 0.0)]
            moving = direction
            if blocked:
                moving = direction.copy()
                moving.ravel()[blocked] = 0.0
            slope = float(np.vdot(grad_x, moving))
            if slope >= 0:
                lam = min(lam * 100.0, 1e8)
                _log.debug("skip non-descent direction: slope %.3e lam %.1e", slope, lam)
            else:
                accepted = line_search(direction, 1.0, 10)
                lam = max(lam / 10.0, 1e-12) if accepted else min(lam * 100.0, 1e8)

        if accepted is None:
            scale = float(rbox.max()) / (float(np.abs(grad_x).max()) + 1e-300)
            accepted = line_search(-grad_x, scale, 14)

        if accepted is None:
            break
        x, controls, cost = accepted
        on_bound = at_bounds(x)
    if cost < start_cost:
        return controls, cost, iteration
    return start, start_cost, iteration


class RecedingHorizonController:
    """Stateful receding-horizon controller.

    Each call optimizes the actuator schedule over the remaining horizon
    poses, applies the first step, and keeps the rest (shifted, last step
    repeated) as the next call's warm start.  The first call warm-starts
    from holding the previously applied control.
    """

    def __init__(self, model: DepositionModel, horizon: int, cal: CalibrationModel,
                 constraints: ControlConstraints, settings: OptimizerSettings,
                 scaling: DepositScaling = DepositScaling.LITERAL):
        self.horizon = checked_integer("horizon", horizon)
        self.model = DepositionModel(model)
        self.cal = cal
        self.constraints = constraints
        self.settings = settings
        self.scaling = DepositScaling(scaling)
        self._warm: np.ndarray | None = None
        self._geometry_cache: dict = {}
        self._radius = _reach_radius(cal, self.model, constraints)

    def plan_controls(self, plan_tail, applied, prescribed, previous: SpreaderControls,
                      grid: FieldGrid) -> SpreaderControls:
        """Optimize over ``min(horizon, len(plan_tail))`` steps and return
        the first control to apply."""
        poses = list(plan_tail)[:self.horizon]
        if not poses:
            raise ShapeError("controller needs at least one future pose")
        h = len(poses)
        prev = previous.as_array()

        if self._warm is None:
            warm = np.tile(prev, (h, 1))
        else:
            # shift by one step and repeat the last entry to fill the horizon
            warm = np.vstack([self._warm[1:], np.tile(self._warm[-1], (h, 1))])[:h]

        # later calls only revisit this call's poses
        keys = {(pose.x, pose.y, pose.heading) for pose in poses}
        self._geometry_cache = {key: entry for key, entry in self._geometry_cache.items()
                                if key in keys}
        predictor = _Predictor(grid, poses, applied, prescribed, self.model, self.cal,
                               self.scaling, self._geometry_cache, self._radius)
        controls, _, _ = _solve_deltas(predictor, prev, warm, self.constraints, self.settings)

        self._warm = controls
        return SpreaderControls.from_array(controls[0])


def make_controller(kind: ControllerKind, horizon: int, cal: CalibrationModel,
                    constraints: ControlConstraints, settings: OptimizerSettings,
                    scaling: DepositScaling = DepositScaling.LITERAL) -> RecedingHorizonController:
    """Build a controller by kind.  The greedy kind is the single-step
    full-model controller regardless of the requested horizon."""
    kind = ControllerKind(kind)
    if kind is ControllerKind.GREEDY:
        return RecedingHorizonController(DepositionModel.FULL_NORMAL, 1, cal, constraints,
                                         settings, scaling)
    model = (DepositionModel.TRIANGLE if kind is ControllerKind.MPC_TRIANGLE
             else DepositionModel.FULL_NORMAL)
    return RecedingHorizonController(model, horizon, cal, constraints, settings, scaling)
