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
evaluation.  A solve stops without searching at all when the Gauss-Newton
model promises less than the line search's acceptance threshold over the
deltas that may move (the predicted-reduction test of Levenberg-Marquardt
methods).

The greedy controller is the single-step special case with the full
deposition model; the model-predictive controllers look several steps
ahead with either the full model or the triangle surrogate.  The plant
is always simulated with the full model regardless of what a controller
believes.

The residual and Jacobian the solver reads have rows only on the cells
of the discs' bands (:class:`_Predictor`), and each iteration forms its
4H x 4H normal equations from that Jacobian's Gram matrix, so no iteration
fills, folds or multiplies a Jacobian with a row for every cell.  Sums over
fewer rows round differently from the dense ones, so Gauss-Newton steps
agree with dense evaluation to rounding, not bitwise.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import (CalibrationModel, ControlConstraints, SpreaderControls,
                          pattern_from_controls)
from .errors import ConfigurationError, NumericalFailureError, ShapeError
from .field import FieldGrid, as_amount_map
from .spread import (BandGeometry, DepositScaling, DepositionModel, PatternParams,
                     TriangleSupport, _reach, band, band_bounds, by_distance,
                     deposit_from_factors, disc_deposit_partials, disc_factors,
                     flow_partial, pose_geometry, reach_box)

_log = logging.getLogger("spreadopt.optimizer")

# control-vector component order used throughout: flow_left, flow_right,
# rpm_left, rpm_right; (flow column, rpm column, side, sign of the center
# angle) per disc
_DISC_COLUMNS = ((0, 2, "left", -1.0), (1, 3, "right", 1.0))


class ControllerKind(str, enum.Enum):
    GREEDY = "greedy"
    MPC_TRIANGLE = "mpc-triangle"
    MPC_FULL = "mpc-full"


@dataclass(frozen=True)
class OptimizerSettings:
    """Tuning knobs of the schedule optimizer.

    ``gradient_tolerance`` bounds the infinity norm of the projected
    gradient at which iteration stops; ``step_tolerance`` the relative
    change of the delta iterate.  ``finite_diff_epsilon`` is validated
    but read by nothing: the solver uses the analytic gradient only.
    ``restarts`` adds that many random feasible starting points on top of
    the warm start (off by default; runs stay deterministic for a fixed
    non-negative integer ``seed``).
    """

    max_iterations: int = 60
    gradient_tolerance: float = 1e-6
    step_tolerance: float = 1e-10
    finite_diff_epsilon: float = 1e-5
    gauss_newton: bool = True
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be a positive integer, got {self.max_iterations!r}")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        for name in ("gradient_tolerance", "step_tolerance", "finite_diff_epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))


class _Predictor:
    """Shared forward model: deposits a schedule over fixed poses and
    accumulates onto a starting map.

    Geometry depends only on the poses, so it is computed once per
    instance, through a cache keyed by pose: the controller's, kept over a
    run, or a private one.  Each pose's entry is a
    :class:`spread.BandGeometry`: the distance, bearing, area scale and flat
    index of the cells in the pose's reach box, the square of half-side
    ``radius`` around it, sorted by distance.  The
    controller passes the largest band radius of any speed in its actuator
    box (:func:`_reach_radius`); the default, an infinite radius, covers the
    whole grid.  A disc's radial band is one slice of that order, found by
    two binary searches (:func:`spread.band`); a band reaching past the box
    first grows the box to it (:meth:`_band`), so a band never depends on
    the box.  Its deposit and partials are computed on that slice only and
    scattered back to the cells.  Outside the band the normal model's
    deposit is at most ``spread.WINDOW_TOLERANCE`` per gram of flow (times
    the conservative area scale) and the triangle's is exactly zero.  The
    cost is summed over all ``n_cells`` cells of work arrays, the predicted
    map and its residual, that every evaluation fills in place; the
    residual and the Jacobian that the solver reads keep only the bands'
    rows.  One crescent covers a few percent of a large field, so the bands
    skip most of the kernel work.

    One record of the last evaluation is kept: the bits of its controls,
    its objective (its map and residual stay in the work arrays), and per
    disc its ``PatternParams``, band and radial and angular density
    factors.  :meth:`_evaluate` alone decides what to compute again.  At
    bitwise the record's controls it returns the record's objective and
    computes nothing.  In the solver that is every Jacobian: a solve's
    first is taken at the start that :func:`_optimize` has just evaluated
    (unless clipping its deltas moved it), every later one at the candidate
    the line search has just accepted, so a Jacobian adds only the partials
    and the chain rule through the calibration.  At other controls, each
    disc whose rpm is bitwise the record's keeps its band and factors, which
    depend only on the pose and the rpm, and its parameters too unless its
    flow changed; it only multiplies its deposit again.  Rpm repeats mostly
    because the unroll clips it at the actuator box.  Only the two factors
    are kept per disc, not the offsets or the deposit, so the record stays
    within a few band-sized arrays per disc.  Every reuse gives bitwise the
    results of evaluating afresh.
    """

    def __init__(self, grid: FieldGrid, poses, applied, prescribed,
                 model: DepositionModel, cal: CalibrationModel,
                 scaling: DepositScaling = DepositScaling.LITERAL,
                 support: TriangleSupport = TriangleSupport.UNIT,
                 geometry_cache: dict | None = None, radius: float = math.inf):
        if not poses:
            raise ShapeError("prediction needs at least one pose")
        applied = as_amount_map(applied, grid, name="applied map")
        prescribed = as_amount_map(prescribed, grid, name="prescription map")
        self.grid = grid
        self.model = DepositionModel(model)
        self.cal = cal
        self.scaling = DepositScaling(scaling)
        self.support = TriangleSupport(support)
        self.applied = applied.ravel()
        self.target = prescribed.ravel()
        self.n_cells = self.applied.size
        # work arrays: a fresh field-sized array per evaluation would be
        # returned to the kernel on free and fault its pages back in on every
        # allocation
        self._amount = np.empty(self.n_cells)
        self._residual = np.empty(self.n_cells)
        # the record of the last evaluation: its controls' bits and objective,
        # and each disc's parameters, band and density factors, step-major
        self._key = None
        self._value = None
        self._discs = [None] * (2 * len(poses))
        if len(poses) > 1:
            # _rows's marks and row positions over several poses
            self._marked = np.zeros(self.n_cells, dtype=bool)
            self._position = np.empty(self.n_cells, dtype=np.intp)
        self.poses = list(poses)
        self._cache = {} if geometry_cache is None else geometry_cache
        self.geometry = [self._pose_geometry(pose, radius) for pose in self.poses]

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
        inner, outer = band_bounds(params, self.model, self.support, self.scaling)
        if outer > self.geometry[i].radius:
            self.geometry[i] = self._pose_geometry(self.poses[i], outer)
        return band(self.geometry[i], inner, outer)

    def _rows(self, bands):
        """Cell index of each Jacobian row, one per cell of the union of the
        ``(window, cells)`` bands, and each band's rows among them."""
        if self.horizon == 1:
            # both windows are slices of the one pose's distance order: their
            # union is one slice of it, or two when they are apart
            order = self.geometry[0].cells
            (a1, b1), (a2, b2) = ((window.start, window.stop) for window, _ in bands)
            if max(a1, a2) <= min(b1, b2):
                lo = min(a1, a2)
                return order[lo:max(b1, b2)], [slice(a1 - lo, b1 - lo), slice(a2 - lo, b2 - lo)]
            return (np.concatenate([order[a1:b1], order[a2:b2]]),
                    [slice(0, b1 - a1), slice(b1 - a1, b1 - a1 + b2 - a2)])
        marked, position = self._marked, self._position
        for _, cells in bands:
            marked[cells] = True
        rows = np.flatnonzero(marked)
        marked[rows] = False
        position[rows] = np.arange(rows.size)
        # gathered one band at a time, as the caller scatters it
        return rows, (position[cells] for _, cells in bands)

    def cost(self, controls: np.ndarray) -> float:
        """Objective for a (H, 4) control array."""
        return self._evaluate(controls)

    def _evaluate(self, controls: np.ndarray) -> float:
        """Fill the predicted map and its residual at ``controls`` and return
        the objective, unless ``controls`` are bitwise the record's: then the
        record's objective, with its map and residual left as they are."""
        key = np.asarray(controls, dtype=np.float64).tobytes()
        if key == self._key:
            return self._value
        same = (np.frombuffer(key, np.int64) == np.frombuffer(self._key, np.int64)
                if self._key is not None else np.zeros(len(key) // 8, bool)).reshape(-1, 4)
        # the record matches no controls until this evaluation completes
        self._key = None
        amount = self._amount
        np.copyto(amount, self.applied)
        for k in range(len(self._discs)):
            i, disc = divmod(k, 2)
            flow_col, rpm_col, side, _ = _DISC_COLUMNS[disc]
            flow = float(controls[i, flow_col])
            if same[i, rpm_col]:
                params, band, factors = self._discs[k]
                if not same[i, flow_col]:
                    params = replace(params, mass_flow=flow)
            else:
                # the old factors are freed before the new ones are built
                self._discs[k] = None
                params = self._disc_params(flow, float(controls[i, rpm_col]), side)
                band = self._band(i, params)
                factors = disc_factors(band[2], band[3], params, self.model, self.support)
            amount[band[1]] += deposit_from_factors(flow, factors, band[4])
            self._discs[k] = (params, band, factors)
        e = np.subtract(amount, self.target, out=self._residual)
        value = float(e @ e)
        if not math.isfinite(value):
            raise NumericalFailureError(f"predicted cost is not finite for controls {controls!r}")
        self._value, self._key = value, key
        return value

    def cost_residual_jacobian(self, controls: np.ndarray, masks: np.ndarray | None = None):
        """Objective, then the residual and its Jacobian with respect to
        every control entry (columns step-major in component order) on the
        union of the discs' bands, and the cell index of each of their rows.
        Every other row of the Jacobian is zero.

        ``masks`` are the clip masks of the unroll that gave ``controls``
        (:func:`_clip_masks`).  The fold multiplies an rpm column whose mask
        is zero by zero, so that column is left zero: its partials and chain
        rule are not built, and the normal equations differ from those of a
        full build only in the sign of a zero.  Without masks every column
        is built."""
        value = self._evaluate(controls)
        rows, band_rows = self._rows([band[:2] for _, band, _ in self._discs])
        S = np.zeros((rows.size, 4 * self.horizon))
        for k, at in enumerate(band_rows):
            i, disc = divmod(k, 2)
            flow_col, rpm_col, _, sign = _DISC_COLUMNS[disc]
            if masks is None or masks[i, rpm_col]:
                self._disc_columns(S, at, 4 * i + flow_col, 4 * i + rpm_col, sign,
                                   float(controls[i, rpm_col]), *self._discs[k])
            else:
                _, band, factors = self._discs[k]
                S[at, 4 * i + flow_col] = flow_partial(factors, band[4])
        return value, self._residual[rows], S, rows

    def _disc_columns(self, S, at, flow_j, rpm_j, sign, rpm, params, band, factors):
        """Write one disc's flow and rpm columns into rows ``at`` of ``S``.
        A call of its own, so that one disc's partials are freed before the
        next disc's."""
        _, _, dist, angle, scale = band
        unit, d_dist, d_sd, d_angle, d_sa = disc_deposit_partials(
            dist, angle, scale, params, self.model, self.support, factors)
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


# speeds at which _reach_radius samples the actuator box's rpm range
_RADIUS_SAMPLES = 33


def _reach_radius(cal: CalibrationModel, model: DepositionModel, support: TriangleSupport,
                  constraints: ControlConstraints) -> float:
    """Largest outer band distance of a disc (``spread.band_bounds``) over
    the actuator box's rpm range, sampled at evenly spaced speeds from
    ``rpm_min`` to ``rpm_max``; speeds outside the calibration's domain are
    skipped.  It only sizes each pose's reach box: a band reaching further,
    from a speed between the samples, grows the box (``_Predictor._band``)."""
    radius = 0.0
    for rpm in np.linspace(constraints.rpm_min, constraints.rpm_max, _RADIUS_SAMPLES).tolist():
        sd, sa = cal.sigma_distance(rpm), cal.sigma_angle(rpm)
        if sd > 0.0 and sa > 0.0:
            radius = max(radius, cal.distance(rpm) + _reach(sd, sa, model, support))
    return radius


def _unroll(deltas: np.ndarray, prev: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Running controls for a (H, 4) delta array, clipped to the actuator
    boxes step by step."""
    controls = np.empty_like(deltas)
    current = prev
    for i in range(deltas.shape[0]):
        current = np.clip(current + deltas[i], lo, hi)
        controls[i] = current
    return controls


def _clip_masks(controls: np.ndarray, deltas: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Clip masks of an unroll: 1.0 where :func:`_unroll` kept a step's
    control plus its delta, 0.0 where it clipped that sum to a box."""
    return (controls == np.concatenate(([prev], controls[:-1])) + deltas).astype(float)


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
    for i in reversed(range(h)):
        if i + 1 < h:
            blocks[:, i] += blocks[:, i + 1]
        if not masks[i].all():
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
    folded = _fold_jacobian(np.concatenate((S.T @ S, [2.0 * (S.T @ e)])), masks)
    return _fold_jacobian(folded[:-1].T, masks), folded[-1]


def _solve_deltas(predictor: _Predictor, prev: np.ndarray, x0: np.ndarray,
                  constraints: ControlConstraints, settings: OptimizerSettings):
    """Minimize the predicted cost over delta space from one start.

    Returns ``(controls, cost, iterations)``.  Every accepted step lowers
    the cost, so the last iterate is the best one.
    """
    lo = constraints.lower()
    hi = constraints.upper()
    rbox = constraints.rates() / math.sqrt(2.0)
    h = predictor.horizon

    x = np.clip(x0, -rbox, rbox)
    controls = _unroll(x, prev, lo, hi)
    lam = 1e-8
    min_gain = 1e-12

    def line_search(direction, alpha, tries):
        """First halving of ``alpha`` whose projected step decreases the cost."""
        for _ in range(tries):
            candidate = np.clip(x + alpha * direction, -rbox, rbox)
            cand_controls = _unroll(candidate, prev, lo, hi)
            cand_cost = predictor.cost(cand_controls)
            if cand_cost < cost - threshold:
                return candidate, cand_controls, cand_cost
            alpha *= 0.5
        return None

    iteration = 0
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
        projected = x - np.clip(x - grad_x, -rbox, rbox)
        pg_norm = float(np.abs(projected).max())
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("iter %d cost %.6e pg %.3e lam %.1e", iteration, cost, pg_norm, lam)
        if pg_norm <= settings.gradient_tolerance:
            break

        # the model's largest reduction over the deltas that may move:
        # below the line search's acceptance threshold, no step passes it
        threshold = min_gain * max(1.0, cost)
        at_lo, at_hi = x <= -rbox, x >= rbox
        free = ~((at_lo & (grad_x > 0)) | (at_hi & (grad_x < 0))).ravel()
        gain = 0.0
        if free.any():
            rhs_f, diagonal = rhs[free], M.diagonal()[free]
            floor = 1e-12 * (diagonal.mean() + 1e-12)
            # r^T A^-1 r >= |r|^2 / trace(A) for positive definite A: solve
            # only when that bound does not clear the threshold
            gain = float(rhs_f @ rhs_f) / (diagonal.sum() + floor * rhs_f.size)
            if gain < threshold:
                M_ff = M[np.ix_(free, free)]
                M_ff.flat[::rhs_f.size + 1] += floor
                try:
                    gain = float(rhs_f @ np.linalg.solve(M_ff, rhs_f))
                except np.linalg.LinAlgError:
                    gain = math.inf
        if gain < threshold:
            _log.debug("stop: model gain %.3e below the acceptance threshold", gain)
            break

        accepted = None
        if settings.gauss_newton:
            M.flat[::M.shape[0] + 1] += lam * (np.trace(M) / M.shape[0] + 1e-12)
            try:
                direction = np.linalg.solve(M, rhs).reshape(h, 4)
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None:
                # slope of alpha -> clip(x + alpha d) at 0+: components pushing
                # against an active rbox bound do not move
                blocked = (at_lo & (direction < 0)) | (at_hi & (direction > 0))
                slope = float(np.vdot(grad_x, np.where(blocked, 0.0, direction)))
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
        new_x, controls, cost = accepted
        moved = float(np.abs(new_x - x).max())
        x = new_x
        if moved <= settings.step_tolerance * (1.0 + float(np.abs(x).max())):
            break
    return controls, cost, iteration


def _optimize(predictor: _Predictor, prev: np.ndarray, start: np.ndarray,
              constraints: ControlConstraints, settings: OptimizerSettings):
    """Solve from the (H, 4) control schedule ``start``, then from
    ``settings.restarts`` random delta starts, and return the best
    ``(controls, cost)``: ``start`` itself unless a solve improved on it.

    ``start`` may hold deltas beyond the ``rate/sqrt(2)`` box the solver
    searches in; its first solve then begins from the clipped deltas, a
    different and possibly worse schedule.
    """
    rbox = constraints.rates() / math.sqrt(2.0)
    starts = [np.diff(np.vstack([prev, start]), axis=0)]
    best_controls, best_cost = start, predictor.cost(start)
    if settings.restarts:
        # the first default_rng() of a process adds about 1 MB of resident memory
        rng = np.random.default_rng(settings.seed)
        starts += [rng.uniform(-rbox, rbox, size=(predictor.horizon, 4))
                   for _ in range(settings.restarts)]
    for x0 in starts:
        controls, cost, _ = _solve_deltas(predictor, prev, x0, constraints, settings)
        if cost < best_cost:
            best_controls, best_cost = controls, cost
    return best_controls, best_cost


class RecedingHorizonController:
    """Stateful receding-horizon controller.

    Each call optimizes the actuator schedule over the remaining horizon
    poses, applies the first step, and keeps the rest (shifted, last step
    repeated) as the next call's warm start.  The first call warm-starts
    from holding the previously applied control.
    """

    def __init__(self, model: DepositionModel, horizon: int, cal: CalibrationModel,
                 constraints: ControlConstraints, settings: OptimizerSettings,
                 scaling: DepositScaling = DepositScaling.LITERAL,
                 support: TriangleSupport = TriangleSupport.UNIT):
        if int(horizon) != horizon or horizon < 1:
            raise ConfigurationError(f"horizon must be a positive integer, got {horizon!r}")
        self.model = DepositionModel(model)
        self.horizon = int(horizon)
        self.cal = cal
        self.constraints = constraints
        self.settings = settings
        self.scaling = DepositScaling(scaling)
        self.support = TriangleSupport(support)
        self._warm: np.ndarray | None = None
        self._geometry_cache: dict = {}
        self._radius = _reach_radius(cal, self.model, self.support, constraints)

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
                               self.scaling, self.support, self._geometry_cache, self._radius)
        controls, _ = _optimize(predictor, prev, warm, self.constraints, self.settings)

        self._warm = controls
        return SpreaderControls.from_array(controls[0])


def make_controller(kind: ControllerKind, horizon: int, cal: CalibrationModel,
                    constraints: ControlConstraints, settings: OptimizerSettings,
                    scaling: DepositScaling = DepositScaling.LITERAL,
                    support: TriangleSupport = TriangleSupport.UNIT) -> RecedingHorizonController:
    """Build a controller by kind.  The greedy kind is the single-step
    full-model controller regardless of the requested horizon."""
    kind = ControllerKind(kind)
    if kind is ControllerKind.GREEDY:
        return RecedingHorizonController(DepositionModel.FULL_NORMAL, 1, cal, constraints,
                                         settings, scaling, support)
    model = (DepositionModel.TRIANGLE if kind is ControllerKind.MPC_TRIANGLE
             else DepositionModel.FULL_NORMAL)
    return RecedingHorizonController(model, horizon, cal, constraints, settings,
                                     scaling, support)
