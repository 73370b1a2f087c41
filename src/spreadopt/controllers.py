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
evaluation.

The greedy controller is the single-step special case with the full
deposition model; the model-predictive controllers look several steps
ahead with either the full model or the triangle surrogate.  The plant
is always simulated with the full model regardless of what a controller
believes.

The predictor evaluates each disc only on its radial band of cells, the
cells whose distance from the vehicle lies within the pattern center
distance plus or minus a reach (``spread._reach``): the triangle
surrogate's exact support, or the offset at which the full model's
density per gram falls to ``spread.WINDOW_TOLERANCE`` (1e-32, about 12
sigma).  One crescent covers a few percent of a large field, so this
skips most of the kernel work.  Residual and Jacobian keep one row per
cell, with zeros outside the bands: dropping rows would change the
order in which BLAS sums them, and with it the rounding of every
Gauss-Newton step.  With both choices the shipped comparison writes
byte-identical outputs and the benchmark workloads end at bitwise-equal
costs compared with dense evaluation.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .calibration import (CalibrationModel, ControlConstraints, SpreaderControls,
                          pattern_from_controls)
from .errors import ConfigurationError, NumericalFailureError, ShapeError
from .field import FieldGrid, as_amount_map
from .spread import (DepositScaling, DepositionModel, PatternParams, TriangleSupport, _reach,
                     conservative_scale, disc_deposit_partials, pose_geometry)

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
    instance, optionally through a per-run cache keyed by pose.  Each
    pose's entry holds the cells' distance, bearing and area scale sorted
    by distance, plus the sort permutation (``np.intp``, so fancy indexing
    does not convert it).  A disc's radial band is then one contiguous
    slice, found by two binary searches (:meth:`_window`); its deposit and
    partials are computed on that slice only and scattered back to the
    cells through the permutation.  Outside the band the normal model's
    deposit is at most ``spread.WINDOW_TOLERANCE`` per gram of flow (times
    the conservative area scale) and the triangle's is exactly zero.  The
    cost residual and the Jacobian keep all ``n_cells`` rows.
    """

    def __init__(self, grid: FieldGrid, poses, applied, prescribed,
                 model: DepositionModel, cal: CalibrationModel,
                 scaling: DepositScaling = DepositScaling.LITERAL,
                 support: TriangleSupport = TriangleSupport.UNIT,
                 geometry_cache: dict | None = None):
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

        cx, cy = grid.center_mesh()
        self.geometry = []
        for pose in poses:
            key = (pose.x, pose.y, pose.heading)
            entry = None if geometry_cache is None else geometry_cache.get(key)
            if entry is None:
                dist, angle = pose_geometry(cx, cy, pose.x, pose.y, pose.heading)
                order = np.argsort(dist, axis=None)
                dist = dist.ravel()[order]
                angle = angle.ravel()[order]
                if self.scaling is DepositScaling.CONSERVATIVE:
                    scale = conservative_scale(dist, grid)
                else:
                    scale = 1.0
                entry = (dist, angle, scale, order)
                if geometry_cache is not None:
                    geometry_cache[key] = entry
            self.geometry.append(entry)

    @property
    def horizon(self) -> int:
        return len(self.geometry)

    def _disc_params(self, flow: float, rpm: float, side: str):
        return pattern_from_controls(rpm, flow, self.cal, side)

    def _window(self, dist: np.ndarray, params: PatternParams) -> slice:
        """Slice of the distance-sorted cells in one disc's radial band
        ``|dist - center_distance| <= reach``, starting at the vehicle under
        conservative scaling (its ``cell_area / r`` factor is unbounded
        there)."""
        reach = _reach(params.sigma_distance, params.sigma_angle, self.model, self.support)
        stop = int(dist.searchsorted(params.center_distance + reach, "right"))
        if self.scaling is DepositScaling.CONSERVATIVE:
            return slice(0, stop)
        return slice(int(dist.searchsorted(params.center_distance - reach)), stop)

    def _band(self, geometry, params: PatternParams):
        """Cell indices, distance, bearing and area scale on one disc's window."""
        dist, angle, scale, order = geometry
        window = self._window(dist, params)
        if isinstance(scale, np.ndarray):
            scale = scale[window]
        return order[window], dist[window], angle[window], scale

    def cost(self, controls: np.ndarray) -> float:
        """Objective for a (H, 4) control array."""
        from .spread import disc_deposit

        amount = self.applied.copy()
        for i, geometry in enumerate(self.geometry):
            for flow_col, rpm_col, side, _ in _DISC_COLUMNS:
                params = self._disc_params(controls[i, flow_col], controls[i, rpm_col], side)
                cells, dist, angle, scale = self._band(geometry, params)
                amount[cells] += disc_deposit(dist, angle, scale, params, self.model, self.support)
        return self._residual_cost(amount, controls)[0]

    def cost_residual_jacobian(self, controls: np.ndarray):
        """Objective, residual vector, and residual Jacobian with respect
        to every control entry (columns step-major in component order)."""
        h = self.horizon
        S = np.zeros((self.n_cells, 4 * h))
        amount = self.applied.copy()
        for i, geometry in enumerate(self.geometry):
            for flow_col, rpm_col, side, sign in _DISC_COLUMNS:
                rpm = float(controls[i, rpm_col])
                params = self._disc_params(float(controls[i, flow_col]), rpm, side)
                cells, dist, angle, scale = self._band(geometry, params)
                value, unit, d_dist, d_sd, d_angle, d_sa = disc_deposit_partials(
                    dist, angle, scale, params, self.model, self.support)
                amount[cells] += value
                S[cells, 4 * i + flow_col] = unit
                S[cells, 4 * i + rpm_col] = (
                    d_dist * self.cal.distance_slope(rpm)
                    + d_sd * self.cal.sigma_distance_slope(rpm)
                    + d_angle * sign * self.cal.angle_slope(rpm)
                    + d_sa * self.cal.sigma_angle_slope(rpm))
        value, e = self._residual_cost(amount, controls)
        return value, e, S

    def _residual_cost(self, amount: np.ndarray, controls: np.ndarray):
        e = amount - self.target
        value = float(e @ e)
        if not math.isfinite(value):
            raise NumericalFailureError(f"predicted cost is not finite for controls {controls!r}")
        return value, e


def _unroll(deltas: np.ndarray, prev: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Running controls and clip masks for a (H, 4) delta array."""
    controls = np.empty_like(deltas)
    masks = np.empty_like(deltas)
    current = prev
    for i in range(deltas.shape[0]):
        z = current + deltas[i]
        masks[i] = (z >= lo) & (z <= hi)
        current = np.clip(z, lo, hi)
        controls[i] = current
    return controls, masks


def _fold_gradient(grad_u: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Chain a per-control gradient back through the unroll to deltas."""
    out = np.empty_like(grad_u)
    carry = np.zeros(4)
    for i in reversed(range(grad_u.shape[0])):
        carry = masks[i] * (grad_u[i] + carry)
        out[i] = carry
    return out


def _fold_jacobian(S: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Chain the residual Jacobian back through the unroll to deltas.

    Overwrites ``S`` with the delta Jacobian and returns it.  From the last
    step back, each step's four columns become their own sum with the next
    step's folded columns, zeroed where that step's control was clipped.
    Folding in place keeps a Gauss-Newton iteration from mapping fresh
    field-sized arrays.
    """
    h = masks.shape[0]
    blocks = S.reshape(S.shape[0], h, 4)
    for i in reversed(range(h)):
        if i + 1 < h:
            blocks[:, i] += blocks[:, i + 1]
        if not masks[i].all():
            blocks[:, i] *= masks[i]
    return S


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
    controls, masks = _unroll(x, prev, lo, hi)
    lam = 1e-8
    min_gain = 1e-12

    def line_search(direction, alpha, tries):
        """First halving of ``alpha`` whose projected step decreases the cost."""
        for _ in range(tries):
            candidate = np.clip(x + alpha * direction, -rbox, rbox)
            cand_controls, cand_masks = _unroll(candidate, prev, lo, hi)
            cand_cost = predictor.cost(cand_controls)
            if cand_cost < cost - min_gain * max(1.0, cost):
                return candidate, cand_controls, cand_masks, cand_cost
            alpha *= 0.5
        return None

    iteration = 0
    for iteration in range(1, settings.max_iterations + 1):
        cost, e, S = predictor.cost_residual_jacobian(controls)
        grad_u = 2.0 * (S.T @ e)
        grad_x = _fold_gradient(grad_u.reshape(h, 4), masks)
        projected = x - np.clip(x - grad_x, -rbox, rbox)
        pg_norm = float(np.max(np.abs(projected)))
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("iter %d cost %.6e pg %.3e lam %.1e", iteration, cost, pg_norm, lam)
        if pg_norm <= settings.gradient_tolerance:
            break

        accepted = None
        if settings.gauss_newton:
            # the fold overwrites S: grad_u above must be taken first
            Sx = _fold_jacobian(S, masks)
            M = Sx.T @ Sx
            rhs = -(Sx.T @ e)
            ridge = lam * (np.trace(M) / M.shape[0] + 1e-12)
            M[np.diag_indices_from(M)] += ridge
            try:
                direction = np.linalg.solve(M, rhs).reshape(h, 4)
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None:
                # slope of alpha -> clip(x + alpha d) at 0+: components pushing
                # against an active rbox bound do not move
                blocked = ((x <= -rbox) & (direction < 0)) | ((x >= rbox) & (direction > 0))
                slope = float(np.vdot(grad_x, np.where(blocked, 0.0, direction)))
                if slope >= 0:
                    lam = min(lam * 100.0, 1e8)
                    _log.debug("skip non-descent direction: slope %.3e lam %.1e", slope, lam)
                else:
                    accepted = line_search(direction, 1.0, 10)
                    lam = max(lam / 10.0, 1e-12) if accepted else min(lam * 100.0, 1e8)

        if accepted is None:
            scale = float(np.max(rbox)) / (float(np.max(np.abs(grad_x))) + 1e-300)
            accepted = line_search(-grad_x, scale, 14)

        if accepted is None:
            break
        new_x, controls, masks, cost = accepted
        moved = float(np.max(np.abs(new_x - x)))
        x = new_x
        if moved <= settings.step_tolerance * (1.0 + float(np.max(np.abs(x)))):
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
    best_controls, best_cost = start, predictor.cost(start)
    starts = [np.diff(np.vstack([prev, start]), axis=0)]
    if settings.restarts:
        # the first default_rng() of a process adds about 1 MB of resident memory
        rng = np.random.default_rng(settings.seed)
        rbox = constraints.rates() / math.sqrt(2.0)
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
                               self.scaling, self.support, self._geometry_cache)
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
