"""In-memory span tracer that wraps the program's functions where their
callers look them up.

Each wrapped call records one span: name, start, end, parent span and run
id (one run per closed-loop ``simulation.run``).  Spans are kept in flat
arrays and written once, when the traced run ends.  Counters record work
at the same boundaries (cells evaluated, solver iterations, parameter
objects built) so ratios are measured where the work happens.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# a cell counts as useful work when its deposit exceeds this share of the
# call's peak
SUPPORT_THRESHOLD = 1e-12


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.controllers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name, after=None):
        """``name`` is a span name, or a callable of the call's arguments
        returning one."""
        fixed = None if callable(name) else self._intern(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = fixed if fixed is not None else self._intern(name(args, kwargs))
            i = len(self.name)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name, after=None) -> None:
        self.patch(owner, attr, self._wrap(getattr(owner, attr), name, after))

    def count(self, owner, attr: str, key: str) -> None:
        self.patch(owner, attr, self._count(getattr(owner, attr), key))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- hooks run after a wrapped call returns --------------------------

    def _kernel_cells(self, args, kwargs, result):
        value = result[0] if isinstance(result, tuple) else result
        self.counts["cells_evaluated"] += value.size
        peak = float(value.max()) if value.size else 0.0
        if peak > 0.0:
            self.counts["cells_supported"] += int(np.count_nonzero(value > SUPPORT_THRESHOLD * peak))

    def _solve_done(self, args, kwargs, result):
        settings = args[4] if len(args) > 4 else kwargs["settings"]
        self.counts["iterations"] += result[2]
        if result[2] >= settings.max_iterations:
            self.counts["max_iter_solves"] += 1

    def _predictor_built(self, args, kwargs, result):
        poses = args[2] if len(args) > 2 else kwargs["poses"]
        self.counts["geometry_lookups"] += len(poses)

    def _geometry_miss(self, args, kwargs, result):
        self.counts["geometry_misses"] += 1

    def _planned(self, args, kwargs, result):
        self.controllers.setdefault(id(args[0]), args[0])

    def _run_started(self, fn):
        def wrapper(*args, **kwargs):
            self.run_id += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary of the program."""
        from spreadopt import calibration, cli, controllers, simulation, spread

        def deposit_name(args, kwargs):
            model = args[4] if len(args) > 4 else kwargs["model"]
            return ("spread.deposit.triangle" if spread.DepositionModel(model)
                    is spread.DepositionModel.TRIANGLE else "spread.deposit.normal")

        self.span(cli, "main", "cli.main")
        self.span(cli, "load_scenario", "config.load")
        self.span(cli, "load_calibration", "config.load")
        self.span(cli, "write_run_outputs", "cli.write")
        self.span(cli, "write_comparison", "cli.write")
        for module in (cli, simulation):
            self.span(module, "run", "simulation.run")
            self.patch(module, "run", self._run_started(getattr(module, "run")))
        self.span(simulation, "trajectory", "kinematics.trajectory")
        self.span(simulation, "total_deposit", "simulation.plant_deposit")
        self.span(simulation, "satisfies_constraints", "simulation.feasibility")
        self.span(simulation, "patterns_from_controls", "calibration.params")
        self.span(simulation, "cost", "field.cost")
        self.span(simulation, "save_map", "field.save_map")
        self.span(controllers.RecedingHorizonController, "plan_controls", "controllers.plan",
                  self._planned)
        self.span(controllers, "_solve_deltas", "controllers.solve", self._solve_done)
        self.span(controllers, "_fold_jacobian", "controllers.fold")
        self.span(controllers._Predictor, "__init__", "controllers.predictor_init",
                  self._predictor_built)
        self.span(controllers._Predictor, "cost", "controllers.cost_eval")
        self.span(controllers._Predictor, "cost_residual_jacobian", "controllers.jac_eval")
        self.span(controllers._Predictor, "_disc_params", "calibration.params")
        self.span(controllers, "pose_geometry", "spread.geometry", self._geometry_miss)
        self.span(controllers, "disc_deposit_partials", "spread.partials", self._kernel_cells)
        # the plant (total_deposit) and _Predictor.cost both look these up
        # in spreadopt.spread at call time
        self.span(spread, "pose_geometry", "spread.geometry")
        self.span(spread, "disc_deposit", deposit_name, self._kernel_cells)
        self.count(spread.PatternParams, "__post_init__", "params_built")
        for attr in ("distance_slope", "sigma_distance_slope", "angle_slope",
                     "sigma_angle_slope"):
            self.count(calibration.CalibrationModel, attr, "slope_calls")

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Per-span-name call counts, inclusive and self seconds, per-layer
        self seconds, and the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=self_time, minlength=n)
        spans = {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                 for i, name in enumerate(self.names)}
        layers: Counter = Counter()
        for name, entry in spans.items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        cache_bytes = [sum(arr.nbytes for entry in c._geometry_cache.values()
                           for arr in entry if isinstance(arr, np.ndarray))
                       for c in self.controllers.values()]
        return {"spans": spans, "layer_self_s": dict(layers), "counts": dict(self.counts),
                "geometry_cache_bytes": max(cache_bytes, default=0),
                "n_spans": len(dur)}
