"""spreadopt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in fresh processes with BLAS pinned to one
thread.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one traced run, the
tracing overhead against one untraced run, and the kernel scaling probe.
Every run checks the program's outputs.  The last line of standard output
is the JSON result; the full record, with the environment stamp and the
diagnostics, is written to ``.bench_out/``.  ``bench/README.md`` lists the
metrics and what each should move.
"""

from __future__ import annotations

import os

# pinned before numpy loads here or in any child process
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds one repetition of each workload takes on the reference machine
# (2 cores, BLAS pinned to one thread).  A run makes round(--seconds / this)
# repetitions of the same closed loop, at least one, so the work done
# depends only on --seconds and is the same for every commit measured.
# Repetitions are bitwise identical, so each decision's time is taken as
# its fastest repetition: interference from other load only ever slows.
REP_SECONDS = {"paper-compare": 15.0, "paper-compare-full": 110.0,
               "large-field-greedy": 15.0, "long-horizon-mpc": 15.0}
# set-up-only processes per untraced run, spread evenly over the CPUs
SETUP_SAMPLES = 8
# the whole run must end within this many seconds
DEADLINE_S = 170.0
COST_RTOL = 1e-12

E2E_UNITS = {"setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
             "step_ms_p50": "ms", "step_ms_p70": "ms", "final_cost": "g2"}

LAYERS = ("config", "kinematics", "calibration", "spread", "controllers", "simulation",
          "field", "cli")


class BenchError(Exception):
    pass


class ChildRunner:
    """Child processes of one benchmark run, sharing a work directory and
    a deadline."""

    def __init__(self, work: Path, seconds_left: float):
        self.work = work
        self.deadline = time.monotonic() + seconds_left
        self.n = 0

    def child(self, mode: str, cpu: int | None = None, **spec) -> dict:
        """Run child.py in ``mode`` in a fresh process, bound to ``cpu``
        when given, and return its result."""
        self.n += 1
        spec_path = self.work / f"spec-{self.n}.json"
        result_path = self.work / f"result-{self.n}.json"
        spec_path.write_text(json.dumps(dict(spec, mode=mode, src=str(SRC),
                                             result=str(result_path))))
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError(f"out of time before the {mode} process")
        argv = [sys.executable, str(HERE / "child.py"), str(spec_path)]
        allowed = os.sched_getaffinity(0)
        if cpu is not None:
            # the child inherits this process's CPU set from its first instruction
            os.sched_setaffinity(0, {cpu})
        try:
            proc = subprocess.run(argv + [repr(time.monotonic())], cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=remaining)
        finally:
            os.sched_setaffinity(0, allowed)
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{mode} process failed with status {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text())


# -- output checks -----------------------------------------------------------

def _controller_dirs(out: Path, workload) -> dict[str, Path]:
    if len(workload.controllers) == 1:
        return {workload.controllers[0]: out}
    return {name: out / name for name in workload.controllers}


def _summary_value(path: Path, key: str) -> str:
    for line in path.read_text().splitlines():
        name, _, value = line.partition(" = ")
        if name == key:
            return value
    raise BenchError(f"{path} has no {key}")


def check_run(result: dict, out_root: Path, workload, config, constraints, n_steps: int):
    """Check every controller run of a measuring process.

    Returns (attempted, failures, final costs of the first repetition).
    A controller run fails on a non-zero exit status, a missing or short
    trace, an emitted control that breaks the actuator boxes or rate limits
    against its predecessor (starting from the initial controls), a final
    cost that is not finite, or a final cost that differs from the cost
    recomputed from ``A.csv``.
    """
    from spreadopt.calibration import SpreaderControls, satisfies_constraints
    from spreadopt.errors import SpreadOptError
    from spreadopt.field import cost, load_map
    from spreadopt.simulation import read_trace

    scenario = config.scenario
    attempted = 0
    failures: list[str] = []
    first_costs: dict[str, float] = {}
    for rep, status in enumerate(r["exit_code"] for r in result["reps"]):
        for name, out in _controller_dirs(out_root / f"rep{rep}", workload).items():
            attempted += 1
            label = f"rep {rep} {name}"
            if status != 0:
                failures.append(f"{label}: exit status {status}")
                continue
            try:
                trace = read_trace(out / "trace.csv")
                if len(trace["k"]) != n_steps:
                    raise BenchError(f"trace has {len(trace['k'])} of {n_steps} steps")
                previous = scenario.initial_controls
                for k in range(n_steps):
                    decided = SpreaderControls(trace["D_l"][k], trace["D_r"][k],
                                               trace["rpm_l"][k], trace["rpm_r"][k])
                    if not satisfies_constraints(decided, previous, constraints):
                        raise BenchError(f"infeasible control at step {k + 1}")
                    previous = decided
                final = float(result["final_costs"][str(out)])
                if not math.isfinite(final):
                    raise BenchError(f"final cost {final} is not finite")
                if _summary_value(out / "summary.txt", "final_cost") != format(final, ".12g"):
                    raise BenchError("summary final_cost differs from the run's final cost")
                recomputed = cost(load_map(out / "A.csv", scenario.grid), scenario.prescription)
                if abs(recomputed - final) > COST_RTOL * abs(final):
                    raise BenchError(f"final cost {final!r} but A.csv gives {recomputed!r}")
            except (BenchError, SpreadOptError, KeyError, OSError, ValueError) as exc:
                failures.append(f"{label}: {exc}")
                continue
            if rep == 0:
                first_costs[name] = final
    return attempted, failures, first_costs


# -- metrics -----------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _decisions(result: dict):
    """(repetitions x decisions) array of decision times in seconds."""
    import numpy as np

    n = min(len(r["decision_s"]) for r in result["reps"])
    return np.array([r["decision_s"][:n] for r in result["reps"]])


def steps_per_s(result: dict) -> float:
    """Closed-loop steps per second, from the first decision to the last
    output file written: the fastest time of each decision plus the
    fastest time a repetition spent outside decisions."""
    times = _decisions(result)
    outside = min(r["ended"] - r["first_decision"] - sum(r["decision_s"])
                  for r in result["reps"])
    return times.shape[1] / (times.min(axis=0).sum() + outside)


def main_decision_ms(result: dict, workload, n_steps: int):
    """Decision times in ms of the workload's main controller, each the
    fastest over the repetitions."""
    first = workload.controllers.index(workload.main) * n_steps
    return _decisions(result)[:, first:first + n_steps].min(axis=0) * 1e3


def setup_seconds(samples: dict[int, list[float]]) -> float:
    """Median set-up time on each CPU; the fastest CPU's median."""
    return min(statistics.median(times) for times in samples.values())


def end_to_end(setup_samples, result: dict, main_ms, final_cost: float) -> dict:
    import numpy as np

    values = {
        "setup_s": setup_seconds(setup_samples),
        "steps_per_s": steps_per_s(result),
        "peak_rss_mb": result["peak_rss_mb"],
        "step_ms_p50": float(np.percentile(main_ms, 50)),
        "step_ms_p70": float(np.percentile(main_ms, 70)),
        "final_cost": final_cost,
    }
    return {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}


def paper_diagnostics(out: Path) -> dict:
    """Per-controller time and cost from comparison.csv, and the margins of
    the paper's acceptance gates: criterion 1 (triangle - full gap of at
    least 1% of greedy) and criterion 4 (greedy at least 10x faster)."""
    rows = {}
    for line in (out / "comparison.csv").read_text().splitlines()[1:]:
        name, final_cost, wall = line.split(",")
        rows[name] = (float(final_cost), float(wall))
    diag = {}
    for name, (final_cost, wall) in rows.items():
        diag[f"controller_s.{name}"] = _metric(wall, "s")
        diag[f"final_cost.{name}"] = _metric(final_cost, "g2")
    greedy_cost, greedy_s = rows["greedy"]
    diag["paper.gap_pct"] = _metric(
        100.0 * (rows["mpc-triangle"][0] - rows["mpc-full"][0]) / greedy_cost, "%")
    for name in ("mpc-triangle", "mpc-full"):
        diag[f"paper.speed_ratio.{name}"] = _metric(rows[name][1] / greedy_s, "x")
    return diag


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(trace: dict, untraced_rate: float, traced_rate: float, probe: dict,
              bytes_written: int) -> dict:
    spans = trace["spans"]
    counts = trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def seconds(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    solves = calls("controllers.solve")
    iterations = counts.get("iterations", 0)
    lookups = counts.get("geometry_lookups", 0)
    values = {
        "spread.deposit_calls": (calls("spread.deposit.normal")
                                 + calls("spread.deposit.triangle"), "count"),
        "spread.deposit_s.normal": (seconds("spread.deposit.normal"), "s"),
        "spread.deposit_s.triangle": (seconds("spread.deposit.triangle"), "s"),
        "spread.partials_calls": (calls("spread.partials"), "count"),
        "spread.partials_s": (seconds("spread.partials"), "s"),
        "spread.cells_evaluated": (counts.get("cells_evaluated", 0), "count"),
        "spread.support_frac": (_ratio(counts.get("cells_supported", 0),
                                       counts.get("cells_evaluated", 0)), "frac"),
        "spread.geometry_calls": (calls("spread.geometry"), "count"),
        "spread.geometry_s": (seconds("spread.geometry"), "s"),
        "simulation.plant_deposit_s": (seconds("simulation.plant_deposit"), "s"),
        "simulation.feasibility_s": (seconds("simulation.feasibility"), "s"),
        "controllers.solves": (solves, "count"),
        "controllers.iters_per_solve": (_ratio(iterations, solves), "count"),
        "controllers.max_iter_frac": (_ratio(counts.get("max_iter_solves", 0), solves),
                                      "frac"),
        "controllers.cost_evals": (calls("controllers.cost_eval"), "count"),
        "controllers.cost_eval_s": (seconds("controllers.cost_eval"), "s"),
        "controllers.jac_evals": (calls("controllers.jac_eval"), "count"),
        "controllers.jac_eval_s": (seconds("controllers.jac_eval"), "s"),
        "controllers.evals_per_iter": (_ratio(calls("controllers.cost_eval"), iterations),
                                       "count"),
        "controllers.fold_s": (seconds("controllers.fold"), "s"),
        "controllers.gn_solve_s": (seconds("controllers.solve", "self_s"), "s"),
        "controllers.plan_s": (seconds("controllers.plan"), "s"),
        "controllers.geometry_cache_hit_frac": (
            _ratio(lookups - counts.get("geometry_misses", 0), lookups), "frac"),
        "controllers.geometry_cache_mb": (trace["geometry_cache_bytes"] / 2**20, "MB"),
        "calibration.params_built": (counts.get("params_built", 0), "count"),
        "calibration.params_s": (seconds("calibration.params"), "s"),
        "calibration.slope_calls": (counts.get("slope_calls", 0), "count"),
        "field.cost_s": (seconds("field.cost"), "s"),
        "field.save_map_s": (seconds("field.save_map"), "s"),
        "cli.write_s": (seconds("cli.write"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "config.load_s": (seconds("config.load"), "s"),
        "kinematics.trajectory_s": (seconds("kinematics.trajectory"), "s"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate, "frac"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (trace["layer_self_s"].get(layer, 0.0), "s")
    for n in (90, 180, 360):
        values[f"spread.ns_per_cell.n{n}"] = (probe[f"n{n}"], "ns")
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


# -- environment stamp -------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "commit": _commit(),
            "src_sha256": _source_digest(), "seed": seed}


# -- the run -----------------------------------------------------------------

def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def bench(workload_name: str, seed: int, seconds: int, trace: bool, work: Path,
          spans: Path) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    inputs = workloads.generate(workload_name, work / "inputs")
    config, constraints = workloads.validate(inputs)
    from spreadopt.kinematics import trajectory

    n_steps = len(trajectory(config.scenario.plan, config.scenario.dt)) - 1
    children = ChildRunner(work, DEADLINE_S)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(seed),
              "input_seed": workloads.INPUT_SEED}
    argv = list(inputs.argv)

    def measured(reps: int, out: Path, mode: str = "measure", **extra):
        result = children.child(mode, argv=argv, reps=reps, out=str(out), **extra)
        attempted, failures, costs = check_run(result, out, workload, config, constraints,
                                               n_steps)
        return result, attempted, failures, costs

    if not trace:
        reps = max(1, round(seconds / REP_SECONDS[workload_name]))
        cpus = sorted(os.sched_getaffinity(0))
        setup: dict[int, list[float]] = {cpu: [] for cpu in cpus}
        for i in range(SETUP_SAMPLES):
            cpu = cpus[i % len(cpus)]
            setup[cpu].append(children.child("setup", cpu=cpu, argv=argv, reps=1,
                                            out=str(work / "setup"))["setup_s"])
        result, attempted, failures, costs = measured(reps, work / "out", cpus=cpus)
        main_ms = main_decision_ms(result, workload, n_steps)
        # a failed main controller has no final cost; the run reports
        # correct = false and 0 in its place
        record["metrics"] = end_to_end(setup, result, main_ms, costs.get(workload.main, 0.0))
        record["setup_samples_s"] = setup
        record["decision_ms"] = (_decisions(result) * 1e3).tolist()
        record["reps"] = reps
        if len(workload.controllers) > 1 and result["reps"][0]["exit_code"] == 0:
            record["diagnostics"] = paper_diagnostics(work / "out" / "rep0")
    else:
        plain, attempted_a, failures_a, _ = measured(1, work / "plain")
        traced, attempted_b, failures_b, _ = measured(
            1, work / "traced", mode="trace", spans=str(spans))
        probe = children.child("probe")
        record["metrics"] = per_layer(traced["trace"], steps_per_s(plain), steps_per_s(traced),
                                      probe, _bytes_under(work / "traced"))
        # the probe's per-kernel figures; the per-size sums are metrics
        record["diagnostics"] = {f"spread.ns_per_cell.{k}": _metric(v, "ns")
                                 for k, v in probe.items() if "." in k}
        record["work_counts"] = work_counts(traced["trace"])
        record["spans"] = traced["trace"]["n_spans"]
        attempted = attempted_a + attempted_b
        failures = failures_a + failures_b
    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["failures"] = failures
    return record


def work_counts(trace: dict) -> dict:
    """Counts that must repeat exactly between two traced runs of one seed."""
    counts = {f"{name}.calls": entry["calls"] for name, entry in trace["spans"].items()}
    counts.update(trace["counts"])
    return dict(sorted(counts.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spreadopt" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace), work,
                       out_dir / f"{stem}-spans.npz")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in record["environment"].items():
        print(f"env {key} = {value}")
    for name, metric in record.get("diagnostics", {}).items():
        print(f"diagnostic {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"checked {record['attempted']} controller runs, {record['failed']} failed")
    for name, metric in record["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
