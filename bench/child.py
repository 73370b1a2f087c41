"""One workload run in a fresh process.

Usage: ``python child.py SPEC.json SPAWNED``, where ``SPAWNED`` is the
parent's ``time.monotonic()`` just before it started this process.  The
spec names the mode:

* ``setup``: import, parse the inputs and build the controller, then stop
  at the first ``plan_controls`` call; reports the set-up time only.
* ``measure``: run the workload's command ``reps`` times, untraced.
* ``trace``: run it once with every layer boundary wrapped by the tracer.
* ``probe``: time the spread kernels on growing grids.

The parent sets the BLAS thread variables before this process starts, so
they hold when numpy loads.  Set-up time is measured from ``SPAWNED``
(``CLOCK_MONOTONIC`` is shared by all processes of the machine).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    """Raised at the first decision of a set-up-only run; not a
    SpreadOptError, so the program lets it through."""


def _run_workload(spec: dict) -> dict:
    """Run the program's command line ``spec["reps"]`` times in this
    process, timing every ``plan_controls`` call of each repetition."""
    from spreadopt import cli
    from spreadopt.controllers import RecedingHorizonController

    reps: list[dict] = []
    final_costs: dict[str, str] = {}
    plan_controls = RecedingHorizonController.plan_controls
    write_run_outputs = cli.write_run_outputs
    setup_only = spec["mode"] == "setup"

    def timed_plan_controls(self, *args, **kwargs):
        started = time.monotonic()
        rep = reps[-1]
        if rep["first_decision"] is None:
            rep["first_decision"] = started
            if setup_only:
                raise _SetupDone
        result = plan_controls(self, *args, **kwargs)
        rep["decision_s"].append(time.monotonic() - started)
        return result

    def recording_write(out_dir, record, summary):
        # the final cost at full precision; the files hold 12 digits
        final_costs[str(out_dir)] = repr(record.final_cost)
        return write_run_outputs(out_dir, record, summary)

    # repetitions alternate between the CPUs, so one core shared with other
    # load cannot slow every repetition of a decision
    cpus = spec.get("cpus")
    RecedingHorizonController.plan_controls = timed_plan_controls
    cli.write_run_outputs = recording_write
    try:
        for index in range(spec["reps"]):
            if cpus:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            rep = {"first_decision": None, "decision_s": []}
            reps.append(rep)
            argv = list(spec["argv"]) + ["--out", str(Path(spec["out"]) / f"rep{index}")]
            try:
                rep["exit_code"] = cli.main(argv)
            except _SetupDone:
                break
            rep["ended"] = time.monotonic()
    finally:
        RecedingHorizonController.plan_controls = plan_controls
        cli.write_run_outputs = write_run_outputs
    first = reps[0]["first_decision"]
    return {
        "setup_s": None if first is None else first - spec["spawned"],
        "reps": reps,
        "final_costs": final_costs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(spec: dict) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = _run_workload(spec)
    finally:
        tracer.uninstall()
    tracer.save(spec["spans"])
    result["trace"] = tracer.summary()
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spec["spawned"] = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    if spec["mode"] == "probe":
        from probe import probe

        result = probe()
    elif spec["mode"] == "trace":
        result = _traced(spec)
    else:
        result = _run_workload(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
