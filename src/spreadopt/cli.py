"""Command-line interface.

Subcommands:

* ``run``: one closed-loop run, writing the final applied map, the step
  trace, and a summary.
* ``compare``: the controller variants side by side on one scenario,
  writing per-controller outputs and a ranking table.
* ``validate``: parse and cross-check scenario and calibration without
  running, echoing the resolved configuration.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure or out of memory during a run, 3 comparison finished but at least
one variant failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import math
import sys
from pathlib import Path

from .calibration import _PATTERN_KEYS, load_calibration
from .config import default_calibration_path, default_scenario_path, load_scenario
from .controllers import ControllerKind
from .errors import ConfigurationError, NumericalFailureError, RunAbortedError, SpreadOptError
from .simulation import check_setup, run, write_comparison, write_run_outputs, write_summary

_log = logging.getLogger("spreadopt.cli")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # options only as spelled in full: a prefix unique today may not stay so
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on usage errors; the contract reserves
    # 2 for numerical failures, so re-route to exit code 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spreadopt", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--scenario", type=Path, default=None,
                        help="scenario file (default: the built-in S-pattern scenario)")
    inputs.add_argument("--calibration", type=Path, default=None,
                        help="calibration file (default: the built-in synthetic bench)")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", type=Path, default=Path("out"),
                         help="output directory (default: ./out)")
    outputs.add_argument("--verbose", action="store_true",
                         help="log per-iteration optimizer diagnostics to out/run.log")

    sub.add_parser("run", parents=[inputs, outputs],
                   help="one closed-loop run of the scenario file")

    compare_parser = sub.add_parser("compare", parents=[inputs, outputs],
                                    help="run controller variants side by side")
    compare_parser.add_argument("--only", default=None,
                                help="comma-separated subset of controllers to compare")

    # validate writes nothing and logs nothing, so it takes no --out or --verbose
    sub.add_parser("validate", parents=[inputs],
                   help="check scenario and calibration files without running")
    return parser


def _prepare(args):
    """Load the scenario and calibration files: returns the scenario as
    read, the optimizer settings, the calibration, the constraints and
    ``echo(scenario)``, its echo lines."""
    scenario_path = args.scenario if args.scenario is not None else default_scenario_path()
    calibration_path = (args.calibration if args.calibration is not None
                        else default_calibration_path())
    config = load_scenario(scenario_path)
    cal, constraints = load_calibration(calibration_path)

    def echo(ran):
        return _config_lines(ran, config.settings, cal, constraints, scenario_path,
                             calibration_path)

    return config.scenario, config.settings, cal, constraints, echo


def _write(path: Path, writer, *args, **kwargs):
    """``writer(path, *args, **kwargs)``, with an ``OSError`` reported as
    a :class:`ConfigurationError` that names the path."""
    try:
        return writer(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _create_out(out: Path) -> None:
    """Create the output directory before any work that writes into it."""
    _write(out, Path.mkdir, parents=True, exist_ok=True)


# what _run_into writes into a run's directory
_RUN_FILES = ("A.csv", "trace.csv", "summary.txt", "diagnostic.txt")


def _check_outputs(paths) -> None:
    """Reject an output path that exists but is not a regular file before
    the first decision, instead of when it is written after the last."""
    for path in paths:
        if path.exists() and not path.is_file():
            raise ConfigurationError(f"cannot write {path}: it exists and is not a regular file")


def _value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fields(prefix, obj):
    """One echo line per field of dataclass ``obj``, in field order."""
    return [(f"{prefix}.{f.name}", _value(getattr(obj, f.name))) for f in dataclasses.fields(obj)]


def _config_lines(scenario, settings, cal, constraints, scenario_path, calibration_path):
    grid = scenario.grid
    return [
        ("scenario_file", str(scenario_path)),
        ("calibration_file", str(calibration_path)),
        ("field.side_length", _value(grid.side_length)),
        ("field.n_cells", _value(grid.n_cells)),
        ("field.origin_x", _value(grid.origin[0])),
        ("field.origin_y", _value(grid.origin[1])),
        # Scenario holds the map as float64
        ("prescription.sha256", hashlib.sha256(scenario.prescription.tobytes()).hexdigest()),
        ("plan.start_x", _value(scenario.plan.start.x)),
        ("plan.start_y", _value(scenario.plan.start.y)),
        ("plan.start_heading", _value(scenario.plan.start.heading)),
        ("plan.segments", "; ".join(
            f"{_value(s.speed)} {_value(s.turn_rate)} {_value(s.duration)}"
            for s in scenario.plan.segments)),
        ("plan.total_duration", _value(scenario.plan.total_duration)),
        ("run.dt", _value(scenario.dt)),
        ("run.controller", scenario.controller.value),
        ("run.horizon", _value(scenario.horizon)),
        ("run.scaling", scenario.scaling.value),
        ("run.triangle_support", scenario.support.value),
        *_fields("controls", scenario.initial_controls),
        *[(f"calibration.{key}", " ".join(map(_value, getattr(cal, attr))))
          for key, (attr, _) in _PATTERN_KEYS.items()],
        *_fields("constraints", constraints),
        *_fields("optimizer", settings),
    ]


# where the settings were read from, not what they are
_LOCATION_KEYS = ("scenario_file", "calibration_file")


def _settings_hash(lines) -> str:
    """SHA-256 of the resolved configuration lines other than the input
    file paths, so equal settings hash equally from any directory."""
    text = "\n".join(f"{k} = {v}" for k, v in lines if k not in _LOCATION_KEYS)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_into(out_dir, command, scenario, echo, cal, constraints, settings):
    """Run ``scenario`` and write the run into ``out_dir``: the final map,
    the trace, and a summary echoing the configuration it ran with.
    Returns ``(record, error)``.  A run that aborts keeps its partial
    record and its ``error``, and leaves a ``diagnostic.txt`` saying where
    and why it stopped; a completed run removes the diagnostic of an
    earlier run."""
    try:
        record, error = run(scenario, cal, constraints, settings), None
    except RunAbortedError as exc:
        record, error = exc.record, exc
    config_lines = echo(scenario)
    summary = ([("command", command),
                ("controller", scenario.controller.value),
                ("n_steps", str(record.n_steps)),
                ("final_cost", format(record.final_cost, ".12g")),
                ("settings_hash", _settings_hash(config_lines))]
               + config_lines
               + [("wall_clock.controller_seconds", f"{record.total_controller_seconds:.6f}")])
    _write(out_dir, write_run_outputs, record, summary)
    diagnostic = out_dir / "diagnostic.txt"
    if error is None:
        _write(diagnostic, Path.unlink, missing_ok=True)
    else:
        _write(diagnostic, Path.write_text, f"aborted at step {error.step}: {error}\n")
    return record, error


def _setup_logging(args):
    root = logging.getLogger("spreadopt")
    for handler in list(root.handlers):
        root.removeHandler(handler)
        handler.close()
    if not getattr(args, "verbose", False):
        # a verbose main() earlier in this process must not leave DEBUG on
        root.setLevel(logging.NOTSET)
        return
    _create_out(args.out)
    file_handler = _write(args.out / "run.log", logging.FileHandler, mode="w")
    root.setLevel(logging.DEBUG)
    file_handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    root.addHandler(file_handler)
    stream = logging.StreamHandler(sys.stderr)
    stream.setLevel(logging.INFO)
    root.addHandler(stream)


def cmd_run(args) -> int:
    scenario, settings, cal, constraints, echo = _prepare(args)
    _create_out(args.out)
    _check_outputs(args.out / name for name in _RUN_FILES)
    _log.info("run: controller=%s horizon=%d", scenario.controller.value, scenario.horizon)
    record, error = _run_into(args.out, "run", scenario, echo, cal, constraints, settings)
    if error is not None:
        raise error
    print(f"final cost {record.final_cost:.6g} after {record.n_steps} steps "
          f"-> {args.out}")
    return 0


def cmd_compare(args) -> int:
    if args.only is not None:
        names = [token.strip() for token in args.only.split(",") if token.strip()]
        if not names:
            raise _UsageError("spreadopt compare: --only needs at least one controller")
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise _UsageError(f"spreadopt compare: --only names {repeated[0]} more than once, "
                              "but each controller has one output directory")
        try:
            kinds = [ControllerKind(name) for name in names]
        except ValueError as exc:
            raise ConfigurationError(f"--only: {exc}") from None
    else:
        kinds = list(ControllerKind)
    scenario, settings, cal, constraints, echo = _prepare(args)
    _create_out(args.out)
    _check_outputs([args.out / "comparison.csv", args.out / "summary.txt",
                    *(args.out / kind.value / name for kind in kinds for name in _RUN_FILES)])

    rows = []
    for kind in kinds:
        record, error = _run_into(args.out / kind.value, "compare",
                                  dataclasses.replace(scenario, controller=kind), echo, cal,
                                  constraints, settings)
        # an aborted variant has no final cost or wall clock to compare
        rows.append((kind.value, math.nan, math.nan) if error is not None else
                    (kind.value, record.final_cost, record.total_controller_seconds))
    ranked = sorted((row for row in rows if math.isfinite(row[1])), key=lambda row: row[1])
    _write(args.out / "comparison.csv", write_comparison, rows)
    config_lines = echo(scenario)
    _write(args.out / "summary.txt", write_summary,
           [("command", "compare"), ("ranking", " ".join(name for name, _, _ in ranked)),
            ("settings_hash", _settings_hash(config_lines))] + config_lines)

    for name, final_cost, wall_clock in rows:
        print(f"{name}: final cost {final_cost:.6g}, controller time {wall_clock:.3f}s")
    if len(ranked) < len(rows):
        print("error: at least one variant failed; see diagnostics", file=sys.stderr)
        return 3
    return 0


def cmd_validate(args) -> int:
    scenario, _, _, constraints, echo = _prepare(args)
    for key, value in echo(scenario):
        print(f"{key} = {value}")
    # load_calibration has already rejected a calibration that fails validation
    try:
        check_setup(scenario, constraints)
    except ConfigurationError as exc:
        print(f"problem: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handlers = {"run": cmd_run, "compare": cmd_compare, "validate": cmd_validate}
    try:
        _setup_logging(args)
        return handlers[args.command](args)
    except (NumericalFailureError, RunAbortedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, SpreadOptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
