"""Command-line interface.

Subcommands:

* ``run``: one closed-loop run, writing the final applied map, the step
  trace, and a summary.
* ``compare``: the controller variants side by side on one scenario,
  writing per-controller outputs and a ranking table.
* ``validate``: parse and cross-check scenario and calibration without
  running, echoing the resolved configuration.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure during a run, 3 comparison finished but at least one variant
failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import math
import sys
from pathlib import Path

from .calibration import load_calibration
from .config import default_calibration_path, default_scenario_path, load_scenario
from .controllers import ControllerKind
from .errors import ConfigurationError, NumericalFailureError, RunAbortedError, SpreadOptError
from .simulation import comparison_failed, compare, run, write_comparison, write_run_outputs
from .spread import DepositScaling

_log = logging.getLogger("spreadopt.cli")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract reserves
    # 2 for numerical failures, so re-route to exit code 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spreadopt", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", type=Path, default=None,
                        help="scenario file (default: the built-in S-pattern scenario)")
    common.add_argument("--calibration", type=Path, default=None,
                        help="calibration file (default: the built-in synthetic bench)")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    common.add_argument("--horizon", type=int, default=None,
                        help="prediction horizon in steps (ignored by the greedy controller)")
    common.add_argument("--scaling", choices=[s.value for s in DepositScaling], default=None,
                        help="density-to-mass conversion override")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for optional multi-start optimizer draws")
    common.add_argument("--restarts", type=int, default=None,
                        help="number of random optimizer restarts (default 0: deterministic)")
    common.add_argument("--max-iterations", type=int, default=None,
                        help="optimizer iteration cap override")
    common.add_argument("--gradient-tolerance", type=float, default=None,
                        help="optimizer projected-gradient tolerance override")
    common.add_argument("--step-tolerance", type=float, default=None,
                        help="optimizer step tolerance override")
    common.add_argument("--verbose", action="store_true",
                        help="log per-iteration optimizer diagnostics to out/run.log")

    run_parser = sub.add_parser("run", parents=[common], help="one closed-loop run")
    run_parser.add_argument("--controller", choices=[k.value for k in ControllerKind],
                            default=None, help="controller override")

    compare_parser = sub.add_parser("compare", parents=[common],
                                    help="run controller variants side by side")
    compare_parser.add_argument("--only", default=None,
                                help="comma-separated subset of controllers to compare")

    sub.add_parser("validate", parents=[common],
                   help="check scenario and calibration files without running")
    return parser


def _prepare(args, kinds=None):
    """Load the scenario and calibration files and apply the flags.

    ``kinds`` are the controllers that will run, None for the scenario's
    own; the warning about ``--horizon`` is printed once when greedy is
    among them.  Returns the scenario, the optimizer settings, the
    calibration, the constraints and the configuration echo.
    """
    scenario_path = args.scenario if args.scenario is not None else default_scenario_path()
    calibration_path = (args.calibration if args.calibration is not None
                        else default_calibration_path())
    config = load_scenario(scenario_path)
    cal, constraints = load_calibration(calibration_path)

    if args.horizon is not None and args.horizon < 1:
        raise ConfigurationError(f"--horizon must be at least 1, got {args.horizon}")
    flags = {"controller": getattr(args, "controller", None), "horizon": args.horizon,
             "scaling": args.scaling}
    scenario = dataclasses.replace(config.scenario,
                                   **{k: v for k, v in flags.items() if v is not None})
    # a flag overrides the OptimizerSettings field its destination is named after
    settings = dataclasses.replace(config.settings, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(config.settings)
        if getattr(args, f.name, None) is not None})

    if args.horizon is not None and ControllerKind.GREEDY in (
            kinds if kinds is not None else (scenario.controller,)):
        print("warning: --horizon is ignored by the greedy controller "
              "(it is single-step by definition)", file=sys.stderr)
    return (scenario, settings, cal, constraints,
            _config_lines(scenario, settings, cal, constraints, scenario_path, calibration_path))


def _create_out(out: Path) -> None:
    """Create the output directory before any work that writes into it."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {out}: {exc.strerror or exc}") from None


def _value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config_lines(scenario, settings, cal, constraints, scenario_path, calibration_path):
    grid = scenario.grid
    lines = [
        ("scenario_file", str(scenario_path)),
        ("calibration_file", str(calibration_path)),
        ("field.side_length", _value(grid.side_length)),
        ("field.n_cells", _value(grid.n_cells)),
        ("field.origin_x", _value(grid.origin[0])),
        ("field.origin_y", _value(grid.origin[1])),
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
        ("controls.flow_left", _value(scenario.initial_controls.flow_left)),
        ("controls.flow_right", _value(scenario.initial_controls.flow_right)),
        ("controls.rpm_left", _value(scenario.initial_controls.rpm_left)),
        ("controls.rpm_right", _value(scenario.initial_controls.rpm_right)),
        ("calibration.distance", " ".join(map(_value, cal.distance_coeffs))),
        ("calibration.sigma_distance", " ".join(map(_value, cal.sigma_distance_coeffs))),
        ("calibration.angle", " ".join(map(_value, cal.angle_coeffs))),
        ("calibration.sigma_angle", " ".join(map(_value, cal.sigma_angle_coeffs))),
        ("constraints.flow_min", _value(constraints.flow_min)),
        ("constraints.flow_max", _value(constraints.flow_max)),
        ("constraints.rpm_min", _value(constraints.rpm_min)),
        ("constraints.rpm_max", _value(constraints.rpm_max)),
        ("constraints.flow_rate_max", _value(constraints.flow_rate_max)),
        ("constraints.rpm_rate_max", _value(constraints.rpm_rate_max)),
    ]
    for field_def in dataclasses.fields(settings):
        lines.append((f"optimizer.{field_def.name}",
                      _value(getattr(settings, field_def.name))))
    return lines


# where the settings were read from, not what they are
_LOCATION_KEYS = ("scenario_file", "calibration_file")


def _settings_hash(lines) -> str:
    """SHA-256 of the resolved configuration lines other than the input
    file paths, so equal settings hash equally from any directory."""
    text = "\n".join(f"{k} = {v}" for k, v in lines if k not in _LOCATION_KEYS)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_summary(command, controller, record, digest, config_lines):
    """The ``summary.txt`` lines of one controller's run."""
    return ([("command", command),
             ("controller", controller),
             ("n_steps", str(record.n_steps)),
             ("final_cost", format(record.final_cost, ".12g")),
             ("settings_hash", digest)]
            + config_lines
            + [("wall_clock.controller_seconds", format(record.total_controller_seconds, ".6f"))])


def _write_run(out_dir, command, controller, record, digest, config_lines, diagnostic=None):
    """One controller's outputs; an aborted run's partial record comes
    with a ``diagnostic.txt`` saying why it stopped."""
    write_run_outputs(out_dir, record,
                      _run_summary(command, controller, record, digest, config_lines))
    if diagnostic is not None:
        (out_dir / "diagnostic.txt").write_text(diagnostic + "\n")


def _setup_logging(args):
    root = logging.getLogger("spreadopt")
    for handler in list(root.handlers):
        root.removeHandler(handler)
        handler.close()
    if not args.verbose:
        # a verbose main() earlier in this process must not leave DEBUG on
        root.setLevel(logging.NOTSET)
        return
    _create_out(args.out)
    root.setLevel(logging.DEBUG)
    file_handler = logging.FileHandler(args.out / "run.log", mode="w")
    file_handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    root.addHandler(file_handler)
    stream = logging.StreamHandler(sys.stderr)
    stream.setLevel(logging.INFO)
    root.addHandler(stream)


def cmd_run(args) -> int:
    scenario, settings, cal, constraints, config_lines = _prepare(args)
    digest = _settings_hash(config_lines)
    controller = scenario.controller.value
    _create_out(args.out)
    _log.info("run: controller=%s horizon=%d", controller, scenario.horizon)

    try:
        record = run(scenario, cal, constraints, settings)
    except RunAbortedError as exc:
        _write_run(args.out, "run", controller, exc.record, digest, config_lines,
                   f"aborted at step {exc.step}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _write_run(args.out, "run", controller, record, digest, config_lines)
    print(f"final cost {record.final_cost:.6g} after {record.n_steps} steps "
          f"-> {args.out}")
    return 0


def cmd_compare(args) -> int:
    if args.only is not None:
        names = [token.strip() for token in args.only.split(",") if token.strip()]
        if not names:
            raise _UsageError("spreadopt compare: --only needs at least one controller")
        try:
            kinds = [ControllerKind(name) for name in names]
        except ValueError as exc:
            raise ConfigurationError(f"--only: {exc}") from None
    else:
        kinds = list(ControllerKind)
    scenario, settings, cal, constraints, config_lines = _prepare(args, kinds)
    digest = _settings_hash(config_lines)
    _create_out(args.out)

    result = compare(scenario, kinds, cal, constraints, settings)
    write_comparison(args.out / "comparison.csv", result)
    for row in result.rows:
        record = result.records.get(row.controller)
        if record is None:
            continue
        diagnostic = (None if math.isfinite(row.final_cost)
                      else f"variant {row.controller} aborted; partial trace written")
        _write_run(args.out / row.controller, "compare", row.controller, record, digest,
                   config_lines, diagnostic)

    summary_lines = [("command", "compare"),
                     ("ranking", " ".join(result.ranking)),
                     ("settings_hash", digest)]
    summary_lines += config_lines
    (args.out / "summary.txt").write_text(
        "".join(f"{k} = {v}\n" for k, v in summary_lines))

    for row in result.rows:
        print(f"{row.controller}: final cost {row.final_cost:.6g}, "
              f"controller time {row.wall_clock:.3f}s")
    if comparison_failed(result):
        print("error: at least one variant failed; see diagnostics", file=sys.stderr)
        return 3
    return 0


def cmd_validate(args) -> int:
    scenario, _, _, constraints, config_lines = _prepare(args, kinds=())
    for key, value in config_lines:
        print(f"{key} = {value}")
    # load_calibration has already rejected a calibration that fails validation
    u0 = scenario.initial_controls.as_array()
    if (u0 < constraints.lower()).any() or (u0 > constraints.upper()).any():
        print(f"problem: initial controls {scenario.initial_controls} violate the actuator boxes",
              file=sys.stderr)
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
