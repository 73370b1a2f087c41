"""Scenario and run-configuration files.

Files are plain-text key-value (INI) documents so they diff cleanly.
Numeric values accept simple pi expressions like ``pi/16`` or ``-0.5*pi``
in addition to ordinary floats, which keeps turn rates exact in the file.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .calibration import SpreaderControls
from .controllers import ControllerKind, OptimizerSettings
from .errors import ConfigurationError
from .field import FieldGrid, load_map
from .kinematics import DriveCommand, DrivePlan, TractorState
from .simulation import Scenario
from .spread import DepositScaling, TriangleSupport

_PI_FORM = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?:(?P<lead>\d+(?:\.\d+)?)\s*\*?\s*)?pi"
    r"\s*(?:/\s*(?P<div>\d+(?:\.\d+)?))?\s*$", re.IGNORECASE)


def parse_number(text: str) -> float:
    """Parse a float, allowing ``pi`` forms such as ``pi``, ``-pi/16``, ``2*pi``."""
    try:
        return float(text)
    except ValueError:
        pass
    match = _PI_FORM.match(text)
    if not match:
        raise ValueError(f"not a number: {text!r}")
    value = math.pi
    if match.group("lead"):
        value *= float(match.group("lead"))
    if match.group("div"):
        divisor = float(match.group("div"))
        if divisor == 0.0:
            raise ValueError(f"division by zero: {text!r}")
        value /= divisor
    return -value if match.group("sign") == "-" else value


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def read_ini(path, kind: str, sections: tuple[str, ...]) -> configparser.ConfigParser:
    """Parse the ``kind`` file (such as ``"scenario file"``) at ``path``,
    which must have every section in ``sections``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"{kind} not found: {path}")
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"could not parse {path}: {exc}") from exc
    for section in sections:
        if not parser.has_section(section):
            raise ConfigurationError(f"{kind} {path} is missing [{section}]")
    return parser


def default_scenario_path() -> Path:
    return Path(resources.files("spreadopt") / "data" / "default_scenario.ini")


def default_calibration_path() -> Path:
    return Path(resources.files("spreadopt") / "data" / "default_calibration.ini")


@dataclass(frozen=True)
class RunConfig:
    """A scenario plus the optimizer settings that accompany it."""

    scenario: Scenario
    settings: OptimizerSettings


class _SectionReader:
    """Typed access to one INI section with uniform error messages."""

    def __init__(self, parser: configparser.ConfigParser, path, section: str):
        self.parser = parser
        self.path = path
        self.section = section

    def raw(self, key: str, fallback: str | None = None) -> str:
        value = self.parser.get(self.section, key, fallback=fallback)
        if value is None:
            raise ConfigurationError(f"{self.path} is missing {self.section}.{key}")
        return value

    def _parse(self, key: str, parse, fallback: str | None = None):
        raw = self.raw(key, fallback)
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {self.section}.{key} in {self.path}: {exc}") from exc

    def number(self, key: str, fallback: str | None = None) -> float:
        return self._parse(key, parse_number, fallback)

    def numbers(self, key: str) -> tuple[float, ...]:
        """Whitespace-separated numbers, such as polynomial coefficients."""
        return self._parse(key, lambda raw: tuple(map(parse_number, raw.split())))

    def integer(self, key: str, fallback: str | None = None) -> int:
        value = self.number(key, fallback)
        if not math.isfinite(value) or int(value) != value:
            raise ConfigurationError(
                f"{self.section}.{key} in {self.path} must be an integer, got {value}")
        return int(value)

    def boolean(self, key: str, fallback: str | None = None) -> bool:
        return self._parse(key, parse_bool, fallback)

    def choice(self, key: str, kind: type[enum.Enum], default: enum.Enum) -> enum.Enum:
        """The member of ``kind`` named by ``key``, or ``default`` when absent."""
        name = self.raw(key, default.value).strip()
        try:
            return kind(name)
        except ValueError:
            raise ConfigurationError(
                f"{self.path}: unknown {key} {name!r}, expected one of "
                f"{[member.value for member in kind]}") from None


def load_scenario(path) -> RunConfig:
    """Read a scenario file into a :class:`Scenario` and optimizer settings.

    Sections: ``[field]`` (geometry), ``[prescription]`` (``uniform`` grams
    or a CSV ``file`` relative to the scenario), ``[plan]`` (start pose and
    ``segments``, one ``speed turn_rate duration`` triple per line),
    ``[run]`` (dt, controller, horizon, scaling), ``[controls]`` (initial
    per-disc flow and RPM), and optional ``[optimizer]`` overrides.
    """
    path = Path(path)
    parser = read_ini(path, "scenario file", ("field", "prescription", "plan", "run", "controls"))

    field_sec = _SectionReader(parser, path, "field")
    grid = FieldGrid(
        side_length=field_sec.number("side_length"),
        n_cells=field_sec.integer("n_cells"),
        origin=(field_sec.number("origin_x", "0"), field_sec.number("origin_y", "0")),
    )

    prescription_sec = _SectionReader(parser, path, "prescription")
    uniform = parser.get("prescription", "uniform", fallback=None)
    source = parser.get("prescription", "file", fallback=None)
    if (uniform is None) == (source is None):
        raise ConfigurationError(
            f"{path}: [prescription] needs exactly one of 'uniform' or 'file'")
    if uniform is not None:
        level = prescription_sec.number("uniform")
        if level < 0:
            raise ConfigurationError(f"{path}: prescription.uniform must be non-negative")
        prescription = grid.zeros() + level
    else:
        prescription = load_map(path.parent / source, grid)

    plan_sec = _SectionReader(parser, path, "plan")
    start = TractorState(plan_sec.number("start_x"), plan_sec.number("start_y"),
                         plan_sec.number("start_heading", "0"))
    segments = []
    for line_no, line in enumerate(plan_sec.raw("segments").strip().splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise ConfigurationError(
                f"{path}: plan.segments line {line_no} needs 'speed turn_rate duration', "
                f"got {line.strip()!r}")
        try:
            speed, turn_rate, duration = (parse_number(t) for t in tokens)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: plan.segments line {line_no}: {exc}") from exc
        segments.append(DriveCommand(speed, turn_rate, duration))
    if not segments:
        raise ConfigurationError(f"{path}: plan.segments is empty")
    plan = DrivePlan(start=start, segments=tuple(segments))

    run_sec = _SectionReader(parser, path, "run")
    controller = run_sec.choice("controller", ControllerKind, ControllerKind.MPC_FULL)
    scaling = run_sec.choice("scaling", DepositScaling, DepositScaling.LITERAL)
    support = run_sec.choice("triangle_support", TriangleSupport, TriangleSupport.UNIT)

    controls_sec = _SectionReader(parser, path, "controls")
    initial = SpreaderControls(
        flow_left=controls_sec.number("flow_left"),
        flow_right=controls_sec.number("flow_right"),
        rpm_left=controls_sec.number("rpm_left"),
        rpm_right=controls_sec.number("rpm_right"),
    )

    scenario = Scenario(
        grid=grid,
        prescription=prescription,
        plan=plan,
        dt=run_sec.number("dt"),
        initial_controls=initial,
        controller=controller,
        horizon=run_sec.integer("horizon", "5"),
        scaling=scaling,
        support=support,
    )

    settings = OptimizerSettings()
    if parser.has_section("optimizer"):
        settings = _read_optimizer(_SectionReader(parser, path, "optimizer"))
    return RunConfig(scenario=scenario, settings=settings)


def _read_optimizer(opt: _SectionReader) -> OptimizerSettings:
    """Optimizer settings from the keys present, each parsed as the type of
    its :class:`OptimizerSettings` default; an unknown key is an error."""
    defaults = {f.name: f.default for f in dataclasses.fields(OptimizerSettings)}
    keys = opt.parser.options(opt.section)
    unknown = [key for key in keys if key not in defaults]
    if unknown:
        raise ConfigurationError(
            f"{opt.path}: unknown [optimizer] key {unknown[0]!r}, expected one of "
            f"{list(defaults)}")
    readers = {bool: opt.boolean, int: opt.integer, float: opt.number}
    return OptimizerSettings(**{key: readers[type(defaults[key])](key) for key in keys})
