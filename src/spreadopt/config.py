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
from .errors import ConfigurationError, SpreadOptError
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


def read_ini(path, kind: str, sections: dict[str, tuple[str, ...]]) -> configparser.ConfigParser:
    """Parse the ``kind`` file (such as ``"scenario file"``) at ``path``.

    ``sections`` maps each section the file must have to its keys.  An
    unknown section or key is an error, ``[DEFAULT]`` included, and keys
    and values are read as written, with no case folding or ``%`` interpolation.
    """
    # no header names the empty section, so [DEFAULT] is not merged into the others
    parser = configparser.ConfigParser(interpolation=None, default_section="",
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"{kind} not found: {path}")
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigurationError(f"could not read {kind} {path}: {exc.strerror or exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"could not parse {path}: {exc}") from exc
    for section in parser.sections():
        if section not in sections:
            raise ConfigurationError(
                f"{path}: unknown section [{section}], expected one of {list(sections)}")
        unknown = [key for key in parser.options(section) if key not in sections[section]]
        if unknown:
            raise ConfigurationError(
                f"{path}: unknown [{section}] key {unknown[0]!r}, expected one of "
                f"{list(sections[section])}")
    for section in sections:
        if not parser.has_section(section):
            raise ConfigurationError(f"{kind} {path} is missing [{section}]")
    return parser


def field_names(cls) -> tuple[str, ...]:
    """The keys of the INI section that dataclass ``cls`` is read from."""
    return tuple(f.name for f in dataclasses.fields(cls))


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

    def raw(self, key: str) -> str:
        value = self.parser.get(self.section, key, fallback=None)
        if value is None:
            raise ConfigurationError(f"{self.path}: missing [{self.section}] key {key!r}")
        return value

    def _parse(self, key: str, parse):
        raw = self.raw(key)
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {self.section}.{key} in {self.path}: {exc}") from exc

    def number(self, key: str) -> float:
        return self._parse(key, parse_number)

    def numbers(self, key: str) -> tuple[float, ...]:
        """Whitespace-separated numbers, such as polynomial coefficients."""
        return self._parse(key, lambda raw: tuple(map(parse_number, raw.split())))

    def boolean(self, key: str) -> bool:
        return self._parse(key, parse_bool)

    def choice(self, key: str, kind: type[enum.Enum]) -> enum.Enum:
        """The member of ``kind`` named by ``key``."""
        name = self.raw(key).strip()
        try:
            return kind(name)
        except ValueError:
            raise ConfigurationError(
                f"{self.path}: unknown {key} {name!r}, expected one of "
                f"{[member.value for member in kind]}") from None

    def instance(self, cls):
        """Dataclass ``cls`` from this section, one key per field: a boolean
        field parsed as one, any other as a number, which ``cls`` checks."""
        readers = {"bool": self.boolean}
        return self.build(cls, **{f.name: readers.get(f.type, self.number)(f.name)
                                  for f in dataclasses.fields(cls)})

    def build(self, cls, *args, **kwargs):
        """``cls(*args, **kwargs)`` from values read in this section, with
        an invalid value reported by this file and section."""
        try:
            return cls(*args, **kwargs)
        except SpreadOptError as exc:
            raise ConfigurationError(f"{self.path}: [{self.section}] {exc}") from None


_SCENARIO_SECTIONS = {
    "field": ("side_length", "n_cells", "origin_x", "origin_y"),
    "prescription": ("uniform", "file"),
    "plan": ("start_x", "start_y", "start_heading", "segments"),
    "run": ("dt", "controller", "horizon", "scaling", "triangle_support"),
    "controls": field_names(SpreaderControls),
    "optimizer": field_names(OptimizerSettings),
}


def load_scenario(path) -> RunConfig:
    """Read a scenario file into a :class:`Scenario` and optimizer settings.

    Sections: ``[field]`` (geometry), ``[prescription]`` (``uniform`` grams
    or a CSV ``file`` relative to the scenario), ``[plan]`` (start pose and
    ``segments``, one ``speed turn_rate duration`` triple per line),
    ``[run]`` (dt, controller, horizon, scaling, triangle_support),
    ``[controls]`` (initial per-disc flow and RPM) and ``[optimizer]``.
    Every key is required, except that ``[prescription]`` takes just one.
    """
    path = Path(path)
    parser = read_ini(path, "scenario file", _SCENARIO_SECTIONS)

    field_sec = _SectionReader(parser, path, "field")
    grid = field_sec.build(
        FieldGrid,
        side_length=field_sec.number("side_length"),
        n_cells=field_sec.number("n_cells"),
        origin=(field_sec.number("origin_x"), field_sec.number("origin_y")),
    )

    prescription_sec = _SectionReader(parser, path, "prescription")
    uniform = parser.get("prescription", "uniform", fallback=None)
    source = parser.get("prescription", "file", fallback=None)
    if (uniform is None) == (source is None):
        raise ConfigurationError(
            f"{path}: [prescription] needs exactly one of 'uniform' or 'file'")
    if uniform is not None:
        level = prescription_sec.number("uniform")
        if not 0 <= level < math.inf:
            raise ConfigurationError(f"{path}: [prescription] uniform must be finite and "
                                     "non-negative")
        try:
            prescription = grid.zeros() + level
        except MemoryError:
            raise ConfigurationError(
                f"{path}: [field] n_cells = {grid.n_cells} gives a field too large to "
                "allocate") from None
    else:
        prescription = load_map(path.parent / source, grid)

    plan_sec = _SectionReader(parser, path, "plan")
    start = plan_sec.build(TractorState, plan_sec.number("start_x"), plan_sec.number("start_y"),
                           plan_sec.number("start_heading"))
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
        segments.append(plan_sec.build(DriveCommand, speed, turn_rate, duration))
    if not segments:
        raise ConfigurationError(f"{path}: plan.segments is empty")
    plan = DrivePlan(start=start, segments=tuple(segments))

    run_sec = _SectionReader(parser, path, "run")
    scenario = run_sec.build(
        Scenario,
        grid=grid,
        prescription=prescription,
        plan=plan,
        dt=run_sec.number("dt"),
        initial_controls=_SectionReader(parser, path, "controls").instance(SpreaderControls),
        controller=run_sec.choice("controller", ControllerKind),
        horizon=run_sec.number("horizon"),
        scaling=run_sec.choice("scaling", DepositScaling),
        support=run_sec.choice("triangle_support", TriangleSupport),
    )

    settings = _SectionReader(parser, path, "optimizer").instance(OptimizerSettings)
    return RunConfig(scenario=scenario, settings=settings)
