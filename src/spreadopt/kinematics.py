"""Vehicle motion model for the spreading tractor.

The tractor is a wheeled vehicle driven by a forward speed and a turning
rate.  Poses are advanced with an explicit forward Euler update where the
heading used for the position update is the heading at the start of the
step.  The heading accumulates without wrapping; every downstream consumer
is periodic in it, and an unwrapped angle keeps finite differences across
turn boundaries continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, InvalidStateError

_DURATION_TOL = 1e-9
# the most steps a plan may take: each is one state and one controller decision
MAX_STEPS = 10**6


@dataclass(frozen=True)
class TractorState:
    """Pose of the tractor: position in meters, heading in radians."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        for name in ("x", "y", "heading"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidStateError(f"tractor state field {name!r} is not finite: {value!r}")


@dataclass(frozen=True)
class DriveCommand:
    """One constant-control segment of the drive plan.

    Attributes:
        speed: forward speed in m/s, non-negative.
        turn_rate: heading rate in rad/s, positive turns left.
        duration: segment length in seconds, strictly positive.
    """

    speed: float
    turn_rate: float
    duration: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.speed, self.turn_rate, self.duration)):
            raise InvalidStateError(f"drive command contains non-finite values: {self}")
        if self.speed < 0:
            raise ConfigurationError(f"drive command speed must be non-negative, got {self.speed}")
        if self.duration <= 0:
            raise ConfigurationError(f"drive command duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class DrivePlan:
    """A start pose followed by a sequence of constant-control segments."""

    start: TractorState
    segments: tuple[DriveCommand, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


def step(state: TractorState, command: DriveCommand, dt: float) -> TractorState:
    """Advance one forward Euler step of length ``dt``.

    The position update uses the heading at the start of the step, so a
    zero-speed command leaves the position unchanged regardless of the
    turn rate.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"step size must be positive and finite, got {dt!r}")
    return TractorState(
        x=state.x + math.cos(state.heading) * command.speed * dt,
        y=state.y + math.sin(state.heading) * command.speed * dt,
        heading=state.heading + command.turn_rate * dt,
    )


def trajectory(plan: DrivePlan, dt: float) -> list[TractorState]:
    """Integrate the plan and return states at each multiple of ``dt``.

    The returned list includes both endpoints, so a plan of total duration
    ``T`` yields ``T/dt + 1`` states.  Every segment duration must be an
    integer multiple of ``dt``; mixed-step integration is not supported.
    Every segment's steps are counted before any state is built, and a plan
    of more than :data:`MAX_STEPS` steps is rejected.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"step size must be positive and finite, got {dt!r}")
    counts = []
    for seg in plan.segments:
        # a dt so small that the count overflows is not a multiple either
        ratio = seg.duration / dt
        n_steps = round(ratio) if math.isfinite(ratio) else 0
        if n_steps < 1 or abs(n_steps * dt - seg.duration) > _DURATION_TOL * max(1.0, seg.duration):
            raise ConfigurationError(
                f"segment duration {seg.duration} is not an integer multiple of dt={dt}"
            )
        counts.append(n_steps)
    if sum(counts) > MAX_STEPS:
        raise ConfigurationError(
            f"dt={dt} gives the plan {sum(counts)} steps, more than the {MAX_STEPS} allowed")
    states = [plan.start]
    for seg, n_steps in zip(plan.segments, counts):
        for _ in range(n_steps):
            states.append(step(states[-1], seg, dt))
    return states
