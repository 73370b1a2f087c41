"""Test double for closed-loop runs."""

from spreadopt import ShapeError, SpreaderControls


class ScheduleReplayController:
    """Replays a fixed sequence of controls instead of optimizing.

    Useful for open-loop checks: prediction versus plant, mass accounting,
    and accumulation identities.
    """

    def __init__(self, steps):
        self._steps = list(steps)
        self._next = 0

    def plan_controls(self, plan_tail, applied, prescribed, previous, grid) -> SpreaderControls:
        if self._next >= len(self._steps):
            raise ShapeError("replay schedule exhausted before the run finished")
        controls = self._steps[self._next]
        self._next += 1
        return controls
