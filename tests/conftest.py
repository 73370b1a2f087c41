"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property test, so that a
failure in CI draws the same examples, and fails the same way, on any
other machine.  Without the variable, hypothesis draws fresh examples on
each run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
