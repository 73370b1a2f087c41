"""The benchmark tracer's hooks still find what they wrap.

``bench/tracer.py`` replaces named functions and methods of the package
with timing wrappers (``controllers._solve_deltas``,
``controllers._fold_jacobian``, ``controllers._Predictor.cost``, ...) and
reads each original through ``vars(owner)[name]``.  Renaming or deleting
any of them breaks ``bench/run.py --trace 1`` (``AttributeError`` or ``KeyError``); this
test installs and uninstalls the tracer so that the suite notices first.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from spreadopt import calibration, cli, controllers, simulation, spread

    owners = (calibration.CalibrationModel, cli, controllers, controllers._Predictor,
              controllers.RecedingHorizonController, simulation, spread, spread.PatternParams)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer._restore
        for owner, attr, original in tracer._restore:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
