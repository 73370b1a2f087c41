"""The benchmark tracer's hooks still find what they wrap.

``bench/tracer.py`` replaces named functions and methods of the package
with timing wrappers (``controllers._solve_deltas``,
``controllers._fold_jacobian``, ``controllers._Predictor.cost``, ...) and
reads each original through ``vars(owner)[name]``.  Renaming or deleting
any of them breaks ``bench/run.py --trace 1`` (``AttributeError`` or ``KeyError``); this
test installs and uninstalls the tracer so that the suite notices first.
"""

from pathlib import Path

import numpy as np

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


def test_a_traced_solve_records_its_folds_and_iterations(monkeypatch):
    # bench/run.py reads controllers.fold_s from the controllers.fold spans
    # and max_iter_frac from the iteration counter: a solve that no longer
    # reached the wrapped functions would make both read 0
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from spreadopt import (DEFAULT_CALIBRATION, DEFAULT_CONSTRAINTS, DepositionModel,
                           FieldGrid, OptimizerSettings, TractorState)
    from spreadopt import controllers

    tracer = Tracer()
    tracer.install()
    try:
        grid = FieldGrid(40.0, 10)
        predictor = controllers._Predictor(grid, [TractorState(20.0, 20.0, 0.3)], grid.zeros(),
                                           np.full((10, 10), 4.0), DepositionModel.FULL_NORMAL,
                                           DEFAULT_CALIBRATION)
        prev = np.array([45.0, 45.0, 600.0, 600.0])
        controllers._optimize(predictor, prev, prev[None, :], DEFAULT_CONSTRAINTS,
                              OptimizerSettings())
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["spans"]["controllers.fold"]["calls"] >= 1
    assert summary["spans"]["controllers.solve"]["calls"] == 1
    assert summary["counts"]["iterations"] > 0
