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
import pytest

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


@pytest.mark.parametrize("kind", ["greedy", "mpc-triangle", "mpc-full"])
def test_a_traced_run_deposits_the_normal_model_twice_per_step(monkeypatch, kind):
    # the tracer names each spread.disc_deposit span by the model it reads
    # from the call's fifth positional argument; the plant, its only caller
    # in a run, deposits both discs with the full model whatever predicts
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    from spreadopt import (DEFAULT_CALIBRATION, DEFAULT_CONSTRAINTS, DriveCommand, DrivePlan,
                           FieldGrid, OptimizerSettings, Scenario, SpreaderControls,
                           TractorState, simulation)

    grid = FieldGrid(60.0, 12)
    plan = DrivePlan(TractorState(10.0, 30.0, 0.0), (DriveCommand(5.0, 0.0, 3.0),))
    scenario = Scenario(grid, np.full((12, 12), 4.0), plan, 1.0,
                        SpreaderControls(45.0, 45.0, 600.0, 600.0), controller=kind, horizon=2,
                        support="sigma")
    tracer = Tracer()
    tracer.install()
    try:
        record = simulation.run(scenario, DEFAULT_CALIBRATION, DEFAULT_CONSTRAINTS,
                                OptimizerSettings())
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert record.n_steps == 3
    assert spans["simulation.plant_deposit"]["calls"] == record.n_steps
    assert spans["spread.deposit.normal"]["calls"] == 2 * record.n_steps
    assert "spread.deposit.triangle" not in spans
