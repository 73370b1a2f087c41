import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spreadopt
from spreadopt import (ConfigurationError, ControllerKind, DepositionModel, DepositScaling,
                       NumericalFailureError, OptimizerSettings, TriangleSupport)
from spreadopt.cli import main
from spreadopt.config import default_calibration_path, load_scenario
from spreadopt.controllers import RecedingHorizonController
from spreadopt.simulation import read_trace

TINY_SCENARIO = """\
[field]
side_length = 40
n_cells = 8
origin_x = 0
origin_y = 0

[prescription]
uniform = 20

[plan]
start_x = 6
start_y = 20
start_heading = 0
segments =
    5 0 3

[run]
dt = 1
controller = greedy
horizon = 2
scaling = literal

[controls]
flow_left = 45
flow_right = 45
rpm_left = 600
rpm_right = 600
"""

BAD_CALIBRATION = """\
[pattern]
distance = 0.02 3
sigma_distance = 0 0.0033333333333333335 0
angle = 1e-7 0 pi/4
sigma_angle = 1e-8 0 -0.3

[constraints]
flow_min = 0
flow_max = 200
rpm_min = 300
rpm_max = 900
flow_rate_max = 20
rpm_rate_max = 100
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENARIO)
    return path


def run_cli(args, cwd):
    """Run the command line in a fresh interpreter; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=str(Path(spreadopt.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "spreadopt.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def summary_pairs(path):
    pairs = []
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs.append((key, value))
    return pairs


def test_run_writes_the_output_files(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    assert (out / "A.csv").exists()
    assert (out / "trace.csv").exists()
    assert (out / "summary.txt").exists()
    assert "final cost" in capsys.readouterr().out


def test_run_summary_lists_the_resolved_configuration(scenario_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    pairs = summary_pairs(out / "summary.txt")
    table = dict(pairs)
    assert table["command"] == "run"
    assert table["controller"] == "greedy"
    assert table["n_steps"] == "3"
    assert float(table["final_cost"]) > 0
    assert len(table["settings_hash"]) == 64
    assert table["field.n_cells"] == "8"
    assert table["run.dt"] == "1.0"
    assert table["run.horizon"] == "2"
    assert pairs[-1][0] == "wall_clock.controller_seconds"


def test_run_controller_override_and_horizon_warning(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--controller", "greedy", "--horizon", "5"])
    assert code == 0
    assert "ignored by the greedy controller" in capsys.readouterr().err


def test_horizon_warning_follows_the_scenario_files_controller(scenario_file, tmp_path,
                                                                capsys):
    # the tiny scenario's own controller is greedy
    assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "g"),
                 "--horizon", "3"]) == 0
    assert "--horizon is ignored by the greedy controller" in capsys.readouterr().err
    assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "m"),
                 "--controller", "mpc-full", "--horizon", "3"]) == 0
    assert "ignored" not in capsys.readouterr().err


def test_missing_calibration_file_fails_cleanly(scenario_file, tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
                 "--calibration", str(missing)])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_missing_scenario_file_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "gone.ini"
    code = main(["run", "--scenario", str(missing), "--out", str(tmp_path / "o")])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_missing_prescription_map_fails_cleanly(tmp_path):
    scenario = tmp_path / "mapped.ini"
    scenario.write_text(TINY_SCENARIO.replace("uniform = 20", "file = missing.csv"))
    done = run_cli(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert str(tmp_path / "missing.csv") in done.stderr
    assert "Traceback" not in done.stderr


def test_negative_seed_fails_cleanly(scenario_file, tmp_path):
    done = run_cli(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
                    "--seed", "-1", "--restarts", "1"], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "seed" in done.stderr
    assert "Traceback" not in done.stderr


def test_malformed_scenario_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[field]\nside_length = forty\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_calibration_names_the_problem(scenario_file, tmp_path, capsys):
    bad = tmp_path / "bad_cal.ini"
    bad.write_text(BAD_CALIBRATION)
    code = main(["validate", "--scenario", str(scenario_file), "--calibration", str(bad)])
    assert code == 1
    assert "sigma_angle" in capsys.readouterr().err


@pytest.mark.parametrize("line, broken", [("flow_min = 0", "flow_min = -1"),
                                          ("distance = 0.02 3", "distance = 0.02 nan")])
def test_invalid_calibration_values_name_the_file(scenario_file, tmp_path, line, broken):
    bad = tmp_path / "bad_values.ini"
    bad.write_text(default_calibration_path().read_text().replace(line, broken))
    done = run_cli(["validate", "--scenario", str(scenario_file), "--calibration", str(bad)],
                   tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert str(bad) in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("file, line, broken, key", [
    ("scenario", "dt = 1", "dt = pi/0", "run.dt"),
    ("calibration", "flow_max = 200", "flow_max = pi/0", "constraints.flow_max"),
    ("scenario", "n_cells = 8", "n_cells = nan", "field.n_cells"),
    ("scenario", "horizon = 2", "horizon = inf", "run.horizon"),
    ("scenario", "scaling = literal", "scaling = literal\n[optimizer]\nmax_iterations = nan",
     "optimizer.max_iterations"),
    ("scenario", "scaling = literal", "scaling = literal\n[optimizer]\nrestarts = inf",
     "optimizer.restarts"),
])
def test_validate_rejects_a_bad_number_by_its_key(tmp_path, file, line, broken, key):
    texts = {"scenario": TINY_SCENARIO, "calibration": default_calibration_path().read_text()}
    assert line in texts[file]
    texts[file] = texts[file].replace(line, broken)
    for name, text in texts.items():
        (tmp_path / f"{name}.ini").write_text(text)
    done = run_cli(["validate", "--scenario", str(tmp_path / "scenario.ini"),
                    "--calibration", str(tmp_path / "calibration.ini")], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert key in done.stderr
    assert "Traceback" not in done.stderr


def test_validate_echoes_the_configuration_and_says_ok(scenario_file, capsys):
    code = main(["validate", "--scenario", str(scenario_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "field.n_cells = 8" in out
    assert "run.dt = 1.0" in out
    assert "run.horizon = 2" in out
    assert out.rstrip().endswith("ok")


def test_validate_flags_initial_controls_outside_the_boxes(tmp_path, capsys):
    path = tmp_path / "hot.ini"
    path.write_text(TINY_SCENARIO.replace("flow_left = 45", "flow_left = 300"))
    code = main(["validate", "--scenario", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "problem:" in captured.err
    assert "ok" not in captured.out.splitlines()[-1]


def test_validate_the_builtin_scenario(capsys):
    code = main(["validate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "field.n_cells = 90" in out
    assert "run.controller = mpc-full" in out


def test_compare_subset_writes_ranking_and_per_controller_outputs(scenario_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--scenario", str(scenario_file), "--out", str(out),
                 "--only", "greedy,mpc-full"])
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "controller,final_cost,wall_clock"
    assert len(lines) == 3
    assert lines[1].startswith("greedy,")
    assert lines[2].startswith("mpc-full,")
    for name in ("greedy", "mpc-full"):
        assert (out / name / "trace.csv").exists()
        assert (out / name / "summary.txt").exists()
    assert "ranking = " in (out / "summary.txt").read_text()
    stdout = capsys.readouterr().out
    assert "greedy: final cost" in stdout


def test_compare_with_an_empty_only_list_is_a_usage_error(scenario_file, tmp_path, capsys):
    code = main(["compare", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "o"), "--only", " , "])
    assert code == 1
    assert "--only" in capsys.readouterr().err


def test_compare_with_an_unknown_controller_fails(scenario_file, tmp_path, capsys):
    code = main(["compare", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "o"), "--only", "wizard"])
    assert code == 1
    assert "wizard" in capsys.readouterr().err


def test_unknown_controller_choice_is_a_usage_error(scenario_file, tmp_path, capsys):
    code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
                 "--controller", "wizard"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


RUN_CHOICES = [("controller", ControllerKind), ("scaling", DepositScaling),
               ("triangle_support", TriangleSupport)]


def scenario_with_run_key(tmp_path, key, value):
    lines = [line for line in TINY_SCENARIO.splitlines() if not line.startswith(f"{key} =")]
    lines.insert(lines.index("[run]") + 1, f"{key} = {value}")
    path = tmp_path / "choice.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("key, kind", RUN_CHOICES)
def test_unknown_run_choice_names_the_key_and_the_allowed_values(tmp_path, key, kind):
    with pytest.raises(ConfigurationError) as excinfo:
        load_scenario(scenario_with_run_key(tmp_path, key, "bogus"))
    message = str(excinfo.value)
    assert f"unknown {key} 'bogus'" in message
    for member in kind:
        assert repr(member.value) in message


@pytest.mark.parametrize("key, kind", RUN_CHOICES)
def test_every_run_choice_value_is_accepted(tmp_path, key, kind):
    attr = {"triangle_support": "support"}.get(key, key)
    for member in kind:
        config = load_scenario(scenario_with_run_key(tmp_path, key, member.value))
        assert getattr(config.scenario, attr) is member


def test_triangle_support_defaults_to_unit(scenario_file):
    assert "triangle_support" not in TINY_SCENARIO
    assert load_scenario(scenario_file).scenario.support is TriangleSupport.UNIT


OPTIMIZER_SECTION = """
[optimizer]
max_iterations = 7
gradient_tolerance = 1e-4
step_tolerance = 1e-8
finite_diff_epsilon = 1e-3
gauss_newton = false
restarts = 2
seed = 5
"""


def test_every_optimizer_key_is_read(tmp_path):
    path = tmp_path / "tuned.ini"
    path.write_text(TINY_SCENARIO + OPTIMIZER_SECTION)
    expected = OptimizerSettings(max_iterations=7, gradient_tolerance=1e-4, step_tolerance=1e-8,
                                 finite_diff_epsilon=1e-3, gauss_newton=False, restarts=2,
                                 seed=5)
    defaults = OptimizerSettings()
    assert all(getattr(expected, name) != getattr(defaults, name)
               for name in OptimizerSettings.__dataclass_fields__)
    assert load_scenario(path).settings == expected


def test_unknown_optimizer_key_names_the_key_and_the_allowed_keys(tmp_path):
    path = tmp_path / "typo.ini"
    path.write_text(TINY_SCENARIO + OPTIMIZER_SECTION.replace("max_iterations", "max_iteration"))
    with pytest.raises(ConfigurationError) as excinfo:
        load_scenario(path)
    message = str(excinfo.value)
    assert "'max_iteration'" in message
    for name in OptimizerSettings.__dataclass_fields__:
        assert repr(name) in message


def test_horizon_must_be_positive(scenario_file, tmp_path, capsys):
    code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
                 "--horizon", "0"])
    assert code == 1
    assert "--horizon" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_repeated_runs_are_byte_identical(scenario_file, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out),
                     "--controller", "mpc-full"])
        assert code == 0
    assert (first / "A.csv").read_bytes() == (second / "A.csv").read_bytes()
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
    hash_of = lambda p: dict(summary_pairs(p / "summary.txt"))["settings_hash"]
    assert hash_of(first) == hash_of(second)


def test_settings_hash_ignores_where_the_input_files_live(tmp_path):
    calibration = default_calibration_path().read_text()

    def summary_of(name, scenario_text):
        inputs = tmp_path / name
        inputs.mkdir()
        (inputs / "tiny.ini").write_text(scenario_text)
        (inputs / "calibration.ini").write_text(calibration)
        out = tmp_path / f"{name}-out"
        assert main(["run", "--scenario", str(inputs / "tiny.ini"),
                     "--calibration", str(inputs / "calibration.ini"), "--out", str(out)]) == 0
        return dict(summary_pairs(out / "summary.txt"))

    first = summary_of("a", TINY_SCENARIO)
    second = summary_of("b", TINY_SCENARIO)
    assert first["scenario_file"] != second["scenario_file"]
    assert first["calibration_file"] != second["calibration_file"]
    assert first["settings_hash"] == second["settings_hash"]
    changed = summary_of("c", TINY_SCENARIO.replace("horizon = 2", "horizon = 3"))
    assert changed["settings_hash"] != first["settings_hash"]


def test_repeated_comparisons_are_byte_identical(scenario_file, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        code = main(["compare", "--scenario", str(scenario_file), "--out", str(out),
                     "--only", "greedy,mpc-triangle"])
        assert code == 0
    left = (first / "comparison.csv").read_text().splitlines()
    right = (second / "comparison.csv").read_text().splitlines()
    assert len(left) == len(right) == 3
    for a, b in zip(left[1:], right[1:]):
        assert a.split(",")[:2] == b.split(",")[:2]  # cost column bitwise


def test_verbose_run_writes_a_log_file(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out), "--verbose"])
    assert code == 0
    assert (out / "run.log").exists()
    assert (out / "run.log").stat().st_size > 0


def test_a_plain_run_after_a_verbose_one_turns_debug_logging_off(scenario_file, tmp_path):
    logger = logging.getLogger("spreadopt")
    assert main(["validate", "--scenario", str(scenario_file), "--out", str(tmp_path / "v"),
                 "--verbose"]) == 0
    assert logger.isEnabledFor(logging.DEBUG)
    assert main(["validate", "--scenario", str(scenario_file), "--out", str(tmp_path / "p")]) == 0
    assert not logger.isEnabledFor(logging.DEBUG)
    assert not logger.handlers


# --- failure paths ------------------------------------------------------------

def failing_plan_controls(monkeypatch, fails):
    """Make ``plan_controls`` raise a numerical failure wherever
    ``fails(controller, step)`` holds; steps count from 1 per controller."""
    real = RecedingHorizonController.plan_controls
    steps = {}

    def plan_controls(self, *args, **kwargs):
        steps[id(self)] = step = steps.get(id(self), 0) + 1
        if fails(self, step):
            raise NumericalFailureError("injected failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RecedingHorizonController, "plan_controls", plan_controls)


def test_an_aborted_run_writes_its_partial_record_and_a_diagnostic(scenario_file, tmp_path,
                                                                   monkeypatch, capsys):
    failing_plan_controls(monkeypatch, lambda controller, step: step == 2)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 2
    assert "step 2" in capsys.readouterr().err
    assert len(read_trace(out / "trace.csv")["k"]) == 1
    assert np.loadtxt(out / "A.csv", delimiter=",").shape == (8, 8)
    assert dict(summary_pairs(out / "summary.txt"))["n_steps"] == "1"
    assert "step 2" in (out / "diagnostic.txt").read_text()


def test_a_failed_compare_variant_leaves_the_others_complete(scenario_file, tmp_path,
                                                              monkeypatch, capsys):
    failing_plan_controls(
        monkeypatch, lambda controller, step: controller.model is DepositionModel.TRIANGLE)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario_file), "--out", str(out),
                 "--only", "greedy,mpc-triangle,mpc-full"]) == 3
    assert "at least one variant failed" in capsys.readouterr().err
    rows = {line.split(",")[0]: line.split(",")[1]
            for line in (out / "comparison.csv").read_text().splitlines()[1:]}
    assert rows["mpc-triangle"] == "nan"
    assert (out / "mpc-triangle" / "diagnostic.txt").exists()
    for name in ("greedy", "mpc-full"):
        assert float(rows[name]) > 0
        assert len(read_trace(out / name / "trace.csv")["k"]) == 3
        assert not (out / name / "diagnostic.txt").exists()
    ranking = dict(summary_pairs(out / "summary.txt"))["ranking"].split()
    assert sorted(ranking) == ["greedy", "mpc-full"]


@pytest.mark.parametrize("only, warns", [("greedy", True), ("mpc-full", False)])
def test_compare_warns_when_greedy_ignores_the_horizon(scenario_file, tmp_path, capsys, only,
                                                       warns):
    assert main(["compare", "--scenario", str(scenario_file), "--out", str(tmp_path / "cmp"),
                 "--only", only, "--horizon", "3"]) == 0
    err = capsys.readouterr().err
    assert err.count("--horizon is ignored by the greedy controller") == int(warns)


@pytest.mark.parametrize("argv", [["run"], ["compare", "--only", "greedy"],
                                  ["run", "--verbose"]])
def test_an_unwritable_out_fails_before_any_decision(scenario_file, tmp_path, monkeypatch,
                                                      capsys, argv):
    def no_decision(self, *args, **kwargs):
        raise AssertionError("plan_controls called before --out was checked")

    monkeypatch.setattr(RecedingHorizonController, "plan_controls", no_decision)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    code = main([*argv, "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert str(out) in err[0]
