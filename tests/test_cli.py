import contextlib
import dataclasses
import io
import logging
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spreadopt
from spreadopt import (ConfigurationError, ControllerKind, DepositionModel, DepositScaling,
                       NumericalFailureError, OptimizerSettings)
from spreadopt.cli import main
from spreadopt.calibration import _PATTERN_KEYS, ControlConstraints
from spreadopt.config import (_SCENARIO_SECTIONS, default_calibration_path,
                              default_scenario_path, field_names, load_scenario)
from spreadopt.controllers import RecedingHorizonController
from spreadopt.field import MAX_N_CELLS
from spreadopt.simulation import read_trace
from spreadopt.spread import TriangleSupport

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
triangle_support = sigma

[controls]
flow_left = 45
flow_right = 45
rpm_left = 600
rpm_right = 600

[optimizer]
max_iterations = 60
gradient_tolerance = 1e-6
step_tolerance = 1e-10
finite_diff_epsilon = 1e-5
gauss_newton = true
restarts = 0
seed = 0
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


REMOVED_FLAGS = [("run", ["--restarts", "1"]), ("run", ["--controller", "greedy"]),
                 ("run", ["--horizon", "3"]), ("compare", ["--horizon", "3"]),
                 ("validate", ["--horizon", "3"]), ("validate", ["--out", "o"]),
                 ("validate", ["--verbose"])]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{command}{flag[0]}" for command, flag in REMOVED_FLAGS])
def test_a_removed_flag_is_a_usage_error(scenario_file, tmp_path, command, flag):
    # the scenario file alone sets the run, and validate writes nothing;
    # argparse alone would exit 2
    done = run_cli([command, "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
                    *flag], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert flag[0] in done.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("prefix, args", [
    ("--scen", ["validate", "--scen", "tiny.ini"]),
    ("--verb", ["run", "--scenario", "tiny.ini", "--verb"]),
    ("--onl", ["compare", "--scenario", "tiny.ini", "--onl", "greedy"]),
], ids=["validate--scen", "run--verb", "compare--onl"])
def test_an_option_is_taken_only_as_spelled_in_full(scenario_file, tmp_path, prefix, args):
    # scenario_file is tiny.ini in tmp_path, and --out defaults to ./out
    done = run_cli(args, tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert prefix in done.stderr
    assert not (tmp_path / "out").exists()


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
                                          ("distance = 0.02 3", "distance = 0.02 nan"),
                                          # validation memory must not grow with the box
                                          ("rpm_max = 900", "rpm_max = 1e15")])
def test_invalid_calibration_values_name_the_file(scenario_file, tmp_path, line, broken):
    bad = tmp_path / "bad_values.ini"
    bad.write_text(default_calibration_path().read_text().replace(line, broken))
    done = run_cli(["validate", "--scenario", str(scenario_file), "--calibration", str(bad)],
                   tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert str(bad) in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("file, line, broken, key", [
    ("scenario", "dt = 1", "dt = pi/0", "run.dt"),
    ("calibration", "flow_max = 200", "flow_max = pi/0", "constraints.flow_max"),
    ("scenario", "n_cells = 8", "n_cells = nan", "[field] n_cells"),
    ("scenario", "horizon = 2", "horizon = inf", "[run] horizon"),
    pytest.param("scenario", "max_iterations = 60", "max_iterations = nan",
                 "[optimizer] max_iterations", id="optimizer-max_iterations"),
    pytest.param("scenario", "restarts = 0", "restarts = inf", "[optimizer] restarts",
                 id="optimizer-restarts"),
    pytest.param("scenario", "seed = 0", "seed = -1", "[optimizer] seed", id="optimizer-seed"),
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
    costs = {}
    for line in lines[1:]:
        name, final_cost, wall_clock = line.split(",")
        assert (out / name / "trace.csv").exists()
        # each row is what that variant's own summary says
        summary = dict(summary_pairs(out / name / "summary.txt"))
        assert final_cost == summary["final_cost"]
        assert abs(float(wall_clock) - float(summary["wall_clock.controller_seconds"])) <= 5e-7
        costs[name] = float(final_cost)
    ranking = dict(summary_pairs(out / "summary.txt"))["ranking"].split()
    assert ranking == sorted(costs, key=costs.get)
    stdout = capsys.readouterr().out
    assert "greedy: final cost" in stdout


def test_compare_varies_only_the_controller(scenario_file, tmp_path, monkeypatch):
    import spreadopt.cli

    # the file names greedy; each run must see the kind it was asked for,
    # in --only order, and otherwise the file's scenario unchanged
    seen = []
    real_run = spreadopt.cli.run

    def spy(scenario, cal, constraints, settings, controller=None):
        seen.append(scenario)
        return real_run(scenario, cal, constraints, settings, controller)

    monkeypatch.setattr(spreadopt.cli, "run", spy)
    assert main(["compare", "--scenario", str(scenario_file), "--out", str(tmp_path / "cmp"),
                 "--only", "mpc-full,mpc-triangle"]) == 0
    assert [s.controller for s in seen] == [ControllerKind.MPC_FULL, ControllerKind.MPC_TRIANGLE]
    base = load_scenario(scenario_file).scenario
    for scenario in seen:
        assert scenario.prescription is seen[0].prescription
        assert np.array_equal(scenario.prescription, base.prescription)
        for field in dataclasses.fields(base):
            if field.name not in ("controller", "prescription"):
                assert getattr(scenario, field.name) == getattr(base, field.name), field.name


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


def test_compare_with_a_repeated_controller_fails_before_any_decision(scenario_file, tmp_path,
                                                                      monkeypatch, capsys):
    # each controller writes into its own directory, which a repeat would overwrite
    def no_decision(self, *args, **kwargs):
        raise AssertionError("plan_controls called before --only was checked")

    monkeypatch.setattr(RecedingHorizonController, "plan_controls", no_decision)
    out = tmp_path / "o"
    code = main(["compare", "--scenario", str(scenario_file), "--out", str(out),
                 "--only", "greedy,mpc-full,greedy"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "greedy" in err[0] and "mpc-full" not in err[0]
    assert not out.exists()


RUN_CHOICES = [("controller", ControllerKind), ("scaling", DepositScaling),
               ("triangle_support", TriangleSupport)]


def scenario_with_run_key(tmp_path, key, value, name="choice.ini"):
    lines = [line for line in TINY_SCENARIO.splitlines() if not line.startswith(f"{key} =")]
    lines.insert(lines.index("[run]") + 1, f"{key} = {value}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("key, kind", RUN_CHOICES)
def test_unknown_run_choice_names_the_key_and_the_allowed_values(tmp_path, key, kind, capsys):
    # unit is the triangle support that older scenario files may still hold
    for value in ("bogus", "unit") if key == "triangle_support" else ("bogus",):
        path = scenario_with_run_key(tmp_path, key, value)
        with pytest.raises(ConfigurationError) as excinfo:
            load_scenario(path)
        message = str(excinfo.value)
        assert f"unknown {key} {value!r}" in message
        for member in kind:
            assert repr(member.value) in message
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("key, kind", RUN_CHOICES)
def test_every_run_choice_value_is_accepted(tmp_path, key, kind):
    attr = {"triangle_support": "support"}.get(key, key)
    for member in kind:
        config = load_scenario(scenario_with_run_key(tmp_path, key, member.value))
        assert getattr(config.scenario, attr) is member


OPTIMIZER_SECTION = """
[optimizer]
max_iterations = 7
gradient_tolerance = 1e-6
step_tolerance = 1e-10
finite_diff_epsilon = 1e-5
gauss_newton = true
restarts = 0
seed = 0
"""


def with_optimizer(section):
    """The tiny scenario with ``section`` in place of its ``[optimizer]``."""
    return TINY_SCENARIO.partition("\n[optimizer]\n")[0] + section


def test_every_optimizer_key_is_read(tmp_path):
    path = tmp_path / "tuned.ini"
    path.write_text(with_optimizer(OPTIMIZER_SECTION))
    expected = OptimizerSettings(max_iterations=7)
    defaults = OptimizerSettings()
    # the other keys accept only their shipped values, the defaults
    live = ("max_iterations",)
    assert all(getattr(expected, name) != getattr(defaults, name) for name in live)
    assert load_scenario(path).settings == expected


@pytest.mark.parametrize("line", ["gradient_tolerance = 1e-4", "gradient_tolerance = nan",
                                  "step_tolerance = 1e-8", "finite_diff_epsilon = 1e-3",
                                  "gauss_newton = false", "restarts = 1", "restarts = inf",
                                  "seed = 5", "seed = nan"])
def test_a_pinned_optimizer_key_accepts_only_its_shipped_value(tmp_path, capsys, line):
    key, _, value = line.partition(" = ")
    shipped = re.search(rf"^{key} = .*$", TINY_SCENARIO, re.MULTILINE).group()
    code, err = validate_with(tmp_path, capsys,
                              scenario=TINY_SCENARIO.replace(shipped, line))
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert key in err[0]
    # the library rejects the value as written, a string included
    with pytest.raises(ConfigurationError, match=key):
        OptimizerSettings(**{key: value})


def test_the_packaged_optimizer_section_is_the_in_code_default():
    # the command line runs the packaged file, the library OptimizerSettings()
    assert load_scenario(default_scenario_path()).settings == OptimizerSettings()


def test_the_packaged_run_section_is_the_scenario_default():
    # the command line runs the packaged [run] section, the library a
    # Scenario that leaves these fields out
    packaged = load_scenario(default_scenario_path()).scenario
    names = ("controller", "horizon", "scaling", "support")
    defaults = {field.name: field.default for field in dataclasses.fields(packaged)}
    assert {name: defaults[name] for name in names} == {name: getattr(packaged, name)
                                                        for name in names}


def test_unknown_optimizer_key_names_the_key_and_the_allowed_keys(tmp_path):
    path = tmp_path / "typo.ini"
    path.write_text(with_optimizer(OPTIMIZER_SECTION.replace("max_iterations", "max_iteration")))
    with pytest.raises(ConfigurationError) as excinfo:
        load_scenario(path)
    message = str(excinfo.value)
    assert "'max_iteration'" in message
    for name in OptimizerSettings.__dataclass_fields__:
        assert repr(name) in message


def with_line_after(text, header, line):
    assert header in text
    return text.replace(header, f"{header}\n{line}", 1)


INPUT_FILES = {"scenario": default_scenario_path, "calibration": default_calibration_path}


def validate_with(tmp_path, capsys, **texts):
    """``spreadopt validate`` on the default inputs, with the file of each
    keyword replaced by its text; returns the exit code and stderr lines."""
    argv = ["validate"]
    for name, text in texts.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        argv += [f"--{name}", str(path)]
    code = main(argv)
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("file, section", [
    ("scenario", "field"), ("scenario", "prescription"), ("scenario", "plan"),
    ("scenario", "run"), ("scenario", "controls"), ("scenario", "optimizer"),
    ("calibration", "pattern"), ("calibration", "constraints"),
])
def test_an_unknown_key_is_rejected_in_every_section(tmp_path, capsys, file, section):
    text = with_line_after(INPUT_FILES[file]().read_text(), f"[{section}]", "bogus = 1")
    code, err = validate_with(tmp_path, capsys, **{file: text})
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert f"[{section}]" in err[0] and "'bogus'" in err[0]


@pytest.mark.parametrize("file, line, written, section", [
    ("scenario", "horizon = 5\n", "HORIZON = 7\n", "run"),
    ("calibration", "flow_max = 200\n", "FLOW_MAX = 200\n", "constraints"),
], ids=["scenario-HORIZON", "calibration-FLOW_MAX"])
def test_a_key_is_matched_as_written(tmp_path, capsys, file, line, written, section):
    # an upper-case key is unknown, not read as its lower-case namesake
    text = INPUT_FILES[file]().read_text()
    assert text.count(line) == 1
    code, err = validate_with(tmp_path, capsys, **{file: text.replace(line, written)})
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert f"unknown [{section}] key {written.split()[0]!r}" in err[0]


@pytest.mark.parametrize("file, section", [("scenario", "optimiser"), ("calibration", "limits")])
def test_an_unknown_section_is_rejected(tmp_path, capsys, file, section):
    text = INPUT_FILES[file]().read_text() + f"\n[{section}]\nseed = 1\n"
    code, err = validate_with(tmp_path, capsys, **{file: text})
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert f"unknown section [{section}]" in err[0]


def without_key(text, key):
    """``text`` without the line that sets ``key`` and its continuation lines."""
    kept, dropping = [], False
    for line in text.splitlines(keepends=True):
        continued = dropping and line[:1] in " \t" and bool(line.strip())
        dropping = line.startswith(f"{key} =") or continued
        if not dropping:
            kept.append(line)
    return "".join(kept)


# the [prescription] keys are either-or, so neither is required on its own
REQUIRED_KEYS = [(file, section, key) for file, sections in [
    ("scenario", _SCENARIO_SECTIONS),
    ("calibration", {"pattern": tuple(_PATTERN_KEYS),
                     "constraints": field_names(ControlConstraints)}),
] for section, keys in sections.items() if section != "prescription" for key in keys]


@pytest.mark.parametrize("file, section, key", REQUIRED_KEYS,
                         ids=[f"{section}-{key}" for _, section, key in REQUIRED_KEYS])
def test_every_key_is_required(tmp_path, capsys, file, section, key):
    shipped = INPUT_FILES[file]().read_text()
    text = without_key(shipped, key)
    assert len(text.splitlines()) < len(shipped.splitlines())
    code, err = validate_with(tmp_path, capsys, **{file: text})
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert f"missing [{section}] key {key!r}" in err[0]


@pytest.mark.parametrize("file, line, broken, named", [
    ("scenario", "controller = mpc-full", "controller = mpc%full", "'mpc%full'"),
    ("calibration", "sigma_angle = 1e-8 0 0.3", "sigma_angle = 1e-8 0 0.3%", "'0.3%'"),
])
def test_a_percent_sign_is_read_as_written(tmp_path, file, line, broken, named):
    # no interpolation: the value is rejected as itself, with no traceback
    text = INPUT_FILES[file]().read_text()
    assert line in text
    (tmp_path / f"{file}.ini").write_text(text.replace(line, broken))
    done = run_cli(["validate", f"--{file}", str(tmp_path / f"{file}.ini")], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert named in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("file", INPUT_FILES)
@pytest.mark.parametrize("body", ["", "horizon = 3\n"])
def test_a_default_section_is_rejected_by_name(tmp_path, capsys, file, body):
    text = f"[DEFAULT]\n{body}\n" + INPUT_FILES[file]().read_text()
    code, err = validate_with(tmp_path, capsys, **{file: text})
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert "unknown section [DEFAULT]" in err[0]


# 1e-320 makes each segment's step count overflow to infinity
@pytest.mark.parametrize("dt", ["0.3", "1e-320"])
def test_validate_flags_a_plan_that_does_not_integrate_at_dt(tmp_path, capsys, dt):
    # run makes the same check before its first decision
    text = default_scenario_path().read_text()
    assert "dt = 1\n" in text
    path = tmp_path / "scenario.ini"
    path.write_text(text.replace("dt = 1\n", f"dt = {dt}\n"))
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("problem:")
    assert f"not an integer multiple of dt={dt}" in captured.err
    assert captured.out.splitlines()[-1] != "ok"
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"not an integer multiple of dt={dt}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_plan_of_too_many_steps_fails_before_any_state(tmp_path, capsys, monkeypatch,
                                                         command):
    # the shipped plan at dt = 1e-9 would ask for 6.2e10 states
    def forbidden(*args):
        raise AssertionError("a state was built")
    monkeypatch.setattr(spreadopt.kinematics, "step", forbidden)
    path = tmp_path / "scenario.ini"
    path.write_text(default_scenario_path().read_text().replace("dt = 1\n", "dt = 1e-9\n"))
    args = [command, "--scenario", str(path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("problem:" if command == "validate" else "error:")
    assert "dt=1e-09 gives the plan 62000000000 steps" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("line, broken, section", [
    ("n_cells = 8", "n_cells = 0", "field"),
    ("side_length = 40", "side_length = -1", "field"),
    # positive, but its cells' size underflows to zero
    ("side_length = 40", "side_length = 5e-324", "field"),
    ("uniform = 20", "uniform = inf", "prescription"),
    ("start_x = 6", "start_x = inf", "plan"),
    ("    5 0 3", "    -5 0 3", "plan"),
    ("dt = 1", "dt = 0", "run"),
    ("horizon = 2", "horizon = 0", "run"),
    # one cell a side past the bound, and fields of about 7 EiB, 2^67 bytes
    # and 8e36 bytes, which no allocation can take even in part
    ("n_cells = 8", f"n_cells = {MAX_N_CELLS + 1}", "field"),
    ("n_cells = 8", "n_cells = 1000000000", "field"),
    ("n_cells = 8", "n_cells = 4294967296", "field"),
    ("n_cells = 8", "n_cells = 1e18", "field"),
], ids=["n_cells", "side_length", "side_length_zero_cells", "uniform", "start_x", "segment",
        "dt", "horizon", "n_cells_past_the_bound", "n_cells_too_large", "n_cells_2e32",
        "n_cells_1e18"])
def test_an_out_of_range_scenario_value_names_the_file_and_the_section(tmp_path, capsys, line,
                                                                       broken, section):
    assert TINY_SCENARIO.count(line) == 1
    code, err = validate_with(tmp_path, capsys, scenario=TINY_SCENARIO.replace(line, broken))
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith(f"error: {tmp_path / 'scenario.ini'}: [{section}] ")


# every key set in the packaged inputs, by file
VALUE_KEYS = [(file, match[1]) for file, path in INPUT_FILES.items()
              for match in re.finditer(r"^(\w+) =", path().read_text(), re.MULTILINE)]
ODD_VALUES = ["4294967296", "1e18", "1e308", "1e-9", "5e-324", "-1", "-4294967296", "0", "nan",
              "inf", "-inf", "abc", "", "%"]


@settings(max_examples=500, deadline=None)
@given(at=st.sampled_from(VALUE_KEYS), value=st.sampled_from(ODD_VALUES))
@example(at=("scenario", "n_cells"), value="4294967296")
def test_validate_ends_cleanly_whatever_one_value_is(at, value):
    # one value of the packaged scenario or calibration set to an odd one:
    # validate accepts it or names the fault, and nothing escapes main
    file, key = at
    text = re.sub(rf"^{key} =.*$", f"{key} = {value}", INPUT_FILES[file]().read_text(),
                  count=1, flags=re.MULTILINE)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{file}.ini"
        path.write_text(text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", f"--{file}", str(path)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith(("error:", "problem:"))


# every key set in the tiny scenario and the packaged calibration: a run on
# them takes a few milliseconds
RUN_INPUTS = {"scenario": TINY_SCENARIO, "calibration": default_calibration_path().read_text()}
RUN_KEYS = [(file, match[1]) for file, text in RUN_INPUTS.items()
            for match in re.finditer(r"^(\w+) =", text, re.MULTILINE)]


@settings(max_examples=200, deadline=None)
@given(at=st.sampled_from(RUN_KEYS), value=st.sampled_from(ODD_VALUES))
@example(at=("scenario", "side_length"), value="5e-324")
def test_run_ends_cleanly_whatever_one_value_is(at, value):
    # one value of the 8-cell, 3-step greedy scenario or of the calibration
    # set to an odd one: run completes, or fails with an error line, and
    # nothing escapes main
    file, key = at
    texts = dict(RUN_INPUTS)
    texts[file] = re.sub(rf"^{key} =.*$", f"{key} = {value}", texts[file], count=1,
                         flags=re.MULTILINE)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        argv = ["run", "--out", str(Path(directory) / "out")]
        for name, text in texts.items():
            path = Path(directory) / f"{name}.ini"
            path.write_text(text)
            argv += [f"--{name}", str(path)]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    if code != 0:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())


def test_a_misspelt_run_key_is_rejected(tmp_path, capsys):
    # a misspelt key is rejected, not read as the shipped sigma
    text = default_scenario_path().read_text()
    assert "triangle_support = sigma" in text
    code, err = validate_with(tmp_path, capsys,
                              scenario=text.replace("triangle_support", "triangle_suport"))
    assert code == 1
    assert len(err) == 1
    assert "[run] key 'triangle_suport'" in err[0]


def test_the_first_of_several_misspellings_is_named(tmp_path, capsys):
    text = (default_scenario_path().read_text().replace("triangle_support", "triangle_suport")
            .replace("horizon =", "horizn =").replace("[optimizer]", "[optimiser]"))
    code, err = validate_with(tmp_path, capsys, scenario=text)
    assert code == 1
    assert err == [f"error: {tmp_path / 'scenario.ini'}: unknown [run] key 'horizn', expected "
                   "one of ['dt', 'controller', 'horizon', 'scaling', 'triangle_support']"]


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_repeated_runs_are_byte_identical(tmp_path):
    scenario = scenario_with_run_key(tmp_path, "controller", "mpc-full")
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
    assert (first / "A.csv").read_bytes() == (second / "A.csv").read_bytes()
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
    hash_of = lambda p: dict(summary_pairs(p / "summary.txt"))["settings_hash"]
    assert hash_of(first) == hash_of(second)


@pytest.fixture
def summary_of(tmp_path):
    """Run the scenario ``text`` from its own input directory ``name``,
    next to a copy of the default calibration and the extra ``files``,
    and return the summary's table."""
    calibration = default_calibration_path().read_text()

    def summary(name, text, files=None):
        inputs = tmp_path / name
        inputs.mkdir()
        (inputs / "tiny.ini").write_text(text)
        (inputs / "calibration.ini").write_text(calibration)
        for file_name, content in (files or {}).items():
            (inputs / file_name).write_text(content)
        out = tmp_path / f"{name}-out"
        assert main(["run", "--scenario", str(inputs / "tiny.ini"),
                     "--calibration", str(inputs / "calibration.ini"), "--out", str(out)]) == 0
        return dict(summary_pairs(out / "summary.txt"))

    return summary


def test_settings_hash_ignores_where_the_input_files_live(summary_of):
    first = summary_of("a", TINY_SCENARIO)
    second = summary_of("b", TINY_SCENARIO)
    assert first["scenario_file"] != second["scenario_file"]
    assert first["calibration_file"] != second["calibration_file"]
    assert first["settings_hash"] == second["settings_hash"]
    changed = summary_of("c", TINY_SCENARIO.replace("horizon = 2", "horizon = 3"))
    assert changed["settings_hash"] != first["settings_hash"]


def test_settings_hash_covers_the_prescription(summary_of):
    first = summary_of("a", TINY_SCENARIO)
    second = summary_of("b", TINY_SCENARIO.replace("uniform = 20", "uniform = 25"))
    assert first["settings_hash"] != second["settings_hash"]
    assert first["prescription.sha256"] != second["prescription.sha256"]


def test_settings_hash_of_a_map_ignores_where_it_lives(summary_of):
    mapped = TINY_SCENARIO.replace("uniform = 20", "file = map.csv")
    rows = "\n".join(",".join(str(10 + i + j) for j in range(8)) for i in range(8)) + "\n"
    first = summary_of("a", mapped, {"map.csv": rows})
    second = summary_of("b", mapped, {"map.csv": rows})
    assert first["scenario_file"] != second["scenario_file"]
    assert first["prescription.sha256"] == second["prescription.sha256"]
    assert first["settings_hash"] == second["settings_hash"]


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
    # validate takes no --verbose, but must still undo an earlier verbose run
    for plain in (["run", "--out", str(tmp_path / "p")], ["validate"]):
        assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "v"),
                     "--verbose"]) == 0
        assert logger.isEnabledFor(logging.DEBUG)
        assert main([plain[0], "--scenario", str(scenario_file), *plain[1:]]) == 0
        assert not logger.isEnabledFor(logging.DEBUG)
        assert not logger.handlers


# --- failure paths ------------------------------------------------------------

def failing_plan_controls(monkeypatch, fails):
    """Make ``plan_controls`` raise a numerical failure wherever
    ``fails(controller, step)`` holds; steps count from 1 per controller."""
    real = RecedingHorizonController.plan_controls
    steps = {}

    def plan_controls(self, *args, **kwargs):
        # each controller stays referenced here, so a later one cannot reuse its id
        step = steps.get(id(self), (self, 0))[1] + 1
        steps[id(self)] = (self, step)
        if fails(self, step):
            raise NumericalFailureError("injected failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RecedingHorizonController, "plan_controls", plan_controls)


@pytest.mark.parametrize("spread", ["1e16", "1e-200"])
def test_a_validated_extreme_spread_runs_without_a_traceback(scenario_file, tmp_path, spread):
    # the density per gram is at or below the window tolerance everywhere
    # (1e16), or the peak deposit overflows, which validation rejects (1e-200)
    text = default_calibration_path().read_text()
    for key in ("sigma_distance", "sigma_angle"):
        text = re.sub(rf"^{key} = .*$", f"{key} = 0 0 {spread}", text, flags=re.M)
    calibration = tmp_path / "extreme.ini"
    calibration.write_text(text)
    inputs = ["--scenario", str(scenario_file), "--calibration", str(calibration)]
    if spread == "1e-200":
        done = run_cli(["validate", *inputs], tmp_path)
        assert done.returncode == 1
        errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, done.stderr
        assert "peak deposit" in errors[0]
        assert "(sigma_distance) 1e-200 at 300 RPM" in errors[0]
        assert "(sigma_angle) 1e-200 at 300 RPM" in errors[0]
        assert "Traceback" not in done.stderr
        return
    for argv in (["validate", *inputs], ["run", *inputs, "--out", str(tmp_path / "out")]):
        done = run_cli(argv, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
    assert dict(summary_pairs(tmp_path / "out" / "summary.txt"))["n_steps"] == "3"


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


@pytest.mark.parametrize("where", ["controller", "plant"])
def test_a_run_out_of_memory_exits_2_with_a_diagnostic(scenario_file, tmp_path, monkeypatch,
                                                       capsys, where):
    # the second call raises as numpy does when an allocation fails; nothing
    # large is allocated
    owner, name = ((RecedingHorizonController, "plan_controls") if where == "controller"
                   else (spreadopt.simulation, "total_deposit"))
    real = getattr(owner, name)
    calls = []

    def exhausted(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 335. MiB for an array with shape (43912800,)")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, exhausted)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(read_trace(out / "trace.csv")["k"]) == 1
    assert dict(summary_pairs(out / "summary.txt"))["n_steps"] == "1"
    diagnostic = (out / "diagnostic.txt").read_text()
    assert diagnostic.startswith("aborted at step 2: ") and "Unable to allocate" in diagnostic


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


# --- one writer for run and compare --------------------------------------------

def other_kind(kind):
    kinds = list(ControllerKind)
    return kinds[(kinds.index(kind) + 1) % len(kinds)]


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_a_compare_variant_writes_what_run_writes(tmp_path, kind):
    # compare's scenario file names another controller, which its variant may not echo
    own = scenario_with_run_key(tmp_path, "controller", kind.value, "own.ini")
    other = scenario_with_run_key(tmp_path, "controller", other_kind(kind).value, "other.ini")
    ran, compared = tmp_path / "run", tmp_path / "cmp"
    assert main(["run", "--scenario", str(own), "--out", str(ran)]) == 0
    assert main(["compare", "--scenario", str(other), "--out", str(compared),
                 "--only", kind.value]) == 0
    variant = compared / kind.value
    for name in ("A.csv", "trace.csv"):
        assert (variant / name).read_bytes() == (ran / name).read_bytes()

    def echoed(out):
        return [(key, value) for key, value in summary_pairs(out / "summary.txt")
                if key not in ("command", "scenario_file") and not key.startswith("wall_clock.")]

    assert echoed(variant) == echoed(ran)
    assert dict(echoed(ran))["run.controller"] == kind.value


def test_a_failed_compare_variant_diagnostic_names_the_step_and_the_error(
        scenario_file, tmp_path, monkeypatch):
    failing_plan_controls(
        monkeypatch, lambda controller, step: controller.model is DepositionModel.TRIANGLE
        and step == 2)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario_file), "--out", str(out),
                 "--only", "greedy,mpc-triangle"]) == 3
    variant = out / "mpc-triangle"
    assert (variant / "diagnostic.txt").read_text() == (
        "aborted at step 2: controller failed at step 2: injected failure\n")
    assert len(read_trace(variant / "trace.csv")["k"]) == 1
    # run's diagnostic of the same failure says the same
    ran = tmp_path / "run"
    triangle = scenario_with_run_key(tmp_path, "controller", "mpc-triangle")
    assert main(["run", "--scenario", str(triangle), "--out", str(ran)]) == 2
    assert (ran / "diagnostic.txt").read_text() == (variant / "diagnostic.txt").read_text()


@pytest.mark.parametrize("argv, out_dir", [(["run"], "."),
                                           (["compare", "--only", "greedy"], "greedy")])
def test_a_completed_run_removes_an_earlier_diagnostic(scenario_file, tmp_path, argv, out_dir):
    out = tmp_path / "out"
    stale = out / out_dir / "diagnostic.txt"
    stale.parent.mkdir(parents=True)
    stale.write_text("aborted at step 2: an earlier run\n")
    assert main([*argv, "--scenario", str(scenario_file), "--out", str(out)]) == 0
    assert not stale.exists()
    assert (out / out_dir / "trace.csv").exists()


@pytest.mark.parametrize("argv, blocked", [
    (["run"], "A.csv"),
    (["run", "--verbose"], "run.log"),
    (["compare", "--only", "greedy"], "greedy/A.csv"),
    (["compare", "--only", "greedy"], "comparison.csv"),
    (["compare", "--only", "greedy"], "summary.txt"),
    (["run"], "diagnostic.txt"),
    (["compare", "--only", "greedy,mpc-full"], "mpc-full/trace.csv"),
])
def test_an_output_that_cannot_be_written_fails_cleanly(scenario_file, tmp_path, capsys,
                                                        monkeypatch, argv, blocked):
    from spreadopt.controllers import RecedingHorizonController

    plan_controls = RecedingHorizonController.plan_controls
    calls = []

    def counted(self, *args):
        calls.append(args)
        return plan_controls(self, *args)

    monkeypatch.setattr(RecedingHorizonController, "plan_controls", counted)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = main([*argv, "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert str(out / blocked) in err[0]
    # found before the first decision, so nothing was run or written
    assert not calls
    assert not (out / "comparison.csv").is_file()


@pytest.mark.parametrize("denied", ["scenario", "calibration"])
def test_an_unreadable_input_file_fails_cleanly(scenario_file, tmp_path, monkeypatch, capsys,
                                                denied):
    import spreadopt.config

    paths = {"scenario": scenario_file, "calibration": default_calibration_path()}

    def open_denied(path, *args, **kwargs):
        # file modes cannot deny a superuser, so the denial is made here
        if Path(path) == paths[denied]:
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(spreadopt.config, "open", open_denied, raising=False)
    code = main(["validate", "--scenario", str(scenario_file),
                 "--calibration", str(paths["calibration"])])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert str(paths[denied]) in err[0] and "Permission denied" in err[0]
