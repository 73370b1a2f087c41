"""The README's configuration examples, flags and solver tolerances match
the program."""

import re
from pathlib import Path

import pytest

from spreadopt import controllers
from spreadopt.calibration import load_calibration
from spreadopt.cli import _build_parser
from spreadopt.config import load_scenario

README = (Path(__file__).parents[1] / "README.md").read_text()


def ini_blocks():
    return re.findall(r"^```ini\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_the_readme_has_a_scenario_and_a_calibration_example():
    blocks = ini_blocks()
    assert len(blocks) == 2
    assert "[field]" in blocks[0] and "[pattern]" in blocks[1]


@pytest.mark.parametrize("index, load", [(0, load_scenario), (1, load_calibration)])
def test_the_readme_ini_examples_load(tmp_path, index, load):
    path = tmp_path / "example.ini"
    path.write_text(ini_blocks()[index])
    load(path)


def readme_flags():
    # pip's own flags are not the program's
    prose = re.sub(r"pip install[^`\n]*", "", README)
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", prose))


def program_options():
    """Every option string of every subcommand, apart from its help."""
    subcommands = _build_parser()._subparsers._group_actions[0].choices.values()
    return {flag for sub in subcommands for flag in sub._option_string_actions} - {"-h", "--help"}


def test_every_flag_the_readme_names_is_an_option():
    named = readme_flags()
    assert named
    assert named <= program_options(), sorted(named - program_options())


def test_every_option_is_named_in_the_readme():
    missing = program_options() - readme_flags()
    assert not missing, sorted(missing)


def test_the_readme_states_the_solver_tolerances():
    # the stop tolerance, to three digits, and the acceptance threshold,
    # and no other tolerance, in the paragraph on the convergence test
    paragraph = next(p for p in README.split("\n\n") if "model-gain test" in p)
    stated = {float(number) for number in re.findall(r"`([0-9.]+e-[0-9]+)`", paragraph)}
    assert stated == {float(f"{controllers.STOP_GAIN:.3g}"), controllers.ACCEPT_GAIN}
