"""The package uses numpy's public API only.

``numpy._core`` (``numpy.core`` before numpy 2) is private and was renamed
between the numpy versions the package supports, so a name under it that
works on one may not import on the declared floor.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PRIVATE = re.compile(r"\b(?:numpy|np)\.(?:_core|core)\b")


def test_the_source_tree_is_found():
    assert list(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_source_file_names_a_private_numpy_module(path):
    hits = [f"{path.name}:{number}: {line.strip()}"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if PRIVATE.search(line)]
    assert not hits


@pytest.mark.parametrize("text", ["import numpy._core.umath", "np._core.umath.clip(x)",
                                  "from numpy.core import multiarray", "np.core.records"])
def test_the_check_catches_each_spelling(text):
    assert PRIVATE.search(text)


def test_the_check_passes_public_names():
    assert not PRIVATE.search("np.corrcoef(x) + np.linalg.solve(a, b) + numpy.exceptions")
