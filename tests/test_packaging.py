"""The package metadata agrees with the code."""

from pathlib import Path

import pytest

import gensym

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == gensym.__version__


# Lines that src/gensym/*.py may hold in all, as wc -l counts them.  A
# change that must grow src/ raises the number and says why in CHANGES.md.
SRC_LINE_BUDGET = 2442


def test_src_line_budget():
    src = PYPROJECT.parent / "src" / "gensym"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET
