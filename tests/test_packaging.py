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
