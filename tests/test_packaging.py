"""pyproject.toml points only at things that exist."""

import glob
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_script_targets_import():
    for name, target in PROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_globs_match_files():
    package_data = PROJECT["tool"]["setuptools"]["package-data"]
    for package, patterns in package_data.items():
        package_dir = ROOT / "src" / package
        for pattern in patterns:
            assert glob.glob(str(package_dir / pattern)), pattern
