"""The package points only at things that exist: pyproject.toml's
scripts and data globs, every name a module exports, and every error
type some code raises."""

import glob
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import spinann
from spinann import errors

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_script_targets_import(project):
    for name, target in project["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_package_data_globs_match_files(project):
    package_data = project["tool"]["setuptools"]["package-data"]
    for package, patterns in package_data.items():
        package_dir = ROOT / "src" / package
        for pattern in patterns:
            assert glob.glob(str(package_dir / pattern)), pattern


def test_every_exported_name_resolves():
    modules = [spinann] + [
        importlib.import_module(f"spinann.{info.name}")
        for info in pkgutil.iter_modules(spinann.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_error_type_is_raised():
    source = "\n".join(path.read_text()
                       for path in (ROOT / "src" / "spinann").glob("*.py"))
    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if issubclass(cls, errors.SpinAnnError) \
                and cls is not errors.SpinAnnError:
            assert re.search(rf"raise {name}\b", source), name
