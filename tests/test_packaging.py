"""The package points only at things that exist: pyproject.toml's
scripts and data globs, every name a module exports, and every error
type some code raises. Every function and class it defines is used."""

import ast
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
    """Each glob matches some file, and together they match exactly the
    files under the package's data directory: none ships undeclared."""
    package_data = project["tool"]["setuptools"]["package-data"]
    for package, patterns in package_data.items():
        package_dir = ROOT / "src" / package
        declared = set()
        for pattern in patterns:
            matched = set(package_dir.glob(pattern))
            assert matched, pattern
            declared |= matched
        shipped = {path for path in (package_dir / "data").rglob("*")
                   if path.is_file()}
        assert declared == shipped


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


def _names_used(node):
    """Every name that `node` reads, imports or spells as a dotted string
    (a tracer's target or a monkeypatched attribute)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and re.fullmatch(r"[\w.:]+", sub.value):
            yield from re.split(r"[.:]", sub.value)


def test_every_top_level_definition_is_used():
    """A module-level function or class that nothing names outside its
    own definition, in the package, its tests or the benchmark, is dead."""
    files = [*(ROOT / "src" / "spinann").glob("*.py"),
             *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    defined, used = [], set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if path.parent.name == "spinann" and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{own}")
            used.update(name for name in _names_used(stmt) if name != own)
    assert defined
    assert [d for d in defined if d.partition(".")[2] not in used] == []
