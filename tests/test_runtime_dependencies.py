"""coxrep needs nothing beyond the standard library at run time: no module
of the package imports a third-party name, and pyproject.toml declares no
runtime dependency, with mpmath, the tests' oracle for floats, in the test
extra.  The modules are parsed, not imported."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coxrep"


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports; relative ones are coxrep's."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_only_the_standard_library(name):
    packages = imported_packages(ast.parse((SRC / name).read_text()))
    assert packages - set(sys.stdlib_module_names) - {"coxrep"} == set()


def test_pyproject_has_no_runtime_dependency_and_mpmath_is_a_test_extra():
    tomllib = pytest.importorskip("tomllib")        # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
    assert any(req.startswith("mpmath") for req in project["optional-dependencies"]["test"])
