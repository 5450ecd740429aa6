"""The package runs on numpy alone: scipy is a test-only oracle.

`pyproject.toml` lists numpy as the one runtime dependency, and no module
of `hrx` imports scipy, lazily or not.  (The command-line tests run `hrx
table` and `hrx verify` in fresh interpreters and check that no scipy
module was loaded.)
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import hrx

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(hrx.__file__).resolve().parent


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
    names = [re.match(r"[\w.-]+", spec).group()
             for spec in project["project"]["dependencies"]]
    assert names == ["numpy"]
    assert any(spec.startswith("scipy")
               for spec in project["project"]["optional-dependencies"]["test"])


def imported_modules(path: Path) -> set[str]:
    """Every module an `import` or `from ... import` of `path` names,
    at any depth of its syntax tree (function bodies included)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_no_module_imports_scipy():
    sources = sorted(PACKAGE.glob("**/*.py"))
    assert {path.stem for path in sources} >= {"gauss", "oracle", "quadrature"}
    for path in sources:
        scipy = {name for name in imported_modules(path)
                 if name.split(".")[0] == "scipy"}
        assert not scipy, f"{path.name} imports {sorted(scipy)}"
