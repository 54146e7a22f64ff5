"""Package structure: the module graph needs no import deferred into a function."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import stopgo

MODULES = sorted(Path(stopgo.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    deferred = [
        f"{path.name}:{node.lineno} in {func.name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []
