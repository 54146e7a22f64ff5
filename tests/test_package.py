"""Package structure: no import is deferred into a function, and none is unused."""
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


# perfbench/tracer.py traces the GA by replacing stopgo.cli.calibrate_ga
UNUSED_ON_PURPOSE = {"cli.py": {"calibrate_ga"}}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == UNUSED_ON_PURPOSE.get(path.name, set())
