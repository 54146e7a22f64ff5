"""The benchmark tracer's contract with the program.

perfbench/tracer.py replaces module globals by name, so a rename in the
program would break a traced run.  This reads the tracer's TRACED list and
checks that every name it replaces still exists.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing next to the tracer
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    assert tracer.TRACED
    missing = [
        f"{module}.{name}"
        for module, name, _counter in tracer.TRACED
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
