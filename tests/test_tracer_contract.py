"""The benchmark tracer's contract with the program.

perfbench/tracer.py replaces module globals by name, so a rename in the
program would break a traced run.  This reads the tracer's TRACED list and
checks that every name it replaces still exists, and that a traced pipeline
reaches every stage handler through the replaced globals.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
FAST_GRID = '{"k1": [0.0, 0.0, 0.05], "k2": [0.1, 1.0, 0.1], "k3": [0.1, 1.0, 0.1]}'


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing next to the tracer
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.TRACED
    missing = [
        f"{module}.{name}"
        for module, name, _counter in tracer.TRACED
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_traced_pipeline_spans_every_stage(monkeypatch, tmp_path):
    """A stage runner that bound its handlers at import time would bypass the
    tracer's wrappers and read every cli.stage_s metric as 0."""
    tracer = _load_tracer(monkeypatch)
    import stopgo.cli

    spans = tracer.Tracer()
    spans.install()
    try:
        rc = stopgo.cli.main([
            "pipeline", "--input", "synthetic", "--seed", "5", "--population", "12",
            "--generations", "4", "--stagnation", "4", "--gain-grid", FAST_GRID,
            "--platoon", "3", "--duration", "30", "--out", str(tmp_path / "pipe"),
        ])
    finally:
        spans.restore()
    assert rc == 0
    names = [s["name"] for s in spans.spans]
    assert {n: names.count(n) for n in tracer.CMD.values()} == dict.fromkeys(tracer.CMD.values(), 1)
    metrics = tracer.layer_metrics([spans.spans])
    assert all(metrics[f"cli.stage_s.{stage}"] > 0.0 for stage in tracer.CMD)
    # Every counter stays wired, except that synthetic input is never parsed
    # and the GA metrics read 0 while the tracer's GA span wraps calibrate_ga,
    # which the CLI no longer calls.
    unwired = [name for name, value in metrics.items() if value == 0
               and name != "trajectory_io.parse_rows_per_s" and not name.startswith("calibration.")]
    assert unwired == []
