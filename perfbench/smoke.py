"""Smoke test of the benchmark itself, at tiny input sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json is well formed, that the input generator is
deterministic per seed, that the output check catches a perturbed value, and
that every metric a run reports is declared in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import run  # noqa: E402

TINY = 0.1
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def check_spec() -> None:
    spec = json.loads(run.SPEC.read_text())
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(NAME.match(n) for n in names), names
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_generator(tmp: Path) -> None:
    def files(workload, seed, name):
        out = tmp / name
        gen.generate(workload, seed, out, scale=TINY)
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    for workload in run.WORKLOADS:
        first = files(workload, 3, f"{workload}-a")
        assert first == files(workload, 3, f"{workload}-b"), f"{workload}: same seed, other inputs"
        assert first != files(workload, 4, f"{workload}-c"), f"{workload}: seed is ignored"


def check_output_check(tmp: Path) -> dict:
    """Run tiny bulk-prep once; returns its digest as a reference."""
    gen.generate("bulk-prep", 0, tmp / "in", scale=TINY)
    result = run.run_workload("bulk-prep", tmp / "in", tmp / "out")
    assert result["ok"], result
    digest = run.output_digest("bulk-prep", tmp / "out")
    assert run.mismatches(digest, run.output_digest("bulk-prep", tmp / "out")) == []

    pairs_path = tmp / "out" / "pair" / "pairs.json"
    pairs = json.loads(pairs_path.read_text())
    pairs["pairs"][0]["overlap_len"] += 1
    pairs_path.write_text(json.dumps(pairs))
    assert run.mismatches(digest, run.output_digest("bulk-prep", tmp / "out")), "changed pair not caught"

    theta = {"alpha": 1.5, "mixed_error": 0.125}
    nudged = {"alpha": 1.5, "mixed_error": math.nextafter(0.125, 1.0)}
    assert run.mismatches(theta, nudged), "one-ulp change not caught"
    return digest


def check_metric_names(tmp: Path, digest: dict) -> None:
    spec = json.loads(run.SPEC.read_text())
    declared = {g: {m["name"] for m in spec[g]} for g in ("end_to_end", "per_layer")}
    reference = {"bulk-prep": {str(v): digest for v in range(run.VARIANTS)}}
    tiny = functools.partial(gen.generate, scale=TINY)
    original, run.gen.generate = run.gen.generate, tiny
    try:
        res = run.bench("bulk-prep", 0, 0.0, True, reference, tmp / "bench")
    finally:
        run.gen.generate = original
    assert res["failed"] == 0 and res["attempted"] == 3, res
    assert set(res["end_to_end"]) == declared["end_to_end"], set(res["end_to_end"]) ^ declared["end_to_end"]
    assert set(res["per_layer"]) == declared["per_layer"], set(res["per_layer"]) ^ declared["per_layer"]
    layers = res["per_layer"]
    assert layers["trajectory_io.rows_read"] > 0 and layers["calibration.ga_s"] == 0.0, layers


def main() -> int:
    tmp = run.WORK / f"smoke-{os.getpid()}"
    try:
        check_spec()
        check_generator(tmp / "gen")
        digest = check_output_check(tmp / "check")
        check_metric_names(tmp, digest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
