"""Benchmark of the stopgo pipeline on two seeded workloads.

    python3 perfbench/run.py --workload calib-pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --record [--workload bulk-prep]

A run generates the workload's inputs from the seed, runs the workload once
untimed (this also writes the bytecode caches), times fresh
``python -m stopgo.cli --version`` launches, then repeats the workload's
stage processes, one at a time, for --seconds and reports medians, with
times scaled to a reference host speed (see PROBE).  Every
workload run is checked against the reference outputs in reference.json.
With --trace 1 a further run of traced stage processes gives the per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it give every metric by name with its unit.  --record rewrites the
reference outputs of the given workload (default: all) from the current
program.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracer  # noqa: E402

# A seed selects one of VARIANTS input sets; reference.json holds the
# expected outputs of each, recorded from the program.
VARIANTS = 16
SETUP_LAUNCHES = 3

# A shared host gives this process more or less speed from minute to minute
# (on a 2-vCPU virtual machine a fixed pure-Python loop took 41 ms at one time
# and 70 ms at another within an hour), which moves every wall time together.
# A fixed probe process is timed before and after each measured launch, and
# times are reported at the speed where it takes PROBE_REF_S seconds.  Like a
# stage it launches Python, imports numpy and scipy, steps small arrays in a
# Python loop and runs plain bytecode.  It never runs stopgo, so a change to
# the program cannot change it.
PROBE = """
import numpy as np
import scipy.optimize
x = np.linspace(0.0, 1.0, 50)
lag = np.arange(50) // 2
for _ in range(30_000):
    x = 0.5 * np.tanh(x[lag] - 0.2) + np.where(x > 0.9, 0.0, 0.01)
total = 0
for k in range(200_000):
    total += k * k
"""
PROBE_REF_S = 1.0
STAGE_TIMEOUT_S = 150.0

# A search box of plausible drivers, as a user with prior knowledge sets it.
# b_f above b_c keeps every candidate's top speed above v0, so the stop-and-go
# file's operating speed (--v-star 5) always has an equilibrium.
CALIB_BOUNDS = (
    '{"alpha": [1, 5], "beta": [1, 5], "b_c": [1, 8], "b_f": [10, 40], '
    '"v0": [8, 25], "m": [0.01, 0.3], "tau": [0, 1]}'
)
# The gain search costs about 0.5 ms per cell when the calibrated drivers
# include a string-unstable one and next to nothing when they do not, which
# differs between input variants; a small grid keeps that from moving wall_s.
GAINS_GRID = '{"k1": [0.0, 1.0, 0.5], "k2": [0.2, 2.0, 0.2], "k3": [0.2, 2.0, 0.2]}'

# Stage argument lists; {in} is the generated input directory, {out} the
# directory of one workload run.
WORKLOADS = {
    # The user's full path on a one-lane stop-and-go file.  A fixed GA budget
    # (stagnation equal to generations) makes the calibration cost the same
    # for every input.  The GA and the batch integrator take most of the
    # time, the platoon validation and its CSV write the next share.
    "calib-pipeline": [
        ["pipeline", "--input", "{in}/ngsim.csv", "--units", "feet", "--seed", "7",
         "--pairs", "4", "--generations", "25", "--stagnation", "25", "--bounds", CALIB_BOUNDS,
         "--v-star", "5", "--gain-grid", GAINS_GRID, "--duration", "300",
         "--out", "{out}/pipeline"],
    ],
    # Data preparation on a multi-lane file: parsing, canonical CSV writes
    # and reads, smoothing and pairing do all the work.
    "bulk-prep": [
        ["ingest", "--input", "{in}/ngsim.csv", "--units", "feet", "--out", "{out}/ingest"],
        ["smooth", "--input", "{out}/ingest", "--out", "{out}/smooth"],
        ["pair", "--input", "{out}/smooth", "--out", "{out}/pair"],
    ],
}


# ------------------------------------------------------------------ processes


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _launch(argv: list[str], log: Path) -> tuple[int, float]:
    """Run one process to completion; returns (exit code, max RSS in MB)."""
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_python_env(), stdout=subprocess.DEVNULL, stderr=err)
    # a blocking wait, so nothing polls beside the measured process
    watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _stage_argvs(workload: str, indir: Path, outdir: Path) -> list[list[str]]:
    return [
        [a.replace("{in}", str(indir)).replace("{out}", str(outdir)) for a in stage]
        for stage in WORKLOADS[workload]
    ]


def run_workload(workload: str, indir: Path, outdir: Path, spans_dir: Path | None = None) -> dict:
    """Run the workload's stages one after another.

    Returns wall seconds from the first launch to the last exit, the largest
    max-RSS and whether every stage exited 0.  With spans_dir each stage runs
    under the tracer, which writes its spans there.
    """
    outdir.mkdir(parents=True)
    log = outdir / "stderr.log"
    peak = 0.0
    ok = True
    start = time.perf_counter()
    for i, args in enumerate(_stage_argvs(workload, indir, outdir)):
        if spans_dir is None:
            argv = [sys.executable, "-m", "stopgo.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_dir / f"stage{i}.json"), *args]
        rc, rss = _launch(argv, log)
        peak = max(peak, rss)
        if rc != 0:
            ok = False
            break
    wall = time.perf_counter() - start
    if not ok:
        sys.stderr.write(f"{workload}: stage {args[0]} exited {rc}\n{log.read_text()[-2000:]}")
    return {"wall_s": wall, "peak_rss_mb": peak, "ok": ok}


def _timed_launch(argv: list[str], log: Path) -> float:
    start = time.perf_counter()
    rc, _ = _launch(argv, log)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {rc}")
    return time.perf_counter() - start


def setup_seconds(log: Path) -> list[float]:
    """Times of fresh launches that import stopgo and build its parser."""
    return [_timed_launch([sys.executable, "-m", "stopgo.cli", "--version"], log) for _ in range(SETUP_LAUNCHES)]


def probe_seconds(log: Path) -> float:
    """Time of the host-speed probe, a fixed process that never runs stopgo."""
    return _timed_launch([sys.executable, "-c", PROBE], log)


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """Scale a time to the host speed at which the probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


# ------------------------------------------------------------------ outputs


def _json(path: Path):
    return json.loads(path.read_text())


def _gains_digest(stage: Path) -> dict:
    doc = _json(stage / "gains.json")
    h = hashlib.sha256()
    for path in sorted((stage / "heatmaps").glob("*.csv")):
        h.update(path.read_bytes())
    return {
        "best": doc["best"],
        "best_stable": doc["best_stable"],
        "best_safe": doc["best_safe"],
        "heatmaps_sha256": h.hexdigest(),
    }


def output_digest(workload: str, outdir: Path) -> dict:
    """The outputs a workload run must reproduce exactly (no manifests:
    they hold timestamps)."""
    if workload == "calib-pipeline":
        calib = _json(outdir / "pipeline" / "04_calibrate" / "calibration.json")
        validation = _json(outdir / "pipeline" / "07_validate" / "simulate_summary.json")
        return {
            "calibration": [
                {k: r[k] for k in ("leader_id", "follower_id", "theta", "mixed_error")}
                for r in calib["results"]
            ],
            "gains": _gains_digest(outdir / "pipeline" / "06_gains"),
            "validation": {k: validation.get(k) for k in ("collision", "speed_amplitudes")},
        }
    ingest = _json(outdir / "ingest" / "ingest_summary.json")
    pairs = _json(outdir / "pair" / "pairs.json")
    return {
        "ingest": {k: ingest[k] for k in ("records", "vehicles", "fragments_discarded")},
        "pairs": pairs["pairs"],
        "diagnostics": pairs["diagnostics"],
    }


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Paths at which two digests differ; floats must match exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(set(expected) | set(actual))
        return [m for k in keys for m in mismatches(expected.get(k), actual.get(k), f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path or '.'}: expected {expected!r}, got {actual!r}"]


def check_outputs(workload: str, variant: int, outdir: Path, reference: dict) -> bool:
    try:
        digest = output_digest(workload, outdir)
    except (OSError, KeyError, ValueError) as err:
        sys.stderr.write(f"{workload}: unreadable outputs: {err!r}\n")
        return False
    bad = mismatches(reference[workload][str(variant)], digest)
    for line in bad[:10]:
        sys.stderr.write(f"{workload} variant {variant}: {line}\n")
    return not bad


# ------------------------------------------------------------------ runs


def _declared() -> dict:
    spec = _json(SPEC)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, reference: dict, rundir: Path) -> dict:
    variant = seed % VARIANTS
    indir = rundir / "in"
    gen.generate(workload, variant, indir)
    runs = []

    def attempt(outdir: Path, spans_dir: Path | None = None) -> dict:
        r = run_workload(workload, indir, outdir, spans_dir)
        r["ok"] = r["ok"] and check_outputs(workload, variant, outdir, reference)
        runs.append(r)
        shutil.rmtree(outdir)
        return r

    log = rundir / "launch.log"
    attempt(rundir / "warmup")
    probes = [probe_seconds(log)]
    setup = setup_seconds(log)
    probes.append(probe_seconds(log))
    timed = []
    start = time.perf_counter()
    while True:
        r = attempt(rundir / f"run{len(timed)}")
        probes.append(probe_seconds(log))
        timed.append({**r, "wall_s": at_reference_speed(r["wall_s"], *probes[-2:])})
        elapsed = time.perf_counter() - start
        # stop before a further run would end past the measuring time
        if elapsed * (len(timed) + 1) / len(timed) > seconds:
            break
    wall = statistics.median(r["wall_s"] for r in timed)
    e2e = {
        "wall_s": wall,
        "setup_s": at_reference_speed(statistics.median(setup), *probes[:2]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    layers = {}
    if trace:
        spans_dir = rundir / "spans"
        spans_dir.mkdir()
        traced = attempt(rundir / "traced", spans_dir)
        probes.append(probe_seconds(log))
        stages = [_json(p) for p in sorted(spans_dir.glob("stage*.json"))]
        layers = tracer.layer_metrics(stages)
        layers["trace.overhead_s"] = at_reference_speed(traced["wall_s"], *probes[-2:]) - wall
        layers["host.probe_s"] = statistics.median(probes)
    failed = sum(not r["ok"] for r in runs)
    return {"attempted": len(runs), "failed": failed, "end_to_end": e2e, "per_layer": layers}


def _report(prefix: str, values: dict, units: dict, trace: bool) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    shown = {}
    for group in ("end_to_end", "per_layer"):
        for name, value in values[group].items():
            print(f"{prefix}{name} = {value:.6g} {units[group][name]}")
            if group == kind:
                shown[prefix + name] = {"value": value, "unit": units[group][name]}
    return shown


def record(reference_path: Path, workloads: list[str]) -> None:
    """Run the workloads on every input variant and store their outputs."""
    reference = _json(reference_path) if reference_path.exists() else {}
    for workload in workloads:
        reference[workload] = {}
        for variant in range(VARIANTS):
            rundir = WORK / f"record-{os.getpid()}"
            try:
                gen.generate(workload, variant, rundir / "in")
                r = run_workload(workload, rundir / "in", rundir / "out")
                if not r["ok"]:
                    raise SystemExit(f"{workload} variant {variant} failed")
                reference[workload][str(variant)] = output_digest(workload, rundir / "out")
            finally:
                shutil.rmtree(rundir, ignore_errors=True)
            print(f"recorded {workload} variant {variant}", file=sys.stderr)
    reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite the workloads' entries of reference.json from the program")
    args = p.parse_args(argv)
    if not (SRC / "stopgo" / "cli.py").is_file():
        print(f"no stopgo sources under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload in (None, "all") else [args.workload]
    if args.record:
        record(REFERENCE, workloads)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    reference = _json(REFERENCE)
    units = _declared()
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        rundir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            res = bench(workload, args.seed, args.seconds, bool(args.trace), reference, rundir)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        metrics.update(_report(prefix, res, units, bool(args.trace)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
