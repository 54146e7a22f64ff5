"""Traced stopgo run: spans at the boundaries of the stopgo layers.

    python3 perfbench/tracer.py <spans.json> <stopgo arguments...>

runs ``stopgo.cli.main`` on the arguments in this process, with each traced
function replaced, under the name its caller looks it up by, by a wrapper
that records a span (name, start, end, parent) and the work counts of the
call.  The original functions are restored in a ``finally`` and the spans
are written to <spans.json> when the stage ends.  ``layer_metrics`` turns
the spans of a workload's stages into the benchmark's per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# Spans keep the layer name of the traced function: "<module>.<function>".
CMD = {
    stage: f"cli.cmd_{stage}"
    for stage in ("ingest", "smooth", "pair", "calibrate", "stability", "optimize_gains", "simulate")
}
PARSE = "trajectory_io.parse_ngsim_csv"
READ = "trajectory_io.read_canonical_csv"
WRITE = "trajectory_io.write_canonical_csv"
BUILD = "trajectory_io.build_trajectories"
PAIR = "trajectory_io.pair_leader_follower"
SMOOTH = "smoothing.smooth_trajectory"
BATCH = "carfollowing.simulate_followers_batch"
PLATOON = "carfollowing.simulate_platoon"
GA = "calibration.calibrate_ga"
ERROR = "calibration.error_mixed"
GAINS = "stability.optimize_gains"
NUMERIC_CF = "stability.numeric_critical_frequency"
PLATOON_CF = "stability.platoon_critical_frequency"
HEATMAPS = "stability.write_heatmaps"


def _rows(a, result, children):
    return {"rows": len(result)}


def _written(a, result, children):
    return {"rows": len(a["records"])}


def _samples(a, result, children):
    return {"samples": len(a["positions"])}


def _batch(a, result, children):
    return {"steps": result.shape[0] * result.shape[1]}


def _platoon(a, result, children):
    return {"vehicle_steps": sum(tr.n for tr in result[1:])}


def _ga(a, result, children):
    from stopgo.calibration import GaConfig

    cfg = a["cfg"] or GaConfig()
    hist = result.fitness_history
    improving = sum(1 for g in range(1, len(hist)) if hist[g] < min(hist[:g]))
    return {
        "generations": result.generations_run,
        # the initial population plus one population per generation
        "evals": cfg.population_size * (result.generations_run + 1),
        "improving": improving,
        "fit": result.mixed_error,
    }


def _platoon_cf(a, result, children):
    return {"w0": result}


def _gains(a, result, children):
    from stopgo.stability import INFEASIBLE_CELL, FrequencyGrid

    w0 = next((c["counts"]["w0"] for c in children if c["name"] == PLATOON_CF), 0.0)
    fgrid = a["freq_grid"] or FrequencyGrid()
    return {
        "feasible": int((result.n_stable_grid != INFEASIBLE_CELL).sum()),
        "omega_points": len(fgrid.values(top=w0)) if w0 > 0.0 else 0,
    }


# (module whose global is replaced, name, work counter or None)
TRACED = [
    *(("stopgo.cli", f"cmd_{stage}", None) for stage in CMD),
    ("stopgo.cli", "parse_ngsim_csv", _rows),
    ("stopgo.cli", "read_canonical_csv", _rows),
    ("stopgo.cli", "write_canonical_csv", _written),
    ("stopgo.cli", "build_trajectories", None),
    ("stopgo.cli", "pair_leader_follower", None),
    ("stopgo.cli", "smooth_trajectory", _samples),
    ("stopgo.cli", "calibrate_ga", _ga),
    ("stopgo.cli", "numeric_critical_frequency", None),
    ("stopgo.cli", "platoon_critical_frequency", _platoon_cf),
    ("stopgo.cli", "optimize_gains", _gains),
    ("stopgo.cli", "write_heatmaps", None),
    ("stopgo.cli", "simulate_platoon", _platoon),
    ("stopgo.calibration", "simulate_followers_batch", _batch),
    ("stopgo.calibration", "error_mixed", None),
    ("stopgo.stability", "numeric_critical_frequency", None),
    ("stopgo.stability", "platoon_critical_frequency", _platoon_cf),
]


class Tracer:
    """In-memory spans of one process; install() swaps in the wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, counter):
        name = f"{fn.__module__.removeprefix('stopgo.')}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None, "counts": {}}
            self.spans.append(span)
            index = len(self.spans) - 1
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                children = [s for s in self.spans[index + 1 :] if s["parent"] == index]
                span["counts"] = counter(bound.arguments, result, children)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, counter in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from the spans of every stage of one workload run.

    Each span's parent indexes the list it came from, so stages are passed
    as separate lists and flattened here with their parents kept local.
    """
    flat = []
    for stage in spans:
        base = len(flat)
        for s in stage:
            flat.append({**s, "parent": None if s["parent"] is None else base + s["parent"]})

    def named(name):
        return [s for s in flat if s["name"] == name]

    def total(name):
        return sum(_duration(s) for s in named(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    def children_time(name, child_names=None):
        parents = {i for i, s in enumerate(flat) if s["name"] == name}
        return sum(
            _duration(s)
            for s in flat
            if s["parent"] in parents and (child_names is None or s["name"] in child_names)
        )

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {f"cli.stage_s.{stage}": total(name) for stage, name in CMD.items()}
    m["cli.smooth_self_s"] = total(CMD["smooth"]) - children_time(CMD["smooth"])
    m["cli.simulate_self_s"] = total(CMD["simulate"]) - children_time(CMD["simulate"], {PLATOON})

    m["trajectory_io.parse_rows_per_s"] = rate(count(PARSE, "rows"), total(PARSE))
    m["trajectory_io.read_rows_per_s"] = rate(count(READ, "rows"), total(READ))
    m["trajectory_io.write_rows_per_s"] = rate(count(WRITE, "rows"), total(WRITE))
    m["trajectory_io.build_s"] = total(BUILD)
    m["trajectory_io.pair_s"] = total(PAIR)
    m["trajectory_io.rows_read"] = count(PARSE, "rows") + count(READ, "rows")

    m["smoothing.samples_per_s"] = rate(count(SMOOTH, "samples"), total(SMOOTH))

    steps = count(BATCH, "steps")
    m["carfollowing.batch_us_per_candidate_step"] = 1e6 * rate(total(BATCH), steps)
    m["carfollowing.batch_candidate_steps"] = steps
    vsteps = count(PLATOON, "vehicle_steps")
    m["carfollowing.platoon_us_per_vehicle_step"] = 1e6 * rate(total(PLATOON), vsteps)
    m["carfollowing.platoon_vehicle_steps"] = vsteps

    evals = count(GA, "evals")
    generations = count(GA, "generations")
    m["calibration.ga_s"] = total(GA)
    m["calibration.ga_self_s"] = total(GA) - children_time(GA, {BATCH})
    m["calibration.generations"] = generations
    m["calibration.candidate_evals"] = evals
    # an evaluation that collides returns the penalty without an error_mixed call
    m["calibration.collision_share"] = rate(evals - len(named(ERROR)), evals)
    m["calibration.improving_generation_share"] = rate(count(GA, "improving"), generations)
    m["calibration.fit_error"] = max((s["counts"].get("fit", 0.0) for s in named(GA)), default=0.0)

    feasible = count(GAINS, "feasible")
    m["stability.gains_s"] = total(GAINS)
    m["stability.feasible_cells"] = feasible
    m["stability.us_per_feasible_cell"] = 1e6 * rate(total(GAINS), feasible)
    m["stability.omega_points"] = max((s["counts"].get("omega_points", 0) for s in named(GAINS)), default=0)
    cf_names = {NUMERIC_CF, PLATOON_CF}
    m["stability.critical_freq_s"] = sum(
        _duration(s)
        for s in flat
        if s["name"] in cf_names and (s["parent"] is None or flat[s["parent"]]["name"] not in cf_names)
    )
    m["stability.heatmap_write_s"] = total(HEATMAPS)
    return m


def main(argv: list[str]) -> int:
    out, stopgo_args = Path(argv[0]), argv[1:]
    import stopgo.cli

    tracer = Tracer()
    tracer.install()
    try:
        return stopgo.cli.main(stopgo_args)
    finally:
        tracer.restore()
        out.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
