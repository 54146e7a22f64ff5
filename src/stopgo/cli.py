"""Command-line pipeline: file-based stages from raw trajectories to gains.

Each subcommand reads the previous stage's directory and writes its own
artifacts plus a run manifest, so any stage can be re-run or inspected in
isolation.  Exit codes: 0 success; 1 usage error (a UsageError, or a
ValueError from a bad argument); 2 data error (a DataError: input data the
stage cannot use); 3 collision during simulation (CollisionDetected).

Every stage directory, and the top of a ``pipeline`` tree, holds a
``manifest.json`` with the fields ``subcommand``, ``config_digest``,
``tool_version``, ``rng_seed`` (0 for a stage that takes no seed),
``started`` and ``finished`` (UTC, ISO 8601), and ``duration_s``, the run's
wall time in seconds on a monotonic clock.  A ``pipeline``'s also holds
``stages``: the ``name``, exit code ``rc`` and ``duration_s`` of each stage
that ran, in run order; a stage that failed with an error is listed with
that error's exit code.  ``config_digest`` is the sha256 of the subcommand,
its flags and its inputs.  A stage's flags are
all its declared flags as parsed, overridden by the values the stage
resolved itself (such as the frequency grid, which only ``stability`` takes
and each later stage reads from the document before it); ``pipeline``'s are
every flag it parsed.  The inputs are each input file's sha256 by file name,
or ``{"input": <--input>}`` for a run that reads no file (``synthetic``).

Each flag is checked while parsing, by the check declared with it (an
``--out`` must be a directory), so a bad value exits 1 before any stage runs
and before any ``--out`` exists.  ``pipeline`` checks every stage's flags,
and then the rules over several flags (a ``--seed``, a frequency grid, a
desired headway inside the safe band, a sinusoid's ``--amplitude`` within
``--v-star``), before its first stage runs.  A handler creates ``--out`` only
after it has read its inputs.  An earlier stage's JSON document is read by
one reader into the types the stage uses, so a file that does not parse,
lacks a key the stage reads or holds a value out of its type's range (or not
finite) is a data error (exit 2) naming the file and the key.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
# calibrate_ga is not called here, but perfbench/tracer.py wraps stopgo.cli.calibrate_ga
from .calibration import GaConfig, _bounds_arrays, calibrate_ga, calibrate_pairs  # noqa: F401
from .carfollowing import (
    PARAM_ORDER,
    Cav,
    FvdmParams,
    PiecewiseProfile,
    SinusoidProfile,
    equilibrium_headway,
    linearize_hdv,
    simulate_platoon,
)
from .errors import CollisionDetected, DataError
from .smoothing import SmoothingConfig, differentiate, smooth_trajectory
from .stability import (
    ControllerGains,
    EquilibriumSpec,
    FrequencyGrid,
    GainGridSpec,
    LinearizedHdv,
    count_record,
    delay_margin,
    gain_axis,
    headway_slack,
    numeric_critical_frequency,
    optimize_gains,
    peak_gain_frequency,
    platoon_critical_frequency,
    write_heatmaps,
)
from .trajectory_io import (
    DT,
    MIN_CALIBRATION_SAMPLES,
    TrajectoryTable,
    build_trajectories,
    pair_leader_follower,
    pairs_from_index,
    parse_ngsim_csv,
    read_canonical_csv,
    write_canonical_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_COLLISION = 3

# Built-in scenario behind `--input synthetic`: a leader holding a constant
# speed and one modeled follower starting at its equilibrium headway.  The
# follower's 0.3 s delay is below its 0.4659 s delay margin at 12 m/s, so it
# is internally stable and settles behind a leader that swings.
SYNTHETIC_THETA = FvdmParams(
    alpha=1.5, beta=1.2, b_c=3.0, b_f=20.0, v0=18.0, m=0.08, tau=0.3
)
SYNTHETIC_SPEED = 12.0  # m/s
SYNTHETIC_DURATION = 99.9  # s -> 1000 samples at 10 Hz


class UsageError(Exception):
    """Bad invocation: a flag's value, or flags that do not fit together."""


# the exit code and stderr label of each error main reports; an error takes
# the entry of its nearest class
_EXITS = {
    UsageError: (EXIT_USAGE, "error"),
    ValueError: (EXIT_USAGE, "error"),
    DataError: (EXIT_DATA, "data error"),
    CollisionDetected: (EXIT_COLLISION, "collision"),
}


def _exit_of(err: Exception) -> tuple[int, str]:
    return next(_EXITS[c] for c in type(err).__mro__ if c in _EXITS)


# a stage handler's exit code, the files it read and the flag values it resolved
StageResult = tuple[int, list[Path], dict]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 per the CLI contract, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, subcommand: str, flags: dict, paths: list, started: str,
                    duration_s: float, stages: list | None = None) -> None:
    # a run that read no file (the synthetic scenario) records its --input instead
    inputs = {p.name: _sha256_file(p) for p in paths} or {"input": args.input}
    payload = json.dumps({"subcommand": subcommand, "flags": flags, "inputs": inputs},
                         sort_keys=True, default=str)
    seed = flags.get("seed")
    manifest = {
        "subcommand": subcommand,
        "config_digest": hashlib.sha256(payload.encode()).hexdigest(),
        "tool_version": __version__,
        "rng_seed": int(seed) if seed is not None else 0,
        "started": started,
        "finished": _utcnow(),
        "duration_s": duration_s,
    }
    if stages is not None:
        manifest["stages"] = stages
    _write_json(Path(args.out) / "manifest.json", manifest)


def _run_stage(name: str, args, ran: list | None = None) -> int:
    """Run the stage handler cmd_<name> and write the stage's manifest; with
    a ran list, append the stage's name, exit code and duration to it.

    Its flags were checked while parsing.  The handler reads its inputs, then
    creates --out, and returns a StageResult.  It is looked up on each call,
    so a replaced module global takes effect.  A handler that raises an error
    main reports is listed with that error's exit code and writes no manifest.
    """
    handler = globals()["cmd_" + name.replace("-", "_")]
    started, t0 = _utcnow(), time.perf_counter()
    try:
        rc, inputs, resolved = handler(args)
    except tuple(_EXITS) as err:
        if ran is not None:
            ran.append({"name": name, "rc": _exit_of(err)[0], "duration_s": time.perf_counter() - t0})
        raise
    duration_s = time.perf_counter() - t0
    stage = next(s for s in STAGES if s.name == name)
    flags = {f.dest: getattr(args, f.dest) for f in stage.flags} | resolved
    _write_manifest(args, name, flags, inputs, started, duration_s)
    if ran is not None:
        ran.append({"name": name, "rc": rc, "duration_s": duration_s})
    return rc


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _carry(src: Path, dst: Path) -> None:
    """Copy an input a later stage reads into --out, unless it is there already."""
    if not (dst.exists() and dst.samefile(src)):
        shutil.copyfile(src, dst)


def _resolve_input(raw: str, *candidates: str) -> Path:
    """Accept either a stage directory or a direct file path."""
    p = Path(raw)
    if p.is_dir():
        for name in candidates:
            c = p / name
            if c.exists():
                return c
        if not candidates:
            raise DataError(f"input {p} is a directory, not a file")
        raise DataError(f"none of {', '.join(candidates)} found in {p}")
    if p.exists():
        return p
    raise DataError(f"input {p} does not exist")


def _number(kind=float, low=-math.inf, positive=False):
    """Check for a finite number (an integer if kind is int), at least low or positive."""
    def check(text: str):
        try:
            value = kind(text)
        except ValueError:
            kind_name = "an integer" if kind is int else "a number"
            raise ValueError(f"must be {kind_name}, got {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        if positive and value <= 0:
            raise ValueError(f"must be positive, got {value}")
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return check


_REAL, _POSITIVE, _NONNEGATIVE, _COUNT = _number(), _number(positive=True), _number(low=0.0), _number(int, 1)


_LINEARIZED_FIELDS = ("k1", "k2", "k3", "lambda2", "tau")  # a LinearizedHdv in a fleet's vehicle

# What a stage reads of an earlier stage's JSON document.  A shape is int (a
# JSON integer), float (a finite JSON number), {key: shape} (an object
# holding each key), [shape] (a nonempty list of entries of that shape) or
# (shape, make) (a value of that shape read as make(value), or as
# make(**value) for an object, which make must build without a ValueError).
_PAIRS_DOC = {
    "pairs": [dict.fromkeys(("leader_id", "follower_id", "overlap_start", "overlap_len"), int)],
}
_THETA = (dict.fromkeys(PARAM_ORDER, float), FvdmParams)
_CALIBRATION_DOC = {"results": [{"leader_id": int, "follower_id": int, "theta": _THETA}]}
# the drivers a design is for and the grid that labelled them; each vehicle
# reads as its nonlinear model and its linearization, (FvdmParams, LinearizedHdv)
_FLEET = {
    "omega_grid": ({"omega_min": float, "omega_max": float, "points": int}, FrequencyGrid),
    "vehicles": [({"theta": _THETA, **dict.fromkeys(_LINEARIZED_FIELDS, float)},
                  lambda theta, **lin: (theta, LinearizedHdv(**lin)))],
}
_STABILITY_DOC = {"v_star": float, **_FLEET}
_GAINS_DOC = (
    {"v_star": float, "lambda2": float, "lambda3": float, "platoon": (int, _COUNT),
     "best": (dict.fromkeys(("k1", "k2", "k3"), float), ControllerGains), **_FLEET},
    lambda v_star, lambda2, lambda3, platoon, best, omega_grid, vehicles: (
        EquilibriumSpec(v_star, lambda2, lambda3), best, platoon, omega_grid, vehicles),
)


def _fleet_vehicle(theta: FvdmParams, lin: LinearizedHdv) -> dict:
    """A driver's entry in a fleet's vehicles, as _FLEET reads it back."""
    return {"theta": asdict(theta), **{k: getattr(lin, k) for k in _LINEARIZED_FIELDS}}


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether a JSON value is a finite number of kinds: true and false load as
    bools, which are ints, and NaN and an int beyond a double's range fail."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _read_shape(value, shape, where: str):
    """The value read as shape; where names value in a DataError's message."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise DataError(f"{where} is not a JSON object")
        for key in shape:
            if key not in value:
                raise DataError(f"{where} has no key {key!r}")
        return {key: _read_shape(value[key], inner, f"{where}[{key!r}]") for key, inner in shape.items()}
    if isinstance(shape, list):
        if not (isinstance(value, list) and value):
            raise DataError(f"{where} is not a nonempty list")
        return [_read_shape(entry, shape[0], f"{where}[{i}]") for i, entry in enumerate(value)]
    if isinstance(shape, tuple):
        inner = _read_shape(value, shape[0], where)
        try:
            return shape[1](**inner) if isinstance(inner, dict) else shape[1](inner)
        except ValueError as err:
            raise DataError(f"{where}: {err}") from None
    kinds, noun = (int, "an integer") if shape is int else ((int, float), "a finite number")
    if not _is_number(value, kinds):
        raise DataError(f"{where} is not {noun}")
    return value


def _read_stage_json(path: Path, shape):
    """The JSON document in path, read as shape: a file that does not parse,
    lacks a key the stage reads or holds a value its type rejects is a
    DataError naming the file and the key."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as err:  # not JSON (a truncated file), or not text
        raise DataError(f"{path} is not a JSON document: {err}") from None
    return _read_shape(doc, shape, str(path))


# ---------------------------------------------------------------- ingest


def _synthetic_records(seed, noise: float):
    profile = PiecewiseProfile(((0.0, SYNTHETIC_SPEED),))
    table = _string_table(
        simulate_platoon((SYNTHETIC_THETA,), profile, SYNTHETIC_SPEED, SYNTHETIC_DURATION))
    if noise > 0:
        rng = np.random.default_rng(seed if seed is not None else 0)
        table.local_y += rng.uniform(-noise, noise, len(table))
    return table


def cmd_ingest(args) -> StageResult:
    if args.input == "synthetic":
        records = _synthetic_records(args.seed, args.noise)
        inputs = []
    else:
        src = _resolve_input(args.input)
        with open(src, encoding="utf-8-sig") as fh:  # a byte-order mark, as Excel writes, is skipped
            records = parse_ngsim_csv(fh, units=args.units)
        inputs = [src]
    # a duplicate frame raises here, before --out exists
    table, fragments_discarded = build_trajectories(records)
    summary = {
        "records": len(records),
        # one block per vehicle in the grouped table, which is never empty
        "vehicles": int(np.count_nonzero(table.vehicle_id[1:] != table.vehicle_id[:-1])) + 1,
        "fragments_discarded": fragments_discarded,
        "units": args.units if args.input != "synthetic" else "meters",
    }
    out = _outdir(args)
    write_canonical_csv(records, out / "trajectories.npz")
    _write_json(out / "ingest_summary.json", summary)
    return EXIT_OK, inputs, {}


# ---------------------------------------------------------------- smooth


def cmd_smooth(args) -> StageResult:
    src = _resolve_input(args.input, "trajectories.npz")
    table, _ = build_trajectories(read_canonical_csv(src))
    cfg = SmoothingConfig(t_x=args.tx, t_v=args.tv, t_a=args.ta)

    vid = table.vehicle_id
    bounds = [0, *(np.flatnonzero(vid[1:] != vid[:-1]) + 1).tolist(), len(table)]
    raw_a, x, v, a = (np.empty(len(table)) for _ in range(4))
    for lo, hi in zip(bounds[:-1], bounds[1:]):  # one vehicle's frames
        raw_a[lo:hi] = differentiate(differentiate(table.local_y[lo:hi]))
        x[lo:hi], v[lo:hi], a[lo:hi] = smooth_trajectory(table.local_y[lo:hi], cfg)
    out = _outdir(args)
    write_canonical_csv(replace(table, local_y=x, speed=v, accel=a), out / "smoothed.npz")
    _write_json(out / "smooth_summary.json", {  # the grouped table is never empty
        "samples": len(table),
        "accel_exceedance_before": np.count_nonzero(np.abs(raw_a) > 3.0) / len(table),
        "accel_exceedance_after": np.count_nonzero(np.abs(a) > 3.0) / len(table),
        **asdict(cfg),  # the kernel widths t_x, t_v, t_a
    })
    return EXIT_OK, [src], {}


# ---------------------------------------------------------------- pair


def cmd_pair(args) -> StageResult:
    src = _resolve_input(args.input, "smoothed.npz", "trajectories.npz")
    table, _ = build_trajectories(read_canonical_csv(src))
    windows, diagnostics = pair_leader_follower(
        table, lane_filter=args.lane, min_samples=args.min_samples
    )
    out = _outdir(args)
    _carry(src, out / "trajectories.npz")
    _write_json(out / "pairs.json", {
        "pairs": windows,
        "diagnostics": diagnostics,
        "min_samples": args.min_samples,
    })
    return EXIT_OK, [src], {}


# ---------------------------------------------------------------- calibrate


def _json_object(raw: str, error: str) -> dict:
    """The JSON object in raw; error is the message when raw holds another value."""
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ValueError(f"is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ValueError(error)
    return payload


def _bounds(raw: str | None) -> dict:
    """--bounds as {name: [lo, hi]}; the calibration box checks the nesting."""
    if not raw:
        return {}
    payload = _json_object(raw, "must be a JSON object of name: [lo, hi]")
    for name, pair in payload.items():
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
            raise ValueError(f"{name} must be a [lo, hi] pair of finite numbers")
    _bounds_arrays(payload)
    return payload


def cmd_calibrate(args) -> StageResult:
    if args.seed is None:
        raise UsageError("calibrate requires --seed (no silent nondeterminism)")
    bounds = _bounds(args.bounds) | ({"tau": (0.0, 0.0)} if args.pin_tau else {})
    cfg = GaConfig(population_size=args.population, max_generations=args.generations,
                   stagnation_limit=args.stagnation, rng_seed=args.seed)
    pairs_path = _resolve_input(args.input, "pairs.json")
    traj_path = pairs_path.parent / "trajectories.npz"
    if not traj_path.exists():
        raise DataError(f"{traj_path} must sit next to {pairs_path.name}")
    entries = _read_stage_json(pairs_path, _PAIRS_DOC)["pairs"]
    if args.pairs is not None:
        entries = entries[: args.pairs]
    table, _ = build_trajectories(read_canonical_csv(traj_path))
    pairs = pairs_from_index(entries, table)

    results, histories = [], []
    for entry, res in zip(entries, calibrate_pairs(pairs, bounds=bounds, cfg=cfg)):
        row = asdict(res)
        histories.append(np.array(row.pop("fitness_history"), dtype=float))
        results.append(entry | row)  # the pairs.json entry names the window
    out = _outdir(args)
    # one row per generation of each result, named by its index into results
    np.savez(out / "fitness_history.npz",
             result=np.repeat(np.arange(len(histories), dtype=np.int64), [len(h) for h in histories]),
             generation=np.concatenate([np.arange(len(h), dtype=np.int64) for h in histories]),
             best_fitness=np.concatenate(histories))
    _write_json(out / "calibration.json", {
        "results": results,
        "bounds": {k: list(v) for k, v in bounds.items()},
        "ga": {k: v for k, v in asdict(cfg).items() if k != "rng_seed"},
    })
    return EXIT_OK, [pairs_path, traj_path], {}


# ---------------------------------------------------------------- stability


def _freq_grid(args) -> FrequencyGrid:
    """The --omega-* flags given, over FrequencyGrid's defaults."""
    given = {"omega_min": args.omega_min, "omega_max": args.omega_max, "points": args.omega_points}
    try:
        return FrequencyGrid(**{k: v for k, v in given.items() if v is not None})
    except ValueError as err:
        raise UsageError(f"--omega-min/--omega-max: {err}") from None


def _driver_headway(where: str, theta: FvdmParams, v_star: float) -> float:
    """The equilibrium headway of the driver theta; a fit with none at v_star
    is a DataError naming where, the driver's place in its document."""
    try:
        return equilibrium_headway(theta, v_star)
    except DataError as err:
        raise DataError(f"{where}: {err}") from None


def cmd_stability(args) -> StageResult:
    grid = _freq_grid(args)
    src = _resolve_input(args.input, "calibration.json")
    vehicles = []
    for i, e in enumerate(_read_stage_json(src, _CALIBRATION_DOC)["results"]):
        theta = e["theta"]
        dx_star = _driver_headway(f"{src}['results'][{i}]", theta, args.v_star)
        lin = linearize_hdv(theta, EquilibriumSpec(args.v_star, 0.0, dx_star))
        w0 = numeric_critical_frequency(lin, grid)
        margin = delay_margin(lin)
        vehicles.append({
            "leader_id": e["leader_id"],
            "follower_id": e["follower_id"],
            **_fleet_vehicle(theta, lin),
            "equilibrium_headway": dx_star,
            "omega0": w0,
            "string_stable": w0 == 0.0,
            "delay_margin": margin,
            "internally_stable": lin.tau < margin,
        })
    out = _outdir(args)
    _write_json(out / "stability.json", {
        "v_star": args.v_star,
        "omega_grid": asdict(grid),
        # platoon_critical_frequency of the vehicles, from their omega0
        "platoon_omega0": min((v["omega0"] for v in vehicles if v["omega0"] > 0.0), default=0.0),
        "vehicles": vehicles,
    })
    return EXIT_OK, [src], {"omega_min": grid.omega_min, "omega_max": grid.omega_max,
                            "omega_points": grid.points}


# ---------------------------------------------------------------- optimize-gains


def _gain_grid(raw: str | None) -> GainGridSpec:
    """--gain-grid as a GainGridSpec; gain_axis checks each axis."""
    if not raw:
        return GainGridSpec()
    error = 'must look like {"k1": [lo, hi, step], ...}'
    payload = _json_object(raw, error)
    if not set(payload) <= {"k1", "k2", "k3"}:
        raise ValueError(error)
    axes = {}
    for name, axis in payload.items():
        if not (isinstance(axis, list) and len(axis) == 3 and all(map(_is_number, axis))):
            raise ValueError(f"{name} must be a [lo, hi, step] list of finite numbers")
        try:
            axes[f"{name}_values"] = gain_axis(*map(float, axis))
        except ValueError as err:
            raise ValueError(f"{name} is not a [lo, hi, step] axis: {err}") from None
    return GainGridSpec(**axes)


def _cycled(items: list, n: int) -> list:
    """n entries cycling through items: the followers of a platoon drawn from a fleet."""
    return [items[i % len(items)] for i in range(n)]


def _equilibrium(args, v_star: float) -> EquilibriumSpec:
    """The controller's operating point; --lambda3 defaults to centering the safe band."""
    mid = 0.5 * (args.headway_min + args.headway_max)
    lam3 = args.lambda3 if args.lambda3 is not None else mid - args.lambda2 * v_star
    return EquilibriumSpec(v_star, args.lambda2, lam3)


def cmd_optimize_gains(args) -> StageResult:
    src = _resolve_input(args.input, "stability.json")
    doc = _read_stage_json(src, _STABILITY_DOC)
    platoon = _cycled([lin for _, lin in doc["vehicles"]], args.platoon)
    eq = _equilibrium(args, doc["v_star"])

    res = optimize_gains(platoon, eq, headway_min=args.headway_min, headway_max=args.headway_max,
                         disturbance_beta=args.beta, grid=_gain_grid(args.gain_grid),
                         freq_grid=doc["omega_grid"])
    out = _outdir(args)
    for stale in out.glob("heatmaps/heatmap_k1=*.csv"):  # an earlier run's k1 slices
        stale.unlink()
    heatmaps = write_heatmaps(res, out / "heatmaps")
    _write_json(out / "gains.json", {
        **asdict(eq),  # v_star, lambda2, lambda3
        "headway_min": args.headway_min,
        "headway_max": args.headway_max,
        "beta": args.beta,
        "eta": res.eta,
        "platoon": args.platoon,
        "best": asdict(res.best_gains),
        "best_stable": count_record(res.best_stable, args.platoon),
        "best_safe": count_record(res.best_safe, args.platoon),
        # paths relative to the directory holding gains.json
        "heatmap_files": sorted(p.relative_to(out).as_posix() for p in heatmaps),
        # the fleet the gains were designed for, which simulate checks them on
        "omega_grid": asdict(doc["omega_grid"]),
        "vehicles": [_fleet_vehicle(theta, lin) for theta, lin in doc["vehicles"]],
    })
    return EXIT_OK, [src], {}


# ---------------------------------------------------------------- simulate


def _table_vehicle_id(index):
    """A string table's vehicle_id of the vehicle at an index (or array of them)
    into a platoon's trajectories, leader 0: ids count from 1, because a
    preceding_id of 0 means none."""
    return index + 1


def _string_table(trajs) -> TrajectoryTable:
    """A simulated string's trajectories as rows, vehicle by vehicle in one
    lane: each follows the vehicle before it, and the leader none."""
    lengths = [tr.n for tr in trajs]
    ids = np.repeat(_table_vehicle_id(np.arange(len(trajs))), lengths)
    return TrajectoryTable(
        vehicle_id=ids,
        frame_id=np.concatenate([tr.start_frame + np.arange(tr.n) for tr in trajs]),
        local_y=np.concatenate([tr.positions for tr in trajs]),
        speed=np.concatenate([tr.speeds for tr in trajs]),
        accel=np.concatenate([tr.accels for tr in trajs]),
        lane_id=np.ones(len(ids), dtype=np.int64),
        preceding_id=ids - 1,  # the id of the vehicle ahead
        vehicle_length=np.repeat([tr.vehicle_length for tr in trajs], lengths),
    )


def _amplitudes(trajs, v_star: float) -> list[float]:
    # steady-state speed swing, measured over the last half of the run
    return [float(np.max(np.abs(tr.speeds[tr.n // 2 :] - v_star), initial=0.0)) for tr in trajs]


def cmd_simulate(args) -> StageResult:
    gains_path = _resolve_input(args.input, "gains.json")
    eq, g, platoon, grid, fleet = _read_stage_json(gains_path, _GAINS_DOC)
    thetas, lins = zip(*fleet)
    if eq.desired_headway <= 0:
        raise DataError(f"{gains_path}['lambda3']: desired headway {eq.desired_headway} m "
                        "must be positive")
    v_star = eq.v_star
    for i, theta in enumerate(thetas):
        _driver_headway(f"{gains_path}['vehicles'][{i}]", theta, v_star)
    n_follow = args.platoon if args.platoon is not None else platoon
    vehicles = (Cav(g, eq.lambda2, eq.lambda3), *_cycled(thetas, n_follow))

    if args.profile == "constant":
        profile = PiecewiseProfile(((0.0, v_star),))
        omega = 0.0
    else:
        omega = args.omega
        if omega is None:
            humans = _cycled(lins, n_follow)
            w0 = platoon_critical_frequency(humans, grid)
            # the human platoon's most amplified wave; a stable one amplifies none
            omega = peak_gain_frequency(humans, grid.values(top=w0)) if w0 > 0.0 else 0.6
        profile = SinusoidProfile(v_star, args.amplitude, omega)

    # platoon.npz's frames are dt apart
    summary = {"collision": None, "dt": args.dt, "omega": omega, "v_star": v_star,
               "vehicles": len(vehicles) + 1}
    try:
        trajs = simulate_platoon(vehicles, profile, v_star, args.duration, dt=args.dt)
    except CollisionDetected as err:
        trajs = err.partial
        # vehicle_index counts the summary's per-vehicle lists, vehicle_id platoon.npz's rows
        summary["collision"] = {"vehicle_index": err.vehicle_index,
                                "vehicle_id": _table_vehicle_id(err.vehicle_index), "frame": err.frame}
    else:
        amps = _amplitudes(trajs, v_star)
        summary["speed_amplitudes"] = amps
        summary["amplification_vs_leader"] = [a / amps[0] if amps[0] else 0.0 for a in amps]
        # a gap is the spacing minus the length of the vehicle ahead
        summary["min_gaps"] = [
            float(np.min(ahead.positions - tr.positions) - ahead.vehicle_length)
            for ahead, tr in zip(trajs, trajs[1:])
        ]
    out = _outdir(args)
    write_canonical_csv(_string_table(trajs), out / "platoon.npz")
    _write_json(out / "simulate_summary.json", summary)
    hit = summary["collision"]
    if hit:
        print(f"collision: vehicle_id {hit['vehicle_id']} at frame {hit['frame']}; "
              f"partial trajectories written to {out / 'platoon.npz'}", file=sys.stderr)
    rc = EXIT_COLLISION if hit else EXIT_OK
    return rc, [gains_path], {"platoon": n_follow, "omega": omega}


# ---------------------------------------------------------------- pipeline


def cmd_pipeline(args) -> int:
    # every flag was checked while parsing; these rules span several, each checked by its owner
    if args.seed is None:
        raise UsageError("pipeline requires --seed (the calibrate stage is randomized)")
    _freq_grid(args)
    headway_slack(_equilibrium(args, args.v_star), args.headway_min, args.headway_max, args.beta)
    if args.profile == "sinusoid":  # simulate's leader; any omega it picks is positive
        SinusoidProfile(args.v_star, args.amplitude, args.omega or 1.0)
    started, t0 = _utcnow(), time.perf_counter()
    inputs = [] if args.input == "synthetic" else [_resolve_input(args.input)]
    out = _outdir(args)
    rc = EXIT_OK
    stage_input = args.input
    ran = []
    try:
        for stage in STAGES:
            stage_out = out / stage.dirname
            ns = argparse.Namespace(**vars(args) | {"input": stage_input, "out": str(stage_out)})
            rc = _run_stage(stage.name, ns, ran)
            if rc != EXIT_OK:
                break
            stage_input = str(stage_out)
    finally:
        flags = {k: v for k, v in vars(args).items() if k not in ("input", "out", "func")}
        _write_manifest(args, "pipeline", flags, inputs, started, time.perf_counter() - t0, ran)
    return rc


# ---------------------------------------------------------------- parser


def _owned_by(cls, field: str, parse=_number(int)):
    """Check a value by building cls with it, so the type that owns the rule applies it."""
    def check(text: str):
        value = parse(text)
        try:
            cls(**{field: value})
        except ValueError as err:
            raise ValueError(f"{value}: {err}") from None
        return value
    return check


def _directory(text: str) -> str:
    """Check that text names a directory, or a path where one can be made."""
    existing = next(p for p in (Path(text), *Path(text).parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"must name a directory, but {existing} is not one")
    return text


def _text_of(parse):
    """Check the text with parse but keep the text, which the manifests record."""
    def check(text: str) -> str:
        parse(text)
        return text
    return check


class _Flag:
    """One option, declared once and added to every parser that takes it.

    Its type is its check: a ValueError it raises while parsing becomes a
    UsageError naming the option."""

    def __init__(self, option: str, **kwargs):
        self.option = option
        self.dest = option.lstrip("-").replace("-", "_")
        if "type" in kwargs:
            kwargs["type"] = partial(self._parse, kwargs["type"])
        self.kwargs = kwargs

    def _parse(self, check, text: str):
        try:
            return check(text)
        except ValueError as err:
            raise UsageError(f"{self.option} {err}") from None


class Stage(NamedTuple):
    name: str  # subcommand
    dirname: str  # directory under a pipeline's --out
    help: str
    flags: tuple


_OUT = _Flag("--out", type=_directory, required=True, help="output directory")
_SEED = _Flag("--seed", type=_number(int, 0), default=None,
              help="rng seed (required by calibrate and pipeline; seeds synthetic noise)")

# In run order: pipeline feeds each stage's directory to the next one.
STAGES = (
    Stage("ingest", "01_ingest", "read raw trajectories into the canonical schema", (
        _Flag("--units", choices=("feet", "meters"), default="feet",
              help="units of the raw file (default feet)"),
        _SEED,
        _Flag("--noise", type=_NONNEGATIVE, default=0.0,
              help="uniform position noise half-width for synthetic data (m)"),
    )),
    Stage("smooth", "02_smooth", "denoise positions and rebuild speeds/accelerations", (
        _Flag("--tx", type=_owned_by(SmoothingConfig, "t_x", _REAL), default=SmoothingConfig.t_x,
              help="position kernel width (s)"),
        _Flag("--tv", type=_owned_by(SmoothingConfig, "t_v", _REAL), default=SmoothingConfig.t_v,
              help="speed kernel width (s)"),
        _Flag("--ta", type=_owned_by(SmoothingConfig, "t_a", _REAL), default=SmoothingConfig.t_a,
              help="acceleration kernel width (s)"),
    )),
    Stage("pair", "03_pair", "extract leader-follower calibration windows", (
        _Flag("--lane", type=_number(int), default=None, help="restrict to one lane id"),
        _Flag("--min-samples", type=_number(int), default=MIN_CALIBRATION_SAMPLES,
              help="overlap length below which a pair is flagged short"),
    )),
    Stage("calibrate", "04_calibrate", "fit car-following parameters per pair", (
        _SEED,
        _Flag("--pairs", type=_COUNT, default=None, help="calibrate only the first N pairs"),
        _Flag("--population", type=_owned_by(GaConfig, "population_size"),
              default=GaConfig.population_size),
        _Flag("--generations", type=_owned_by(GaConfig, "max_generations"),
              default=GaConfig.max_generations),
        _Flag("--stagnation", type=_owned_by(GaConfig, "stagnation_limit"),
              default=GaConfig.stagnation_limit),
        _Flag("--bounds", type=_text_of(_bounds), default=None,
              help='JSON parameter box overrides, e.g. {"alpha": [1, 5]}'),
        _Flag("--pin-tau", action="store_true", help="fix the reaction delay at zero"),
    )),
    Stage("stability", "05_stability", "linearize calibrated models and find critical frequencies", (
        _Flag("--v-star", type=_NONNEGATIVE, default=12.0, help="equilibrium speed (m/s)"),
        _Flag("--omega-min", type=_POSITIVE, default=None, help="frequency grid floor (rad/s)"),
        _Flag("--omega-max", type=_POSITIVE, default=None, help="frequency grid ceiling (rad/s)"),
        _Flag("--omega-points", type=_owned_by(FrequencyGrid, "points"), default=None,
              help="frequency grid size"),
    )),
    Stage("optimize-gains", "06_gains", "search controller gains maximizing stabilized vehicles", (
        _Flag("--headway-min", type=_REAL, default=10.0, help="safe headway floor (m)"),
        _Flag("--headway-max", type=_REAL, default=30.0, help="safe headway ceiling (m)"),
        _Flag("--beta", type=_POSITIVE, default=3.0, help="disturbance amplitude (m)"),
        _Flag("--lambda2", type=_NONNEGATIVE, default=0.0, help="controller headway-speed slope (s)"),
        _Flag("--lambda3", type=_REAL, default=None,
              help="controller headway offset (m); default centers the safe band"),
        _Flag("--platoon", type=_COUNT, default=20,
              help="followers behind the controlled vehicle (fleet cycled)"),
        _Flag("--gain-grid", type=_text_of(_gain_grid), default=None,
              help='JSON axis overrides, e.g. {"k1": [0, 1, 0.05]}'),
    )),
    Stage("simulate", "07_validate", "validate designed gains in a platoon simulation", (
        _Flag("--platoon", type=_COUNT, default=None,
              help="followers behind the controlled vehicle (default from gains.json)"),
        _Flag("--duration", type=_POSITIVE, default=300.0, help="simulated time (s)"),
        _Flag("--dt", type=_POSITIVE, default=DT, help="integration step (s)"),
        _Flag("--amplitude", type=_NONNEGATIVE, default=1.0, help="leader speed swing (m/s)"),
        _Flag("--omega", type=_POSITIVE, default=None,
              help="leader wave frequency (rad/s); default= worst amplified"),
        _Flag("--profile", choices=("sinusoid", "constant"), default="sinusoid"),
    )),
)


def _pipeline_flags() -> dict:
    """Every stage's flags by dest; the first stage to declare a name owns it,
    so pipeline's --platoon is the optimize-gains one (simulate gets the same
    value, which gains.json records anyway)."""
    flags = {}
    for stage in STAGES:
        for flag in stage.flags:
            flags.setdefault(flag.dest, flag)
    return flags


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stopgo",
        description=(
            "Calibrate car-following models from trajectory data and design "
            "vehicle controller gains that damp stop-and-go waves."
        ),
    )
    parser.add_argument("--version", action="version", version=f"stopgo {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    pipeline = Stage("pipeline", "", "run every stage in order into one directory tree",
                     tuple(_pipeline_flags().values()))
    for stage in (*STAGES, pipeline):
        p = sub.add_parser(stage.name, help=stage.help)
        p.add_argument("--input", required=True, help="input file, stage directory, or 'synthetic'")
        p.add_argument(_OUT.option, **_OUT.kwargs)
        for flag in stage.flags:
            p.add_argument(flag.option, **flag.kwargs)
        p.set_defaults(func=cmd_pipeline if stage is pipeline else partial(_run_stage, stage.name))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # a flag's check raises UsageError while parsing
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except tuple(_EXITS) as err:
        code, label = _exit_of(err)
        print(f"stopgo: {label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
