"""Command-line pipeline: file-based stages from raw trajectories to gains.

Each subcommand reads the previous stage's directory and writes its own
artifacts plus a run manifest, so any stage can be re-run or inspected in
isolation.  Exit codes: 0 success, 1 usage error, 2 data error, 3 collision
during simulation.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
# calibrate_ga is not called here, but perfbench/tracer.py wraps stopgo.cli.calibrate_ga
from .calibration import GaConfig, calibrate_ga, calibrate_pairs  # noqa: F401
from .carfollowing import (
    Cav,
    ConstantProfile,
    FvdmParams,
    Hdv,
    PlatoonSpec,
    SinusoidProfile,
    equilibrium_headway,
    simulate_platoon,
)
from .errors import CollisionDetected, DataError, StopgoError
from .smoothing import SmoothingConfig, differentiate, smooth_trajectory
from .stability import (
    ControllerGains,
    EquilibriumSpec,
    FrequencyGrid,
    GainGridSpec,
    LinearizedHdv,
    _default_gain_axis,
    delay_margin,
    hdv_gain_sq,
    linearize_hdv,
    numeric_critical_frequency,
    optimize_gains,
    platoon_critical_frequency,
    write_heatmaps,
)
from .trajectory_io import (
    TrajectoryRecord,
    build_trajectories,
    generate_synthetic_pair,
    pair_leader_follower,
    pair_index,
    pairs_from_index,
    parse_ngsim_csv,
    read_canonical_csv,
    records_from_trajectory,
    write_canonical_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_COLLISION = 3

# Built-in scenario behind `--input synthetic`: a leader holding a constant
# speed and one modeled follower starting at its equilibrium headway.
SYNTHETIC_THETA = FvdmParams(
    alpha=1.5, beta=1.2, b_c=3.0, b_f=20.0, v0=18.0, m=0.08, tau=0.5
)
SYNTHETIC_SPEED = 12.0  # m/s
SYNTHETIC_DURATION = 99.9  # s -> 1000 samples at 10 Hz


class UsageError(Exception):
    """Bad invocation detected after argument parsing."""


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


def _config_digest(subcommand: str, flags: dict, inputs: dict) -> str:
    payload = {"subcommand": subcommand, "flags": flags, "inputs": inputs}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(
    outdir: Path, subcommand: str, flags: dict, inputs: dict, seed, started: str
) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_digest": _config_digest(subcommand, flags, inputs),
        "tool_version": __version__,
        "rng_seed": int(seed) if seed is not None else 0,
        "started": started,
        "finished": _utcnow(),
    }
    _write_json(outdir / "manifest.json", manifest)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_input(raw: str, *candidates: str) -> Path:
    """Accept either a stage directory or a direct file path."""
    p = Path(raw)
    if p.is_dir():
        for name in candidates:
            c = p / name
            if c.exists():
                return c
        raise DataError(f"none of {', '.join(candidates)} found in {p}")
    if p.exists():
        return p
    raise DataError(f"input {p} does not exist")


# ---------------------------------------------------------------- ingest


def _synthetic_records(seed, noise: float):
    theta = SYNTHETIC_THETA
    pair = generate_synthetic_pair(
        theta,
        ConstantProfile(SYNTHETIC_SPEED),
        SYNTHETIC_DURATION,
        initial_headway=equilibrium_headway(theta, SYNTHETIC_SPEED),
    )
    leader, follower = pair.leader, pair.follower
    if noise > 0:
        rng = np.random.default_rng(seed if seed is not None else 0)
        leader.positions = leader.positions + rng.uniform(-noise, noise, leader.n)
        follower.positions = follower.positions + rng.uniform(-noise, noise, follower.n)
    records = records_from_trajectory(leader, lane_id=1, preceding_id=0)
    records += records_from_trajectory(
        follower, lane_id=1, preceding_id=leader.vehicle_id
    )
    return records


def cmd_ingest(args) -> int:
    out = _outdir(args)
    started = _utcnow()
    if args.input == "synthetic":
        records = _synthetic_records(args.seed, args.noise)
        inputs = {"input": "synthetic"}
    else:
        src = _resolve_input(args.input)
        records = parse_ngsim_csv(src.read_text(), units=args.units)
        inputs = {src.name: _sha256_file(src)}
    write_canonical_csv(records, out / "trajectories.csv")
    tset = build_trajectories(records)
    _write_json(
        out / "ingest_summary.json",
        {
            "records": len(records),
            "vehicles": len(tset.trajectories),
            "fragments_discarded": tset.fragments_discarded,
            "units": args.units if args.input != "synthetic" else "meters",
        },
    )
    _write_manifest(out, "ingest", _stage_flags(args, "ingest"), inputs, args.seed, started)
    return EXIT_OK


# ---------------------------------------------------------------- smooth


def cmd_smooth(args) -> int:
    out = _outdir(args)
    started = _utcnow()
    src = _resolve_input(args.input, "trajectories.csv")
    records = read_canonical_csv(src)
    tset = build_trajectories(records)
    cfg = SmoothingConfig(t_x=args.tx, t_v=args.tv, t_a=args.ta)

    out_records = []
    raw_exceed = 0
    smooth_exceed = 0
    total = 0
    for vid in sorted(tset.trajectories):
        tr = tset.trajectories[vid]
        raw_a = differentiate(differentiate(tr.positions, cfg.dt), cfg.dt)
        x_s, v_s, a_s = smooth_trajectory(tr.positions, cfg)
        raw_exceed += int(np.count_nonzero(np.abs(raw_a) > 3.0))
        smooth_exceed += int(np.count_nonzero(np.abs(a_s) > 3.0))
        total += tr.n
        lanes = tset.lanes[vid]
        pre = tset.preceding[vid]
        for k in range(tr.n):
            out_records.append(
                TrajectoryRecord(
                    vehicle_id=vid,
                    frame_id=tr.start_frame + k,
                    local_y=float(x_s[k]),
                    speed=float(v_s[k]),
                    accel=float(a_s[k]),
                    lane_id=int(lanes[k]),
                    preceding_id=int(pre[k]),
                    vehicle_length=tr.vehicle_length,
                )
            )
    write_canonical_csv(out_records, out / "smoothed.csv")
    _write_json(
        out / "smooth_summary.json",
        {
            "samples": total,
            "accel_exceedance_before": raw_exceed / total if total else 0.0,
            "accel_exceedance_after": smooth_exceed / total if total else 0.0,
            "t_x": cfg.t_x,
            "t_v": cfg.t_v,
            "t_a": cfg.t_a,
        },
    )
    flags = _stage_flags(args, "smooth")
    _write_manifest(out, "smooth", flags, {src.name: _sha256_file(src)}, None, started)
    return EXIT_OK


# ---------------------------------------------------------------- pair


def cmd_pair(args) -> int:
    out = _outdir(args)
    started = _utcnow()
    src = _resolve_input(args.input, "smoothed.csv", "trajectories.csv")
    records = read_canonical_csv(src)
    tset = build_trajectories(records)
    pairs, diag = pair_leader_follower(
        tset, lane_filter=args.lane, min_samples=args.min_samples
    )
    shutil.copyfile(src, out / "trajectories.csv")
    _write_json(
        out / "pairs.json",
        {
            "pairs": pair_index(pairs),
            "diagnostics": {
                "rejected_nonpositive": [list(t) for t in diag.rejected_nonpositive],
                "short_pairs": [list(t) for t in diag.short_pairs],
            },
            "min_samples": args.min_samples,
        },
    )
    flags = _stage_flags(args, "pair")
    _write_manifest(out, "pair", flags, {src.name: _sha256_file(src)}, None, started)
    return EXIT_OK


# ---------------------------------------------------------------- calibrate


def _parse_bounds(raw: str | None, pin_tau: bool) -> dict | None:
    bounds = {}
    if raw:
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as err:
            raise UsageError(f"--bounds is not valid JSON: {err}") from None
        if not isinstance(payload, dict):
            raise UsageError("--bounds must be a JSON object of name: [lo, hi]")
        for name, pair in payload.items():
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(v, (int, float)) for v in pair)):
                raise UsageError(f"--bounds {name} must be a [lo, hi] pair of numbers")
        bounds.update(payload)
    if pin_tau:
        bounds["tau"] = (0.0, 0.0)
    return bounds or None


def cmd_calibrate(args) -> int:
    if args.seed is None:
        raise UsageError("calibrate requires --seed (no silent nondeterminism)")
    if args.pairs is not None and args.pairs < 1:
        raise UsageError(f"--pairs must be at least 1, got {args.pairs}")
    bounds = _parse_bounds(args.bounds, args.pin_tau)
    cfg = GaConfig(
        population_size=args.population,
        max_generations=args.generations,
        stagnation_limit=args.stagnation,
        rng_seed=args.seed,
    )
    out = _outdir(args)
    started = _utcnow()
    pairs_path = _resolve_input(args.input, "pairs.json")
    traj_path = pairs_path.parent / "trajectories.csv"
    if not traj_path.exists():
        raise DataError(f"{traj_path} must sit next to {pairs_path.name}")
    doc = json.loads(pairs_path.read_text())
    entries = doc["pairs"]
    if args.pairs is not None:
        entries = entries[: args.pairs]
    if not entries:
        raise DataError("no pairs to calibrate")
    tset = build_trajectories(read_canonical_csv(traj_path))
    pairs = pairs_from_index(entries, tset)

    cfgs = [replace(cfg, rng_seed=args.seed + i) for i in range(len(pairs))]
    results = []
    for pair, res in zip(pairs, calibrate_pairs(pairs, bounds=bounds, cfgs=cfgs)):
        lid, fid = pair.leader.vehicle_id, pair.follower.vehicle_id
        hist_path = out / f"fitness_history_{lid}_{fid}.csv"
        with open(hist_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["generation", "best_fitness"])
            for gen, f in enumerate(res.fitness_history):
                w.writerow([gen, repr(f)])
        results.append(
            {
                "leader_id": lid,
                "follower_id": fid,
                "rng_seed": res.rng_seed,
                "theta": asdict(res.theta),
                "mixed_error": res.mixed_error,
                "abs_error": res.abs_error,
                "rel_error": res.rel_error,
                "generations_run": res.generations_run,
                "converged_by": res.converged_by,
            }
        )
    _write_json(
        out / "calibration.json",
        {
            "results": results,
            "bounds": {k: list(v) for k, v in (bounds or {}).items()},
            "ga": {
                "population_size": args.population,
                "max_generations": args.generations,
                "stagnation_limit": args.stagnation,
            },
        },
    )
    inputs = {
        pairs_path.name: _sha256_file(pairs_path),
        traj_path.name: _sha256_file(traj_path),
    }
    _write_manifest(out, "calibrate", _stage_flags(args, "calibrate"), inputs, args.seed, started)
    return EXIT_OK


# ---------------------------------------------------------------- stability


def _freq_grid(args, fallback: dict | None = None) -> FrequencyGrid:
    fallback = fallback or {}
    omega_min = args.omega_min if args.omega_min is not None else fallback.get("omega_min", 1e-3)
    omega_max = args.omega_max if args.omega_max is not None else fallback.get("omega_max", 1e2)
    points = args.omega_points if args.omega_points is not None else fallback.get("points", 4000)
    return FrequencyGrid(omega_min, omega_max, points)


def _grid_flags(grid: FrequencyGrid) -> dict:
    return {"omega_min": grid.omega_min, "omega_max": grid.omega_max, "omega_points": grid.points}


def cmd_stability(args) -> int:
    out = _outdir(args)
    started = _utcnow()
    src = _resolve_input(args.input, "calibration.json")
    doc = json.loads(src.read_text())
    entries = doc["results"]
    if not entries:
        raise DataError("calibration.json holds no calibrated vehicles")
    grid = _freq_grid(args)

    vehicles = []
    lins = []
    for e in entries:
        theta = FvdmParams(**e["theta"])
        dx_star = equilibrium_headway(theta, args.v_star)
        eq = EquilibriumSpec(args.v_star, 0.0, dx_star)
        lin = linearize_hdv(theta, eq)
        w0 = numeric_critical_frequency(lin, grid)
        margin = delay_margin(lin)
        lins.append(lin)
        vehicles.append(
            {
                "leader_id": e["leader_id"],
                "follower_id": e["follower_id"],
                "k1": lin.k1,
                "k2": lin.k2,
                "k3": lin.k3,
                "lambda2": lin.lambda2,
                "tau": lin.tau,
                "equilibrium_headway": dx_star,
                "omega0": w0,
                "string_stable": w0 == 0.0,
                "delay_margin": margin,
                "internally_stable": lin.tau < margin,
            }
        )
    _write_json(
        out / "stability.json",
        {
            "v_star": args.v_star,
            "omega_grid": {
                "omega_min": grid.omega_min,
                "omega_max": grid.omega_max,
                "points": grid.points,
            },
            "platoon_omega0": platoon_critical_frequency(lins, grid),
            "vehicles": vehicles,
        },
    )
    shutil.copyfile(src, out / "calibration.json")
    flags = _stage_flags(args, "stability", **_grid_flags(grid))
    _write_manifest(out, "stability", flags, {src.name: _sha256_file(src)}, None, started)
    return EXIT_OK


# ---------------------------------------------------------------- optimize-gains


def _parse_gain_grid(raw: str | None) -> GainGridSpec:
    if not raw:
        return GainGridSpec()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as err:
        raise UsageError(f"--gain-grid is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise UsageError('--gain-grid must look like {"k1": [lo, hi, step], ...}')
    axes = {}
    for name in ("k1", "k2", "k3"):
        if name in payload:
            try:
                lo, hi, step = (float(v) for v in payload[name])
            except (TypeError, ValueError):
                raise UsageError(f"--gain-grid {name} must be [lo, hi, step]") from None
            if not (step > 0 and hi >= lo):
                raise UsageError(f"--gain-grid {name} needs step > 0 and hi >= lo")
            axes[f"{name}_values"] = _default_gain_axis(lo, hi, step)
    return GainGridSpec(**axes)


def cmd_optimize_gains(args) -> int:
    gspec = _parse_gain_grid(args.gain_grid)
    out = _outdir(args)
    started = _utcnow()
    src = _resolve_input(args.input, "stability.json")
    doc = json.loads(src.read_text())
    fleet = doc["vehicles"]
    if not fleet:
        raise DataError("stability.json holds no vehicles")
    lins = [
        LinearizedHdv(v["k1"], v["k2"], v["k3"], v["lambda2"], v["tau"]) for v in fleet
    ]
    platoon = [lins[i % len(lins)] for i in range(args.platoon)]

    v_star = doc["v_star"]
    lam2 = args.lambda2
    mid = 0.5 * (args.headway_min + args.headway_max)
    lam3 = args.lambda3 if args.lambda3 is not None else mid - lam2 * v_star
    eq = EquilibriumSpec(v_star, lam2, lam3)
    fgrid = _freq_grid(args, doc.get("omega_grid"))

    res = optimize_gains(
        platoon,
        eq,
        headway_min=args.headway_min,
        headway_max=args.headway_max,
        disturbance_beta=args.beta,
        grid=gspec,
        freq_grid=fgrid,
    )
    heatmaps = write_heatmaps(res, out / "heatmaps")
    _write_json(
        out / "gains.json",
        {
            "v_star": v_star,
            "lambda2": lam2,
            "lambda3": lam3,
            "headway_min": args.headway_min,
            "headway_max": args.headway_max,
            "beta": args.beta,
            "eta": res.eta,
            "platoon": args.platoon,
            "best": asdict(res.best_gains),
            "best_stable": {"count": res.best_stable.count, "exact": res.best_stable.exact},
            "best_safe": {"count": res.best_safe.count, "exact": res.best_safe.exact},
            # paths relative to the directory holding gains.json
            "heatmap_files": sorted(p.relative_to(out).as_posix() for p in heatmaps),
        },
    )
    shutil.copyfile(src, out / "stability.json")
    calib_src = src.parent / "calibration.json"
    if calib_src.exists():
        shutil.copyfile(calib_src, out / "calibration.json")
    flags = _stage_flags(args, "optimize-gains", **_grid_flags(fgrid))
    _write_manifest(out, "optimize-gains", flags, {src.name: _sha256_file(src)}, None, started)
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def _peak_amplification_omega(lins, grid: FrequencyGrid) -> float:
    """Frequency where the human platoon amplifies a wave the most."""
    w0 = platoon_critical_frequency(lins, grid)
    if w0 == 0.0:
        return 0.6
    omegas = grid.values(top=w0)
    total = np.zeros_like(omegas)
    for lin in lins:
        total += 0.5 * np.log(hdv_gain_sq(lin, omegas))
    return float(omegas[int(np.argmax(total))])


def _write_platoon_csv(trajs, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vehicle_id", "frame_id", "t", "x_m", "v_mps", "a_mps2", "preceding_id"])
        for idx, tr in enumerate(trajs):
            times = tr.times()
            for k in range(tr.n):
                w.writerow(
                    [
                        idx + 1,
                        tr.start_frame + k,
                        repr(float(times[k])),
                        repr(float(tr.positions[k])),
                        repr(float(tr.speeds[k])),
                        repr(float(tr.accels[k])),
                        idx,
                    ]
                )


def _amplitudes(trajs, v_star: float) -> list[float]:
    # steady-state speed swing, measured over the last half of the run
    out = []
    for tr in trajs:
        tail = tr.speeds[tr.n // 2 :]
        out.append(float(np.max(np.abs(tail - v_star))) if tail.size else 0.0)
    return out


def cmd_simulate(args) -> int:
    out = _outdir(args)
    started = _utcnow()
    gains_path = _resolve_input(args.input, "gains.json")
    stage_dir = gains_path.parent
    gains_doc = json.loads(gains_path.read_text())
    stab_path = stage_dir / "stability.json"
    calib_path = stage_dir / "calibration.json"
    for p in (stab_path, calib_path):
        if not p.exists():
            raise DataError(f"{p.name} must sit next to gains.json")
    stab_doc = json.loads(stab_path.read_text())
    calib_doc = json.loads(calib_path.read_text())

    thetas = [FvdmParams(**e["theta"]) for e in calib_doc["results"]]
    if not thetas:
        raise DataError("calibration.json holds no calibrated vehicles")
    g = ControllerGains(**gains_doc["best"])
    v_star = gains_doc["v_star"]
    n_follow = args.platoon if args.platoon is not None else gains_doc["platoon"]
    vehicles = (Cav(g, gains_doc["lambda2"], gains_doc["lambda3"]),) + tuple(
        Hdv(thetas[i % len(thetas)]) for i in range(n_follow)
    )

    if args.profile == "constant":
        profile = ConstantProfile(v_star)
        omega = 0.0
    else:
        lins = [
            LinearizedHdv(v["k1"], v["k2"], v["k3"], v["lambda2"], v["tau"])
            for v in stab_doc["vehicles"]
        ]
        omega = args.omega if args.omega is not None else _peak_amplification_omega(
            [lins[i % len(lins)] for i in range(n_follow)], _freq_grid(args, stab_doc.get("omega_grid"))
        )
        profile = SinusoidProfile(v_star, args.amplitude, omega)

    spec = PlatoonSpec(vehicles=vehicles, lead_profile=profile, v_star=v_star)
    flags = {
        "platoon": n_follow,
        "duration": args.duration,
        "dt": args.dt,
        "amplitude": args.amplitude,
        "omega": omega,
        "profile": args.profile,
    }
    inputs = {
        "gains.json": _sha256_file(gains_path),
        "stability.json": _sha256_file(stab_path),
        "calibration.json": _sha256_file(calib_path),
    }
    try:
        trajs = simulate_platoon(spec, args.duration, dt=args.dt)
    except CollisionDetected as err:
        _write_platoon_csv(err.partial, out / "platoon.csv")
        _write_json(
            out / "simulate_summary.json",
            {
                "collision": {"vehicle_index": err.vehicle_index, "frame": err.frame},
                "omega": omega,
                "v_star": v_star,
                "vehicles": len(vehicles) + 1,
            },
        )
        _write_manifest(out, "simulate", flags, inputs, None, started)
        print(
            f"collision: vehicle {err.vehicle_index} at frame {err.frame}; "
            f"partial trajectories written to {out / 'platoon.csv'}",
            file=sys.stderr,
        )
        return EXIT_COLLISION

    _write_platoon_csv(trajs, out / "platoon.csv")
    amps = _amplitudes(trajs, v_star)
    gaps = [
        float(np.min(trajs[i - 1].positions - trajs[i].positions))
        for i in range(1, len(trajs))
    ]
    _write_json(
        out / "simulate_summary.json",
        {
            "collision": None,
            "omega": omega,
            "v_star": v_star,
            "vehicles": len(trajs),
            "speed_amplitudes": amps,
            "amplification_vs_leader": [a / amps[0] if amps[0] else 0.0 for a in amps],
            "min_gaps": gaps,
        },
    )
    _write_manifest(out, "simulate", flags, inputs, None, started)
    return EXIT_OK


# ---------------------------------------------------------------- pipeline


def cmd_pipeline(args) -> int:
    if args.seed is None:
        raise UsageError("pipeline requires --seed (the calibrate stage is randomized)")
    out = _outdir(args)
    started = _utcnow()
    if args.input != "synthetic":
        src = Path(args.input)
        if not src.exists():
            raise DataError(f"input {src} does not exist")
        inputs = {src.name: _sha256_file(src)}
    else:
        inputs = {"input": "synthetic"}

    pipeline_flags = _pipeline_flags()
    rc = EXIT_OK
    stage_input = args.input
    try:
        for stage in STAGES:
            stage_out = out / stage.dirname
            ns = argparse.Namespace(input=stage_input, out=str(stage_out))
            for flag in stage.flags:
                # a flag the pipeline declares differently (simulate's
                # --platoon) keeps the stage's own default
                shared = pipeline_flags[flag.dest] is flag
                setattr(ns, flag.dest, getattr(args, flag.dest) if shared else flag.kwargs["default"])
            rc = _handler(stage.name)(ns)
            if rc != EXIT_OK:
                break
            stage_input = str(stage_out)
    finally:
        flags = {k: v for k, v in vars(args).items() if k not in ("input", "out", "func")}
        _write_manifest(out, "pipeline", flags, inputs, args.seed, started)
    return rc


# ---------------------------------------------------------------- parser


class _Flag:
    """One option, declared once and added to every parser that takes it."""

    def __init__(self, option: str, **kwargs):
        self.option = option
        self.kwargs = kwargs
        self.dest = option.lstrip("-").replace("-", "_")


class Stage(NamedTuple):
    name: str  # subcommand
    dirname: str  # directory under a pipeline's --out
    help: str
    flags: tuple


_SEED = _Flag("--seed", type=int, default=None,
              help="rng seed (required by calibrate and pipeline; seeds synthetic noise)")
_OMEGA_GRID = (
    _Flag("--omega-min", type=float, default=None, help="frequency grid floor (rad/s)"),
    _Flag("--omega-max", type=float, default=None, help="frequency grid ceiling (rad/s)"),
    _Flag("--omega-points", type=int, default=None, help="frequency grid size"),
)

# In run order: pipeline feeds each stage's directory to the next one.
STAGES = (
    Stage("ingest", "01_ingest", "read raw trajectories into the canonical schema", (
        _Flag("--units", choices=("feet", "meters"), default="feet",
              help="units of the raw file (default feet)"),
        _SEED,
        _Flag("--noise", type=float, default=0.0,
              help="uniform position noise half-width for synthetic data (m)"),
    )),
    Stage("smooth", "02_smooth", "denoise positions and rebuild speeds/accelerations", (
        _Flag("--tx", type=float, default=0.5, help="position kernel width (s)"),
        _Flag("--tv", type=float, default=1.0, help="speed kernel width (s)"),
        _Flag("--ta", type=float, default=4.0, help="acceleration kernel width (s)"),
    )),
    Stage("pair", "03_pair", "extract leader-follower calibration windows", (
        _Flag("--lane", type=int, default=None, help="restrict to one lane id"),
        _Flag("--min-samples", type=int, default=600,
              help="overlap length below which a pair is flagged short"),
    )),
    Stage("calibrate", "04_calibrate", "fit car-following parameters per pair", (
        _SEED,
        _Flag("--pairs", type=int, default=None, help="calibrate only the first N pairs"),
        _Flag("--population", type=int, default=50),
        _Flag("--generations", type=int, default=1000),
        _Flag("--stagnation", type=int, default=100),
        _Flag("--bounds", default=None, help='JSON parameter box overrides, e.g. {"alpha": [1, 5]}'),
        _Flag("--pin-tau", action="store_true", help="fix the reaction delay at zero"),
    )),
    Stage("stability", "05_stability", "linearize calibrated models and find critical frequencies", (
        _Flag("--v-star", type=float, default=12.0, help="equilibrium speed (m/s)"),
        *_OMEGA_GRID,
    )),
    Stage("optimize-gains", "06_gains", "search controller gains maximizing stabilized vehicles", (
        _Flag("--headway-min", type=float, default=10.0, help="safe headway floor (m)"),
        _Flag("--headway-max", type=float, default=30.0, help="safe headway ceiling (m)"),
        _Flag("--beta", type=float, default=3.0, help="disturbance amplitude (m)"),
        _Flag("--lambda2", type=float, default=0.0, help="controller headway-speed slope (s)"),
        _Flag("--lambda3", type=float, default=None,
              help="controller headway offset (m); default centers the safe band"),
        _Flag("--platoon", type=int, default=20,
              help="followers behind the controlled vehicle (fleet cycled)"),
        _Flag("--gain-grid", default=None, help='JSON axis overrides, e.g. {"k1": [0, 1, 0.05]}'),
        *_OMEGA_GRID,
    )),
    Stage("simulate", "07_validate", "validate designed gains in a platoon simulation", (
        _Flag("--platoon", type=int, default=None,
              help="followers behind the controlled vehicle (default from gains.json)"),
        _Flag("--duration", type=float, default=300.0, help="simulated time (s)"),
        _Flag("--dt", type=float, default=0.1, help="integration step (s)"),
        _Flag("--amplitude", type=float, default=1.0, help="leader speed swing (m/s)"),
        _Flag("--omega", type=float, default=None,
              help="leader wave frequency (rad/s); default= worst amplified"),
        _Flag("--profile", choices=("sinusoid", "constant"), default="sinusoid"),
        *_OMEGA_GRID,
    )),
)


def _stage_flags(args, subcommand: str, **resolved) -> dict:
    """A stage's declared flags as parsed, for its manifest; resolved holds
    the values the stage filled in itself."""
    stage = next(s for s in STAGES if s.name == subcommand)
    return {f.dest: getattr(args, f.dest) for f in stage.flags} | resolved


def _pipeline_flags() -> dict:
    """Every stage's flags by dest; the first stage to declare a name owns it,
    so pipeline's --platoon is the optimize-gains one."""
    flags = {}
    for stage in STAGES:
        for flag in stage.flags:
            flags.setdefault(flag.dest, flag)
    return flags


def _handler(subcommand: str):
    # looked up on each call, so a replaced module global takes effect
    return globals()["cmd_" + subcommand.replace("-", "_")]


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
        p.add_argument("--out", required=True, help="output directory")
        for flag in stage.flags:
            p.add_argument(flag.option, **flag.kwargs)
        p.set_defaults(func=_handler(stage.name))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as err:
        print(f"stopgo: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CollisionDetected as err:
        print(f"stopgo: collision: {err}", file=sys.stderr)
        return EXIT_COLLISION
    except DataError as err:
        print(f"stopgo: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except StopgoError as err:
        print(f"stopgo: error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:
        print(f"stopgo: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
