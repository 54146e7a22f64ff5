"""Seeded input generator for the stopgo benchmark.

Uses numpy only and never imports stopgo, so a change to the program (its
integrator, its parser) cannot change the inputs it is measured on.

    python3 perfbench/gen.py <workload> <seed> <outdir>

writes the workload's input, ``<outdir>/ngsim.csv``: raw NGSIM-style
trajectories in feet under NGSIM column names, with the extra columns a real
export carries, measurement noise, dropout gaps that split vehicles into
fragments, and exact ``Preceding`` links.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

FT = 0.3048  # m per ft
DT = 0.1  # s between frames

NGSIM_HEADER = [
    "Vehicle_ID", "Frame_ID", "Total_Frames", "Global_Time", "Local_X",
    "Local_Y", "Global_X", "Global_Y", "v_Length", "v_Width", "v_Class",
    "v_Vel", "v_Acc", "Lane_ID", "Preceding", "Following", "Space_Headway",
    "Time_Headway",
]

# Sizes per workload.  calib-pipeline: one lane, a stop-and-go leader and six
# followers.  bulk-prep: four lanes of twelve vehicles.
SIZES = {
    "calib-pipeline": {"lanes": 1, "vehicles": 7, "frames": 1300, "dropouts": 0.0},
    "bulk-prep": {"lanes": 4, "vehicles": 12, "frames": 1100, "dropouts": 0.2},
}


# ------------------------------------------------------------------ drivers


def _draw_driver(rng) -> dict:
    """Calm driver parameters inside the calibration search box, so that
    long strings of them stay collision-free."""
    return {
        "alpha": float(rng.uniform(1.5, 3.0)),
        "beta": float(rng.uniform(1.2, 2.5)),
        "b_c": float(rng.uniform(6.0, 8.0)),
        "b_f": float(rng.uniform(15.0, 25.0)),
        "v0": float(rng.uniform(10.0, 14.0)),
        "m": float(rng.uniform(0.08, 0.15)),
        "tau": float(np.round(rng.uniform(0.1, 0.3), 1)),
    }


def _v_max(th: dict) -> float:
    return th["v0"] * (1.0 - math.tanh(th["m"] * (th["b_c"] - th["b_f"])))


def _eq_headway(th: dict, v: float) -> float:
    q = v / th["v0"] + math.tanh(th["m"] * (th["b_c"] - th["b_f"]))
    return th["b_f"] + math.atanh(q) / th["m"]


# ------------------------------------------------------------------ traffic


def _lead_speeds(rng, n: int) -> np.ndarray:
    """Stop-and-go leader: slow waves between a crawl and cruising speed."""
    t = np.arange(n) * DT
    period = rng.uniform(35.0, 60.0)
    lo, hi = rng.uniform(0.5, 2.0), rng.uniform(9.0, 12.0)
    wave = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / period + rng.uniform(0, 2 * np.pi)))
    ripple = 0.6 * np.sin(2.0 * np.pi * t / rng.uniform(8.0, 15.0) + rng.uniform(0, 2 * np.pi))
    return np.clip(lo + (hi - lo) * wave + ripple, 0.0, None)


def _simulate_lane(rng, n_followers: int, n: int, x0: float):
    """Positions and speeds (n, 1 + n_followers) of one lane, leader first.

    Followers run a delayed full-velocity-difference model behind their
    predecessor.  Lanes whose spacing ever falls below a car length are
    redrawn, so every generated pair has positive headways.
    """
    for _ in range(200):
        v_lead = _lead_speeds(rng, n)
        drivers = [_draw_driver(rng) for _ in range(n_followers)]
        if min(_v_max(d) for d in drivers) < v_lead.max() + 1.0:
            continue
        X = np.empty((n, n_followers + 1))
        V = np.empty((n, n_followers + 1))
        X[0, 0] = x0
        np.cumsum(0.5 * (v_lead[:-1] + v_lead[1:]) * DT, out=X[1:, 0])
        X[1:, 0] += x0
        V[:, 0] = v_lead
        for j, d in enumerate(drivers, start=1):
            X[0, j] = X[0, j - 1] - _eq_headway(d, v_lead[0])
            V[0, j] = v_lead[0]
        p = {k: np.array([d[k] for d in drivers]) for k in drivers[0]}
        lag = np.floor(p["tau"] / DT + 0.5).astype(int)
        cols = np.arange(1, n_followers + 1)
        off = np.tanh(p["m"] * (p["b_c"] - p["b_f"]))
        for k in range(n - 1):
            jd = np.maximum(k - lag, 0)
            h = X[jd, cols - 1] - X[jd, cols]
            vopt = p["v0"] * (np.tanh(p["m"] * (h - p["b_f"])) - off)
            a = p["alpha"] * (vopt - V[jd, cols]) + p["beta"] * (V[jd, cols - 1] - V[jd, cols])
            vn = V[k, cols] + a * DT
            stop = vn < 0.0
            V[k + 1, cols] = np.where(stop, 0.0, vn)
            X[k + 1, cols] = np.where(stop, X[k, cols], X[k, cols] + V[k, cols] * DT + 0.5 * a * DT * DT)
        if np.min(X[:, :-1] - X[:, 1:]) > 4.0:
            return X, V
    raise RuntimeError("no collision-free lane after 200 draws")


def _ngsim_rows(rng, lanes: int, vehicles: int, frames: int, dropouts: float):
    """Column arrays of the raw file, one entry per vehicle-frame row."""
    cols = {h: [] for h in NGSIM_HEADER}
    first_frame = int(rng.integers(100, 5000))
    ids = np.arange(1, lanes * vehicles + 1).reshape(lanes, vehicles)
    for lane in range(lanes):
        X, V = _simulate_lane(rng, vehicles - 1, frames, x0=float(rng.uniform(900.0, 1100.0)))
        A = np.gradient(V, DT, axis=0)
        for j in range(vehicles):
            keep = np.ones(frames, dtype=bool)
            if rng.random() < dropouts:
                gap = int(rng.integers(5, 40))
                start = int(rng.integers(50, frames - gap - 50))
                keep[start : start + gap] = False
            k = np.nonzero(keep)[0]
            m = k.size
            length = float(rng.uniform(14.0, 17.0))  # ft
            y = X[k, j] / FT + rng.uniform(-0.3, 0.3, m)
            vel = V[k, j] / FT + rng.uniform(-0.2, 0.2, m)
            acc = A[k, j] / FT + rng.uniform(-0.5, 0.5, m)
            lead = int(ids[lane, j - 1]) if j > 0 else 0
            follow = int(ids[lane, j + 1]) if j + 1 < vehicles else 0
            space = (X[k, j - 1] - X[k, j]) / FT if j > 0 else np.zeros(m)
            cols["Vehicle_ID"].append(np.full(m, ids[lane, j]))
            cols["Frame_ID"].append(first_frame + k)
            cols["Total_Frames"].append(np.full(m, m))
            cols["Global_Time"].append(1113433135300 + 100 * (first_frame + k))
            cols["Local_X"].append(6.0 + 12.0 * lane + rng.uniform(-1.0, 1.0, m))
            cols["Local_Y"].append(y)
            cols["Global_X"].append(6042000.0 + 0.1 * y)
            cols["Global_Y"].append(2133000.0 + y)
            cols["v_Length"].append(np.full(m, length))
            cols["v_Width"].append(np.full(m, 6.0))
            cols["v_Class"].append(np.full(m, 2))
            cols["v_Vel"].append(vel)
            cols["v_Acc"].append(acc)
            cols["Lane_ID"].append(np.full(m, lane + 1))
            cols["Preceding"].append(np.full(m, lead))
            cols["Following"].append(np.full(m, follow))
            cols["Space_Headway"].append(space)
            cols["Time_Headway"].append(np.where(V[k, j] > 0.1, space * FT / np.maximum(V[k, j], 0.1), 9999.99))
    return {h: np.concatenate(c) for h, c in cols.items()}


def _fmt(values: np.ndarray) -> list[str]:
    # Python floats, never numpy scalars: repr(np.float64) is "np.float64(...)"
    if values.dtype.kind in "iu":
        return [str(int(v)) for v in values.tolist()]
    return [f"{float(v):.3f}" for v in values.tolist()]


def write_ngsim(path: Path, seed: int, lanes: int, vehicles: int, frames: int, dropouts: float) -> int:
    """Write a raw NGSIM-style file; returns its row count."""
    rng = np.random.default_rng([seed, lanes, vehicles, frames])
    cols = _ngsim_rows(rng, lanes, vehicles, frames, dropouts)
    text = [_fmt(cols[h]) for h in NGSIM_HEADER]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(NGSIM_HEADER) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*text))
    return len(text[0])


def generate(workload: str, seed: int, outdir: Path, scale: float = 1.0) -> None:
    """Write the input of one workload; scale < 1 shrinks it (smoke test)."""
    outdir.mkdir(parents=True, exist_ok=True)
    size = dict(SIZES[workload])
    size["frames"] = max(200, int(size["frames"] * scale))
    size["vehicles"] = max(3, int(size["vehicles"] * scale))
    write_ngsim(outdir / "ngsim.csv", seed, **size)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: gen.py <workload> <seed> <outdir>")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
