"""Symmetric exponential moving-average smoothing and numerical differentiation.

Position data from vehicle trajectory datasets carries measurement noise that
differentiation amplifies badly, so raw positions are differentiated first and
all three kinematic series are then smoothed with a symmetric exponential
kernel whose width is set per quantity (wider for acceleration than position).

A series may hold several blocks, one per vehicle, laid end to end: starts
gives each block's first row, and every window and difference stays inside
its own block, so a column of many vehicles is smoothed in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectory_io import DT


@dataclass(frozen=True)
class SmoothingConfig:
    """Kernel time scales in seconds, one per kinematic quantity."""

    t_x: float = 0.5
    t_v: float = 1.0
    t_a: float = 4.0

    def __post_init__(self):
        for name in ("t_x", "t_v", "t_a"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def _blocks(n: int, starts) -> tuple[np.ndarray, np.ndarray]:
    """Each block's first and last row in a series of n rows."""
    first = np.asarray(starts, dtype=np.intp)
    if (first.ndim != 1 or first.size == 0 or first[0] != 0 or first[-1] >= n
            or np.any(first[1:] <= first[:-1])):
        raise ValueError("starts must rise strictly from 0 and stay below the series length")
    return first, np.append(first[1:], n) - 1


def sema_smooth(series, T: float, dt: float = DT, starts=(0,)) -> np.ndarray:
    """Smooth each block of a series with a symmetric exponential kernel.

    Each sample is replaced by a normalized weighted average of its
    neighbours with weights exp(-|k-j|/delta), delta = T/dt.  The window
    half-width is min(floor(3*delta), distance to either end of the
    sample's block), so the window shrinks symmetrically near the block's
    ends and its first and last samples pass through unchanged.

    The samples with the full window come from one np.convolve over the
    whole series.  Windows that straddle two blocks land only on samples
    within floor(3*delta) of a block's end, which are then recomputed one
    half-width d at a time: the sample d rows in from a block's end averages
    the 2d + 1 rows at that end, so each block's edge rows are gathered once
    and every half-width reads its windows from them.  Each window is one
    BLAS dot product, as np.dot sums it, so a block's output has the bits
    it has when smoothed alone.  The kernel reaches no wider than the
    longest block needs.

    Args:
        series: input samples, any 1-d sequence.
        T: kernel time scale in seconds, > 0.
        dt: sampling interval in seconds, > 0.
        starts: first row of each block, rising from 0.

    Returns:
        Smoothed array of the same length.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-d")
    n = x.size
    if n == 0:
        raise ValueError("cannot smooth an empty series")
    first, last = _blocks(n, starts)

    delta = T / dt
    d_max = math.floor(3.0 * delta)
    d_cap = min(d_max, int(np.max(last - first)) // 2)  # the widest window any sample gets
    if d_cap == 0:
        return x.copy()

    out = np.empty(n)
    kernel = np.exp(-np.abs(np.arange(-d_cap, d_cap + 1)) / delta)

    # Samples d_max or more from their block's ends see the full window.
    if d_cap == d_max:
        out[d_max : n - d_max] = np.convolve(x, kernel, mode="valid") / kernel.sum()

    # A block's first and last samples are their own windows: np.dot of one
    # element is a plain product, which keeps a -0.0.
    out[first], out[last] = x[first], x[last]

    # Nearer its block's ends a sample's window shrinks to keep it symmetric.
    # Blocks go longest first, so the k blocks long enough for d lead.
    order = np.argsort(first - last, kind="stable")
    first, last = first[order], last[order]
    halves = (last - first) // 2
    d_end = min(d_max - 1, d_cap)
    span = np.arange(2 * d_end + 1)
    head = np.take(x, first[:, None] + span, mode="clip")
    tail = np.take(x, last[:, None] - span[::-1], mode="clip")
    for d in range(1, d_end + 1):
        k = int(np.count_nonzero(halves >= d))
        w = kernel[d_cap - d : d_cap + d + 1]
        w_sum = w.sum()
        # row-by-column matmul is one ddot per window, as np.dot; a 2-d @ 1-d is gemv
        out[first[:k] + d] = np.matmul(head[:k, None, : 2 * d + 1], w[:, None])[:, 0, 0] / w_sum
        out[last[:k] - d] = np.matmul(tail[:k, None, -2 * d - 1 :], w[:, None])[:, 0, 0] / w_sum
    return out


def differentiate(series, dt: float = DT, starts=(0,)) -> np.ndarray:
    """Differentiate each block of a sampled series: central differences in
    the interior, one-sided differences at the block's ends, 0 for a block of
    one sample (np.gradient's formulas).  Output has the input's length.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("cannot differentiate an empty series")
    if dt <= 0:
        raise ValueError("dt must be positive")
    first, last = _blocks(x.size, starts)
    out = np.empty(x.size)
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    single = first == last
    out[first[single]] = 0.0
    first, last = first[~single], last[~single]
    out[first] = (x[first + 1] - x[first]) / dt
    out[last] = (x[last] - x[last - 1]) / dt
    return out


def smooth_trajectory(positions, config: SmoothingConfig | None = None, starts=(0,)):
    """Produce smoothed position, speed and acceleration series from raw positions.

    Differentiation happens first (positions -> speeds -> accelerations on the
    raw data) and only then is each of the three series smoothed with its own
    kernel width.  Smoothing before differentiating would let the kernel widths
    interact; this order keeps them independent.  starts gives each vehicle's
    first row when positions holds several vehicles end to end.

    Returns:
        (x_s, v_s, a_s) arrays, all the same length as the input.
    """
    cfg = config or SmoothingConfig()
    x = np.asarray(positions, dtype=float)
    v = differentiate(x, starts=starts)
    a = differentiate(v, starts=starts)
    return (sema_smooth(x, cfg.t_x, starts=starts), sema_smooth(v, cfg.t_v, starts=starts),
            sema_smooth(a, cfg.t_a, starts=starts))
