"""Symmetric exponential moving-average smoothing and numerical differentiation.

Position data from vehicle trajectory datasets carries measurement noise that
differentiation amplifies badly, so raw positions are differentiated first and
all three kinematic series are then smoothed with a symmetric exponential
kernel whose width is set per quantity (wider for acceleration than position).
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


def sema_smooth(series, T: float, dt: float = DT) -> np.ndarray:
    """Smooth a series with a symmetric exponential kernel.

    Each sample is replaced by a normalized weighted average of its
    neighbours with weights exp(-|k-j|/delta), delta = T/dt.  The window
    half-width is min(floor(3*delta), distance to either end), so the
    window shrinks symmetrically near the boundaries and the first and
    last samples pass through unchanged.

    Args:
        series: input samples, any 1-d sequence.
        T: kernel time scale in seconds, > 0.
        dt: sampling interval in seconds, > 0.

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

    delta = T / dt
    d_max = math.floor(3.0 * delta)
    if d_max == 0 or n == 1:
        return x.copy()

    out = np.empty(n)
    offsets = np.arange(-d_max, d_max + 1)
    kernel = np.exp(-np.abs(offsets) / delta)

    # Interior samples see the full window; one convolution covers them all.
    lo, hi = d_max, n - d_max
    if hi > lo:
        out[lo:hi] = np.convolve(x, kernel, mode="valid") / kernel.sum()

    # Near the ends the window shrinks to keep it symmetric.
    for i in range(min(d_max, n)):
        for idx in {i, n - 1 - i}:
            d = min(d_max, idx, n - 1 - idx)
            w = kernel[d_max - d : d_max + d + 1]
            out[idx] = np.dot(x[idx - d : idx + d + 1], w) / w.sum()
    return out


def differentiate(series, dt: float = DT) -> np.ndarray:
    """Differentiate a sampled series: central differences in the interior,
    one-sided differences at the endpoints.  Output has the input's length.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("cannot differentiate an empty series")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if x.size == 1:
        return np.zeros(1)
    return np.gradient(x, dt)


def smooth_trajectory(positions, config: SmoothingConfig | None = None):
    """Produce smoothed position, speed and acceleration series from raw positions.

    Differentiation happens first (positions -> speeds -> accelerations on the
    raw data) and only then is each of the three series smoothed with its own
    kernel width.  Smoothing before differentiating would let the kernel widths
    interact; this order keeps them independent.

    Returns:
        (x_s, v_s, a_s) arrays, all the same length as the input.
    """
    cfg = config or SmoothingConfig()
    x = np.asarray(positions, dtype=float)
    v = differentiate(x)
    a = differentiate(v)
    return sema_smooth(x, cfg.t_x), sema_smooth(v, cfg.t_v), sema_smooth(a, cfg.t_a)
