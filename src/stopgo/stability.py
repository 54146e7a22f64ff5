"""Frequency-domain string stability analysis and controller gain design.

A calibrated car-following model linearized about an equilibrium speed gives
each human-driven vehicle a transfer function from its leader's position
perturbation to its own.  A platoon amplifies a disturbance when the product
of those gains exceeds one.  The automated vehicle at the head of the string
gets the grid gains that keep the product at or below one, and its headway
inside a safe band, for the most followers; optimize_gains turns each count
level into one bound on (k2 + k3 + k1 lambda2)^2 per gain column.

A gain cell's count of followers is an int: n >= 0 followers, UNBOUNDED_CELL
(-1) when no follower amplifies, INFEASIBLE_CELL (-2) when the gains are not
string stable.  A count equal to the platoon length is only a lower bound:
the platoon ran out of followers before the limit (count_record).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class EquilibriumSpec:
    """Uniform-flow operating point with the linear desired-headway rule
    dx* = lambda2 * v + lambda3."""

    v_star: float  # m/s
    lambda2: float  # s
    lambda3: float  # m

    def __post_init__(self):
        if self.v_star < 0:
            raise ValueError("v_star must be nonnegative")
        if self.lambda2 < 0:
            raise ValueError("lambda2 must be nonnegative")

    @property
    def desired_headway(self) -> float:
        return self.lambda2 * self.v_star + self.lambda3


@dataclass(frozen=True)
class LinearizedHdv:
    """Linearized human-driver feedback gains: spacing k1, speed k2,
    relative-speed k3 and reaction delay tau."""

    k1: float  # 1/s^2
    k2: float  # 1/s
    k3: float  # 1/s
    tau: float = 0.0  # s

    def __post_init__(self):
        if self.k1 < 0 or self.k2 <= 0 or self.k3 < 0:
            raise ValueError("require k1 >= 0, k2 > 0, k3 >= 0")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")


@dataclass(frozen=True)
class ControllerGains:
    """Feedback gains of the automated vehicle's spacing controller."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0 or self.k3 < 0:
            raise ValueError("gains must be nonnegative")


@dataclass(frozen=True)
class FrequencyGrid:
    """Log-spaced angular frequency grid in rad/s."""

    omega_min: float = 1e-3
    omega_max: float = 1e2
    points: int = 4000

    def __post_init__(self):
        if not (0 < self.omega_min < self.omega_max):
            raise ValueError("require 0 < omega_min < omega_max")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")

    def values(self, top: float | None = None) -> np.ndarray:
        """Grid values, optionally truncated to an upper frequency."""
        hi = self.omega_max if top is None else min(top, self.omega_max)
        lo = min(self.omega_min, hi / 10.0)
        return np.logspace(math.log10(lo), math.log10(hi), self.points)


GAIN_AXIS_RTOL = 1e-9  # relative tolerance on the number of steps in a gain axis


def gain_axis(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Gains lo, lo + step, ..., hi; the step must divide hi - lo (to GAIN_AXIS_RTOL)."""
    if not (0 <= lo <= hi < math.inf and 0 < step < math.inf):
        raise ValueError("needs 0 <= lo <= hi and step > 0, all finite")
    cells = (hi - lo) / step
    n = round(cells)
    if abs(cells - n) > GAIN_AXIS_RTOL * max(n, 1):
        raise ValueError(f"step {step} does not divide [{lo}, {hi}] to {GAIN_AXIS_RTOL} relative")
    return tuple(np.linspace(lo, hi, n + 1))


def gain_label(gain: float) -> str:
    """A gain as the heatmaps print it, in file names and row and column headers."""
    return f"{gain:g}"


@dataclass(frozen=True)
class GainGridSpec:
    """Search grid for the controller gains; no two gains of an axis print alike."""

    k1_values: tuple = field(default_factory=lambda: gain_axis(0.0, 1.0, 0.05))
    k2_values: tuple = field(default_factory=lambda: gain_axis(0.02, 2.0, 0.02))
    k3_values: tuple = field(default_factory=lambda: gain_axis(0.02, 2.0, 0.02))

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            labels = Counter(gain_label(g) for g in getattr(self, f"{name}_values"))
            alike = [label for label, count in labels.items() if count > 1]
            if alike:
                raise ValueError(f"{name} has gains that the heatmaps print alike as {alike}")


UNBOUNDED_CELL = -1
INFEASIBLE_CELL = -2


@dataclass
class GainSearchResult:
    """Count grids of a gain search, indexed (k1, k2, k3) over grid, and its
    best cell.  Each cell is n followers, UNBOUNDED_CELL, INFEASIBLE_CELL, or
    the platoon length as a lower bound on the count."""

    grid: GainGridSpec
    eta: float
    n_stable_grid: np.ndarray
    n_safe_grid: np.ndarray
    best_index: tuple[int, int, int]

    @property
    def best_gains(self) -> ControllerGains:
        i, j, l = self.best_index
        return ControllerGains(self.grid.k1_values[i], self.grid.k2_values[j], self.grid.k3_values[l])

    @property
    def best_stable(self) -> int:
        return int(self.n_stable_grid[self.best_index])

    @property
    def best_safe(self) -> int:
        return int(self.n_safe_grid[self.best_index])


def count_record(count: int, n_followers: int) -> dict:
    """A count as {"count", "exact"}: count None when unbounded; exact False
    when the count equals the platoon length, a lower bound on the true one."""
    return {"count": None if count == UNBOUNDED_CELL else count, "exact": count != n_followers}


def hdv_gain_sq(lin: LinearizedHdv, omega):
    """Squared magnitude of the human-driver transfer function at frequency omega.

    Evaluated by substituting s = j*omega into the delayed second-order
    transfer function; omega may be a scalar or an array.  The DC value is the
    exact limit (1 when k1 > 0).
    """
    w = np.asarray(omega, dtype=float)
    K = lin.k2 + lin.k3
    num = lin.k1 + 1j * w * lin.k3
    shift = np.exp(-1j * w * lin.tau)
    den = -(w * w) + (1j * w * K + lin.k1) * shift
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num * shift / den
        out = (t * t.conjugate()).real
    dc = 1.0 if lin.k1 > 0 else (lin.k3 / K) ** 2
    out = np.where(w == 0.0, dc, out)
    return float(out) if out.ndim == 0 else out


def delay_margin(lin: LinearizedHdv) -> float:
    """Largest reaction delay for which the driver's own loop stays stable.

    The loop gain (K s + k1) e^{-s tau} / s^2, with K = k2 + k3, has a
    magnitude that falls monotonically in omega, so it crosses one once, at
    omega_c^2 = (K^2 + sqrt(K^4 + 4 k1^2)) / 2; the loop is internally stable
    for tau < atan2(K omega_c, k1) / omega_c.  Above this margin hdv_gain_sq
    describes no steady state.
    """
    K = lin.k2 + lin.k3
    wc = math.sqrt(0.5 * (K * K + math.sqrt(K**4 + 4.0 * lin.k1 * lin.k1)))
    return math.atan2(K * wc, lin.k1) / wc


def cav_string_stable(k1, k2, k3, lambda2: float = 0.0):
    """True where gains (k1, k2, k3), scalars or arrays that broadcast, keep the
    automated vehicle from amplifying its leader's motion: the algebraic
    criterion equivalent to sup over omega of |T_A| <= 1."""
    lhs = (
        k2 * k2
        + k1 * k1 * lambda2 * lambda2
        + 2.0 * k2 * k3
        + 2.0 * k1 * k2 * lambda2
        + 2.0 * k1 * k3 * lambda2
        - 2.0 * k1
    )
    return lhs >= 0.0


def numeric_critical_frequency(lin: LinearizedHdv, grid: FrequencyGrid | None = None) -> float:
    """Largest grid frequency with gain >= 1, refined by Brent's method.

    Scans a log grid, takes the last point where the gain reaches one and
    refines the crossing against the next point to ~1e-12 relative.  Returns
    0 when the gain stays below one on the whole grid; crossings below the
    grid floor are invisible.  Valid for any tau.
    """
    fgrid = grid or FrequencyGrid()
    w = fgrid.values()
    gain = hdv_gain_sq(lin, w)
    above = np.nonzero(gain >= 1.0)[0]
    if above.size == 0:
        return 0.0
    i = int(above[-1])
    if i == len(w) - 1:
        return float(w[-1])  # still amplifying at the top of the grid

    f = lambda om: hdv_gain_sq(lin, om) - 1.0
    return _brent_root(f, float(w[i]), float(w[i + 1]), xtol=1e-14, rtol=1e-12)


def _brent_root(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f bracketed by [xa, xb] by Brent's method.

    Follows scipy.optimize.brentq's C loop operation for operation, so the
    root is the same to the bit.  Raises ValueError when f(xa) and f(xb)
    share a sign, RuntimeError after maxiter steps without convergence.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent root not converged after {maxiter} steps")


def lowest_critical_frequency(w0s) -> float:
    """The lowest positive critical frequency in w0s; 0 when none is (each vehicle string stable)."""
    return min((w0 for w0 in w0s if w0 > 0.0), default=0.0)


def platoon_critical_frequency(lins, grid: FrequencyGrid | None = None) -> float:
    """Lowest unstable vehicle's critical frequency; 0 when every vehicle in
    the platoon is string stable on its own.  A driver that recurs in the
    platoon is evaluated once."""
    return lowest_critical_frequency(numeric_critical_frequency(lin, grid) for lin in dict.fromkeys(lins))


def _levels_cleared(k_sq: np.ndarray, bounds) -> np.ndarray:
    """Per gain cell, how many levels' bounds (frequency last) K^2 = k_sq
    reaches.  np.fmax skips NaNs: a NaN bound never fails, +inf always does."""
    return sum(~(np.fmax.reduce(bound, axis=-1) > k_sq) for bound in bounds)


def _log_gain_cumsum(lins, omegas: np.ndarray) -> np.ndarray:
    # a cycled fleet repeats its drivers: each distinct one is evaluated once
    log_gain = {lin: 0.5 * np.log(hdv_gain_sq(lin, omegas)) for lin in dict.fromkeys(lins)}
    return np.cumsum(np.vstack([np.zeros_like(omegas), *map(log_gain.get, lins)]), axis=0)


def peak_gain_frequency(lins, omegas: np.ndarray) -> float:
    """The frequency in omegas that the string of followers lins amplifies most."""
    return float(omegas[int(np.argmax(_log_gain_cumsum(lins, omegas)[-1]))])


def headway_slack(eq: EquilibriumSpec, headway_min: float, headway_max: float,
                  disturbance_beta: float) -> float:
    """The safety margin eta: distance from the desired headway to the nearer
    edge of the safe band (headway_min, headway_max), over the disturbance
    amplitude.  The desired headway must be positive and lie strictly inside
    the band."""
    dx_star = eq.desired_headway
    if dx_star <= 0:
        raise ValueError(f"desired headway {dx_star} m must be positive")
    if not (headway_min < dx_star < headway_max):
        raise ValueError("desired headway must lie inside the safe band")
    if disturbance_beta <= 0:
        raise ValueError("disturbance amplitude must be positive")
    return min(dx_star - headway_min, headway_max - dx_star) / disturbance_beta


def _objective(stable: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """The search objective min(stable, safe) per cell in the count encoding,
    an unbounded count acting as +inf (the grids share their infeasible cells)."""
    both = np.minimum(stable, safe)
    return np.where(both == UNBOUNDED_CELL, np.maximum(stable, safe), both)


def _best_index(stable: np.ndarray, safe: np.ndarray) -> tuple[int, int, int]:
    """The first cell in (k1, k2, k3) order that maximises (objective, stable)."""
    rank = lambda c: np.where(c == UNBOUNDED_CELL, np.iinfo(c.dtype).max, c)  # unbounded on top
    objective, stable = rank(_objective(stable, safe)), rank(stable)
    if objective.max() == INFEASIBLE_CELL:
        raise ValueError("no feasible cell in the gain grid")
    best = objective == objective.max()
    best &= stable == stable[best].max()
    return tuple(int(x) for x in np.unravel_index(np.argmax(best), best.shape))


def optimize_gains(
    lins,
    eq: EquilibriumSpec,
    headway_min: float,
    headway_max: float,
    disturbance_beta: float,
    grid: GainGridSpec | None = None,
    freq_grid: FrequencyGrid | None = None,
) -> GainSearchResult:
    """Gain-grid search maximizing the usable platoon length.

    A feasible cell (gains passing cav_string_stable) counts the levels
    c = 1..N at which |T_A|^2 <= B_c (stable) or |1 - T_A|^2 <= eta^2 B_c
    (safe) at each grid frequency up to the platoon critical one, where
    B_c = exp(-2 R_c) and R_c, the running max of the first c followers'
    summed log-gains, never falls.  A level bounds K^2 = (k2 + k3 + k1
    lambda2)^2 once per k1 and k3 (stable) or k2 (safe).  The objective is
    lexicographic: first max of min(stable, safe), then max stable.  Ties go
    to the first such cell in (k1, k2, k3) order.

    Args:
        lins: linearized followers the automated vehicle must handle.
        eq: operating point; its desired headway must lie strictly inside
            (headway_min, headway_max).
        headway_min, headway_max: safe headway band in meters.
        disturbance_beta: leader position disturbance amplitude in meters.

    Returns:
        GainSearchResult with per-cell count grids and the best cell.
    """
    gspec = grid or GainGridSpec()
    fgrid = freq_grid or FrequencyGrid()
    eta = headway_slack(eq, headway_min, headway_max, disturbance_beta)

    k2, k3 = np.array(gspec.k2_values)[:, None], np.array(gspec.k3_values)  # a k1 slice's rows, columns
    feasible = cav_string_stable(np.array(gspec.k1_values)[:, None, None], k2, k3, eq.lambda2)
    stable_grid, safe_grid = np.full((2, *feasible.shape), UNBOUNDED_CELL)
    w0 = platoon_critical_frequency(lins, fgrid)
    if w0 > 0.0:
        omegas = fgrid.values(top=w0)
        ww = omegas * omegas
        budgets = np.exp(-2.0 * np.fmax.accumulate(_log_gain_cumsum(lins, omegas), axis=0)[1:])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i, k1 in enumerate(gspec.k1_values):
                k_sq, lag = (k2 + k3 + k1 * eq.lambda2) ** 2, (k1 - ww) ** 2
                gain_num = k1 * k1 + ww * (k3 * k3)[:, None]  # per k3 and frequency
                comp_num = ww * (ww + ((k2 + k1 * eq.lambda2) ** 2)[..., None])  # per k2, 1, frequency
                for out, num, scale in ((stable_grid, gain_num, 1.0), (safe_grid, comp_num, eta * eta)):
                    out[i] = _levels_cleared(k_sq, ((num / (scale * b) - lag) / ww for b in budgets))
    stable_grid[~feasible] = safe_grid[~feasible] = INFEASIBLE_CELL
    return GainSearchResult(gspec, eta, stable_grid, safe_grid, _best_index(stable_grid, safe_grid))


def write_heatmaps(result: GainSearchResult, outdir) -> list:
    """Write one CSV per k1 slice of the search objective min(stable, safe).

    Rows are k2 values, columns k3 values; cells are in the count encoding,
    -1 unbounded and -2 a gain combination that fails the string-stability
    requirement.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    objective = _objective(result.n_stable_grid, result.n_safe_grid)
    for i, k1 in enumerate(result.grid.k1_values):
        path = outdir / f"heatmap_k1={gain_label(k1)}.csv"
        with open(path, "w") as fh:
            fh.write("k2\\k3," + ",".join(map(gain_label, result.grid.k3_values)) + "\n")
            for j, k2 in enumerate(result.grid.k2_values):
                row = ",".join(str(int(c)) for c in objective[i, j])
                fh.write(f"{gain_label(k2)}," + row + "\n")
        paths.append(path)
    return paths
