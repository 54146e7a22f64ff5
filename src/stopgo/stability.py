"""Frequency-domain string stability analysis and controller gain design.

A calibrated car-following model linearized about an equilibrium speed gives
each human-driven vehicle a transfer function from its leader's position
perturbation to its own.  A platoon amplifies a disturbance when the product
of those gains exceeds one; the automated vehicle at the head of the string
is given feedback gains chosen so the combined product stays at or below one
for as many followers as possible, subject to its own headway staying inside
a safe band.

A gain cell's count of followers is an int: n >= 0 followers, UNBOUNDED_CELL
(-1) when no follower amplifies, INFEASIBLE_CELL (-2) when the gains are not
string stable.  A count equal to the platoon length is only a lower bound:
the scan ran out of followers before the limit (count_record).
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


def cav_gains_sq(g: ControllerGains, lambda2: float, omega):
    """(|T_A|^2, |1 - T_A|^2) at frequency omega: T_A takes the automated
    vehicle's leader's position perturbation to its own (no actuation delay),
    1 - T_A to its headway deviation.  Each is its exact limit at omega = 0."""
    w = np.asarray(omega, dtype=float)
    K = g.k2 + g.k3 + g.k1 * lambda2
    ww = w * w
    den = (g.k1 - ww) ** 2 + ww * K * K
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (g.k1 * g.k1 + ww * g.k3 * g.k3) / den
        complement = (ww * ww + ww * (g.k2 + g.k1 * lambda2) ** 2) / den
    if np.any(w == 0.0):  # a spacing gain holds the headway at DC; nan when no gain acts
        lag = ((g.k3 / K) ** 2, (g.k2 / K) ** 2) if K > 0 else (np.nan, np.nan)
        dc = (1.0, 0.0) if g.k1 > 0 else lag
        gain, complement = np.where(w == 0.0, dc[0], gain), np.where(w == 0.0, dc[1], complement)
    return tuple(float(a) if a.ndim == 0 else a for a in (gain, complement))


def cav_string_stable(g: ControllerGains, lambda2: float = 0.0) -> bool:
    """True when the automated vehicle never amplifies its leader's motion.

    Algebraic criterion equivalent to sup over omega of |T_A| <= 1.
    """
    lhs = (
        g.k2 * g.k2
        + g.k1 * g.k1 * lambda2 * lambda2
        + 2.0 * g.k2 * g.k3
        + 2.0 * g.k1 * g.k2 * lambda2
        + 2.0 * g.k1 * g.k3 * lambda2
        - 2.0 * g.k1
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


def _scan_count(head_log: np.ndarray, running_max: np.ndarray, n_vehicles: int) -> int:
    """First-crossing count shared by the stabilization and safety counts.

    head_log is the head term per frequency; running_max[n] is R_n, the
    running maximum over m <= n of log_cum[m], the cumulative sum of the
    first m follower log-gains (row 0 is zeros).  The count is the largest n
    for which head_log + log_cum[m] stays nonpositive at every frequency for
    every m <= n; n_vehicles means the platoon ran out first.

    Some m <= n fails at some frequency exactly when max(head_log + R_n) > 0:
    rounding is monotone, so the rounded head_log + R_n is the largest of the
    rounded head_log + log_cum[m].  R_n is nondecreasing in n, so after the
    head term alone (n = 0) and n = n_vehicles the count is bisected, in at
    most 2 + ceil(log2 n_vehicles) passes.  A NaN sum never fails, as in
    np.any(sum > 0): fmax skips NaNs where np.maximum would propagate them.
    """
    total = np.empty_like(head_log)
    fmax = np.fmax.reduce

    def fails(n: int) -> bool:
        return fmax(np.add(head_log, running_max[n], total)) > 0.0

    if fmax(head_log) > 0.0:
        return 0
    if not fails(n_vehicles):
        return n_vehicles
    ok, bad = 0, n_vehicles  # the count lies in [ok, bad)
    while bad - ok > 1:
        mid = (ok + bad) // 2
        if fails(mid):
            bad = mid
        else:
            ok = mid
    return ok


def _log_gain_cumsum(lins, omegas: np.ndarray) -> np.ndarray:
    # a cycled fleet repeats its drivers: each distinct one is evaluated once
    log_gain = {lin: 0.5 * np.log(hdv_gain_sq(lin, omegas)) for lin in dict.fromkeys(lins)}
    return np.cumsum(np.vstack([np.zeros_like(omegas), *map(log_gain.get, lins)]), axis=0)


def peak_gain_frequency(lins, omegas: np.ndarray) -> float:
    """The frequency in omegas that the string of followers lins amplifies most."""
    return float(omegas[int(np.argmax(_log_gain_cumsum(lins, omegas)[-1]))])


def _cell_counter(lins, fgrid: FrequencyGrid, eta: float, lambda2: float):
    """The function g -> (stable, safe) counts of a string-stable gain cell:
    unbounded when no follower is string unstable, else evaluated on the
    frequency grid truncated at the platoon critical frequency."""
    w0 = platoon_critical_frequency(lins, fgrid)
    if w0 == 0.0:
        return lambda g: (UNBOUNDED_CELL, UNBOUNDED_CELL)
    omegas = fgrid.values(top=w0)
    running_max = np.fmax.accumulate(_log_gain_cumsum(lins, omegas), axis=0)
    n, log_eta = len(lins), math.log(eta)

    def counts(g: ControllerGains) -> tuple[int, int]:
        gain, complement = cav_gains_sq(g, lambda2, omegas)
        return (_scan_count(0.5 * np.log(gain), running_max, n),
                _scan_count(0.5 * np.log(complement) - log_eta, running_max, n))
    return counts


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
    """Exhaustive gain-grid search maximizing the usable platoon length.

    Every feasible grid cell (nonnegative gains passing the string-stability
    criterion) is scored with the stabilization count and the safety count;
    the objective is lexicographic: first max of min(stable, safe), then max
    stable.  Ties go to the first such cell in (k1, k2, k3) order.

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

    k1s, k2s, k3s = gspec.k1_values, gspec.k2_values, gspec.k3_values
    shape = (len(k1s), len(k2s), len(k3s))
    stable_grid = np.full(shape, INFEASIBLE_CELL, dtype=int)
    safe_grid = np.full(shape, INFEASIBLE_CELL, dtype=int)

    counts = _cell_counter(lins, fgrid, eta, eq.lambda2)
    for i, k1 in enumerate(k1s):
        for j, k2 in enumerate(k2s):
            for l, k3 in enumerate(k3s):
                g = ControllerGains(k1, k2, k3)
                if cav_string_stable(g, eq.lambda2):
                    stable_grid[i, j, l], safe_grid[i, j, l] = counts(g)
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
