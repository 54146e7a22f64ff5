"""Frequency-domain string stability analysis and controller gain design.

A calibrated car-following model linearized about an equilibrium speed gives
each human-driven vehicle a transfer function from its leader's position
perturbation to its own.  A platoon amplifies a disturbance when the product
of those gains exceeds one; the automated vehicle at the head of the string
is given feedback gains chosen so the combined product stays at or below one
for as many followers as possible, subject to its own headway staying inside
a safe band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import NonpositiveEquilibriumHeadway


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
    relative-speed k3, desired-headway slope lambda2 and reaction delay tau."""

    k1: float  # 1/s^2
    k2: float  # 1/s
    k3: float  # 1/s
    lambda2: float = 0.0  # s
    tau: float = 0.0  # s

    def __post_init__(self):
        if self.k1 < 0 or self.k2 <= 0 or self.k3 < 0:
            raise ValueError("require k1 >= 0, k2 > 0, k3 >= 0")
        if self.lambda2 < 0 or self.tau < 0:
            raise ValueError("lambda2 and tau must be nonnegative")


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


def _default_gain_axis(lo: float, hi: float, step: float) -> tuple[float, ...]:
    n = int(round((hi - lo) / step)) + 1
    return tuple(np.linspace(lo, hi, n))


@dataclass(frozen=True)
class GainGridSpec:
    """Search grid for the controller gains."""

    k1_values: tuple = field(default_factory=lambda: _default_gain_axis(0.0, 1.0, 0.05))
    k2_values: tuple = field(default_factory=lambda: _default_gain_axis(0.02, 2.0, 0.02))
    k3_values: tuple = field(default_factory=lambda: _default_gain_axis(0.02, 2.0, 0.02))


@dataclass(frozen=True)
class StabilizedCount:
    """Number of followers a gain choice handles.

    count None means unbounded (the platoon never amplifies, any number is
    fine).  exact False means the scan used every vehicle in the supplied
    platoon without finding the limit, so the true value is at least count.
    """

    count: int | None
    exact: bool = True

    @classmethod
    def unbounded(cls) -> "StabilizedCount":
        return cls(None, True)

    @classmethod
    def at_least(cls, n: int) -> "StabilizedCount":
        return cls(n, False)

    @property
    def is_unbounded(self) -> bool:
        return self.count is None

    def bound(self) -> float:
        """Comparable magnitude: the guaranteed count, unbounded = +inf."""
        return math.inf if self.count is None else float(self.count)

    def __str__(self) -> str:
        if self.count is None:
            return "unbounded"
        return str(self.count) if self.exact else f">={self.count}"


@dataclass
class GainSearchResult:
    grid: GainGridSpec
    eta: float
    # (n_k1, n_k2, n_k3) integer grids: cell value is the count,
    # -1 = unbounded, -2 = gain combination infeasible.
    n_stable_grid: np.ndarray
    n_safe_grid: np.ndarray
    best_gains: ControllerGains
    best_stable: StabilizedCount
    best_safe: StabilizedCount

UNBOUNDED_CELL = -1
INFEASIBLE_CELL = -2


def linearize_hdv(theta, eq: EquilibriumSpec) -> LinearizedHdv:
    """Linearize a calibrated car-following model about the operating point.

    The spacing gain is the model's sensitivity alpha times the slope of its
    velocity curve at the desired headway; the speed and relative-speed gains
    are the model's alpha and beta directly.
    """
    from .carfollowing import ov_slope

    dx_star = eq.desired_headway
    if dx_star <= 0:
        raise NonpositiveEquilibriumHeadway(f"desired headway {dx_star} m")
    return LinearizedHdv(
        k1=theta.alpha * ov_slope(theta, dx_star),
        k2=theta.alpha,
        k3=theta.beta,
        lambda2=eq.lambda2,
        tau=theta.tau,
    )


def hdv_gain_sq(lin: LinearizedHdv, omega):
    """Squared magnitude of the human-driver transfer function at frequency omega.

    Evaluated by substituting s = j*omega into the delayed second-order
    transfer function; omega may be a scalar or an array.  The DC value is the
    exact limit (1 when k1 > 0).
    """
    w = np.asarray(omega, dtype=float)
    K = lin.k2 + lin.k3 + lin.k1 * lin.lambda2
    num = lin.k1 + 1j * w * lin.k3
    shift = np.exp(-1j * w * lin.tau)
    den = -(w * w) + (1j * w * K + lin.k1) * shift
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num * shift / den
        out = (t * t.conjugate()).real
    dc = 1.0 if lin.k1 > 0 else (lin.k3 / K) ** 2
    out = np.where(w == 0.0, dc, out)
    return float(out) if out.ndim == 0 else out


def hdv_gain_sq_closed(lin: LinearizedHdv, omega):
    """Closed-form expression of hdv_gain_sq; the two must agree to roundoff.

    The denominator w^2 K^2 + w^4 + k1^2 - 2 w^3 K sin(w tau)
    - 2 w^2 k1 cos(w tau) is evaluated in the factored grouping
    (k1 cos + w K sin - w^2)^2 + (w K cos - k1 sin)^2, which is
    algebraically identical but cancels before squaring; the expanded order
    loses ~5 digits near resonance peaks.
    """
    w = np.asarray(omega, dtype=float)
    K = lin.k2 + lin.k3 + lin.k1 * lin.lambda2
    num = lin.k1 * lin.k1 + w * w * lin.k3 * lin.k3
    c = np.cos(w * lin.tau)
    s = np.sin(w * lin.tau)
    re = lin.k1 * c + w * K * s - w * w
    im = w * K * c - lin.k1 * s
    den = re * re + im * im
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    dc = 1.0 if lin.k1 > 0 else (lin.k3 / K) ** 2
    out = np.where(w == 0.0, dc, out)
    return float(out) if out.ndim == 0 else out


def delay_margin(lin: LinearizedHdv) -> float:
    """Largest reaction delay for which the driver's own loop stays stable.

    The loop gain (K s + k1) e^{-s tau} / s^2 has a magnitude that falls
    monotonically in omega, so it crosses one once, at
    omega_c^2 = (K^2 + sqrt(K^4 + 4 k1^2)) / 2; the loop is internally stable
    for tau < atan2(K omega_c, k1) / omega_c.  Above this margin hdv_gain_sq
    describes no steady state.
    """
    K = lin.k2 + lin.k3 + lin.k1 * lin.lambda2
    wc = math.sqrt(0.5 * (K * K + math.sqrt(K**4 + 4.0 * lin.k1 * lin.k1)))
    return math.atan2(K * wc, lin.k1) / wc


def cav_gain_sq(g: ControllerGains, lambda2: float, omega):
    """Squared magnitude of the automated vehicle's transfer function
    (position perturbation of its leader to its own, no actuation delay)."""
    w = np.asarray(omega, dtype=float)
    K = g.k2 + g.k3 + g.k1 * lambda2
    ww = w * w
    num = g.k1 * g.k1 + ww * g.k3 * g.k3
    den = (g.k1 - ww) ** 2 + ww * K * K
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    if np.any(w == 0.0):
        dc = 1.0 if g.k1 > 0 else ((g.k3 / K) ** 2 if K > 0 else np.nan)
        out = np.where(w == 0.0, dc, out)
    return float(out) if out.ndim == 0 else out


def cav_gain_sq_complex(g: ControllerGains, lambda2: float, omega):
    """cav_gain_sq by direct complex substitution, for cross-checking."""
    w = np.asarray(omega, dtype=float)
    K = g.k2 + g.k3 + g.k1 * lambda2
    num = g.k1 + 1j * w * g.k3
    den = -(w * w) + 1j * w * K + g.k1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / den
        out = (t * t.conjugate()).real
    if np.any(w == 0.0):
        dc = 1.0 if g.k1 > 0 else ((g.k3 / K) ** 2 if K > 0 else np.nan)
        out = np.where(w == 0.0, dc, out)
    return float(out) if out.ndim == 0 else out


def cav_complement_gain_sq(g: ControllerGains, lambda2: float, omega):
    """Squared magnitude of 1 - T_A(j*omega): leader position perturbation to
    the automated vehicle's headway deviation."""
    w = np.asarray(omega, dtype=float)
    K = g.k2 + g.k3 + g.k1 * lambda2
    ww = w * w
    num = ww * ww + ww * (g.k2 + g.k1 * lambda2) ** 2
    den = (g.k1 - ww) ** 2 + ww * K * K
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    if np.any(w == 0.0):
        # headway deviation vanishes at DC when the spacing gain acts
        dc = 0.0 if g.k1 > 0 else ((g.k2 / K) ** 2 if K > 0 else np.nan)
        out = np.where(w == 0.0, dc, out)
    return float(out) if out.ndim == 0 else out


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


def critical_frequency(lin: LinearizedHdv) -> float:
    """Largest frequency at which an undelayed driver amplifies (closed form).

    Only valid for tau = 0 and lambda2 = 0, where the gain exceeds one exactly
    on (0, omega0) with omega0^2 = 2*k1 - k2^2 - 2*k2*k3.  Returns 0 for a
    string-stable driver.
    """
    if lin.tau != 0.0 or lin.lambda2 != 0.0:
        raise ValueError("closed form requires tau = 0 and lambda2 = 0")
    return math.sqrt(max(0.0, 2.0 * lin.k1 - lin.k2 * lin.k2 - 2.0 * lin.k2 * lin.k3))


def numeric_critical_frequency(lin: LinearizedHdv, grid: FrequencyGrid | None = None) -> float:
    """Largest grid frequency with gain >= 1, bisection-refined.

    Scans a log grid, takes the last point where the gain reaches one and
    refines the crossing against the next point to ~1e-10 relative.  Returns
    0 when the gain stays below one on the whole grid; crossings below the
    grid floor are invisible.  Valid for any tau and lambda2.
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
    return float(brentq(f, w[i], w[i + 1], rtol=1e-12, xtol=1e-14))


def platoon_critical_frequency(lins, grid: FrequencyGrid | None = None) -> float:
    """Lowest unstable vehicle's critical frequency; 0 when every vehicle in
    the platoon is string stable on its own."""
    unstable = []
    for lin in lins:
        w0 = numeric_critical_frequency(lin, grid)
        if w0 > 0.0:
            unstable.append(w0)
    return min(unstable) if unstable else 0.0


def _scan_count(head_log: np.ndarray, log_cum: np.ndarray, n_vehicles: int) -> StabilizedCount:
    """First-crossing scan shared by the stabilization and safety counts.

    head_log is the head term per frequency; log_cum[n] is the cumulative sum
    of the first n follower log-gains (row 0 is zeros).  The count is the
    largest n for which the running total stays nonpositive at every
    frequency; the n at which it first turns positive anywhere is the
    smallest failing platoon length.
    """
    if np.any(head_log > 0.0):
        return StabilizedCount(0)
    for n in range(1, n_vehicles + 1):
        if np.any(head_log + log_cum[n] > 0.0):
            return StabilizedCount(n - 1)
    return StabilizedCount.at_least(n_vehicles)


def _log_gain_cumsum(lins, omegas: np.ndarray) -> np.ndarray:
    rows = [np.zeros_like(omegas)]
    for lin in lins:
        rows.append(0.5 * np.log(hdv_gain_sq(lin, omegas)))
    return np.cumsum(np.vstack(rows), axis=0)


def n_stable(
    g: ControllerGains,
    lins,
    lambda2: float = 0.0,
    grid: FrequencyGrid | None = None,
) -> StabilizedCount:
    """How many of the given followers the automated vehicle stabilizes.

    Requires cav_string_stable(g, lambda2).  Unbounded when no follower is
    string unstable; otherwise evaluated on the frequency grid truncated at
    the platoon critical frequency.
    """
    if not cav_string_stable(g, lambda2):
        raise ValueError("gains are not string stable; count undefined")
    fgrid = grid or FrequencyGrid()
    w0 = platoon_critical_frequency(lins, fgrid)
    if w0 == 0.0:
        return StabilizedCount.unbounded()
    omegas = fgrid.values(top=w0)
    head = 0.5 * np.log(cav_gain_sq(g, lambda2, omegas))
    return _scan_count(head, _log_gain_cumsum(lins, omegas), len(lins))


def n_safe(
    g: ControllerGains,
    lins,
    eta: float,
    lambda2: float = 0.0,
    grid: FrequencyGrid | None = None,
) -> StabilizedCount:
    """How many followers keep the automated vehicle's headway excursion
    within the safety margin eta (headway slack over disturbance amplitude)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not cav_string_stable(g, lambda2):
        raise ValueError("gains are not string stable; count undefined")
    fgrid = grid or FrequencyGrid()
    w0 = platoon_critical_frequency(lins, fgrid)
    if w0 == 0.0:
        return StabilizedCount.unbounded()
    omegas = fgrid.values(top=w0)
    head = 0.5 * np.log(cav_complement_gain_sq(g, lambda2, omegas)) - math.log(eta)
    return _scan_count(head, _log_gain_cumsum(lins, omegas), len(lins))


def optimize_gains(
    lins,
    eq: EquilibriumSpec,
    headway_min: float,
    headway_max: float,
    disturbance_beta: float,
    grid: GainGridSpec | None = None,
    freq_grid: FrequencyGrid | None = None,
    delta_override: float | None = None,
) -> GainSearchResult:
    """Exhaustive gain-grid search maximizing the usable platoon length.

    Every feasible grid cell (nonnegative gains passing the string-stability
    criterion) is scored with the stabilization count and the safety count;
    the objective is lexicographic: first max of min(stable, safe), then max
    stable.  Ties go to the smaller k1, then k2, then k3, which the ascending
    scan realizes by keeping only strict improvements.

    Args:
        lins: linearized followers the automated vehicle must handle.
        eq: operating point; its desired headway must lie strictly inside
            (headway_min, headway_max).
        headway_min, headway_max: safe headway band in meters.
        disturbance_beta: leader position disturbance amplitude in meters.
        delta_override: use this headway slack instead of the band distance.

    Returns:
        GainSearchResult with per-cell count grids and the best cell.
    """
    gspec = grid or GainGridSpec()
    fgrid = freq_grid or FrequencyGrid()

    dx_star = eq.desired_headway
    if not (headway_min < dx_star < headway_max):
        raise ValueError("desired headway must lie inside the safe band")
    if disturbance_beta <= 0:
        raise ValueError("disturbance amplitude must be positive")
    delta = (
        delta_override
        if delta_override is not None
        else min(dx_star - headway_min, headway_max - dx_star)
    )
    if delta <= 0:
        raise ValueError("headway slack must be positive")
    eta = delta / disturbance_beta

    k1s, k2s, k3s = gspec.k1_values, gspec.k2_values, gspec.k3_values
    shape = (len(k1s), len(k2s), len(k3s))
    stable_grid = np.full(shape, INFEASIBLE_CELL, dtype=int)
    safe_grid = np.full(shape, INFEASIBLE_CELL, dtype=int)

    w0 = platoon_critical_frequency(lins, fgrid)
    all_stable = w0 == 0.0
    n_veh = len(lins)
    if not all_stable:
        omegas = fgrid.values(top=w0)
        log_cum = _log_gain_cumsum(lins, omegas)
        log_eta = math.log(eta)

    lam = eq.lambda2
    best = None  # (min_count, stable_count, i, j, l, counts)

    for i, k1 in enumerate(k1s):
        for j, k2 in enumerate(k2s):
            for l, k3 in enumerate(k3s):
                g = ControllerGains(k1, k2, k3)
                if not cav_string_stable(g, lam):
                    continue
                if all_stable:
                    st = StabilizedCount.unbounded()
                    sf = StabilizedCount.unbounded()
                else:
                    head_st = 0.5 * np.log(cav_gain_sq(g, lam, omegas))
                    head_sf = 0.5 * np.log(cav_complement_gain_sq(g, lam, omegas)) - log_eta
                    st = _scan_count(head_st, log_cum, n_veh)
                    sf = _scan_count(head_sf, log_cum, n_veh)
                stable_grid[i, j, l] = UNBOUNDED_CELL if st.is_unbounded else st.count
                safe_grid[i, j, l] = UNBOUNDED_CELL if sf.is_unbounded else sf.count

                key = (min(st.bound(), sf.bound()), st.bound())
                if best is None or key > best[0]:
                    best = (key, i, j, l, st, sf)

    if best is None:
        raise ValueError("no feasible cell in the gain grid")
    _, i, j, l, st, sf = best
    return GainSearchResult(
        grid=gspec,
        eta=eta,
        n_stable_grid=stable_grid,
        n_safe_grid=safe_grid,
        best_gains=ControllerGains(k1s[i], k2s[j], k3s[l]),
        best_stable=st,
        best_safe=sf,
    )


def write_heatmaps(result: GainSearchResult, outdir) -> list:
    """Write one CSV per k1 slice of the search objective min(stable, safe).

    Rows are k2 values, columns k3 values; -1 encodes unbounded and -2 a gain
    combination that fails the string-stability requirement.
    """
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    # min(stable, safe) with unbounded acting as +inf, infeasible poisoning the cell
    big = np.iinfo(int).max
    stable = np.where(result.n_stable_grid == UNBOUNDED_CELL, big, result.n_stable_grid)
    safe = np.where(result.n_safe_grid == UNBOUNDED_CELL, big, result.n_safe_grid)
    objective = np.minimum(stable, safe)
    objective = np.where(objective == big, UNBOUNDED_CELL, objective)
    objective = np.where(result.n_stable_grid == INFEASIBLE_CELL, INFEASIBLE_CELL, objective)
    for i, k1 in enumerate(result.grid.k1_values):
        path = outdir / f"heatmap_k1={k1:g}.csv"
        with open(path, "w") as fh:
            fh.write("k2\\k3," + ",".join(f"{k3:g}" for k3 in result.grid.k3_values) + "\n")
            for j, k2 in enumerate(result.grid.k2_values):
                row = ",".join(str(int(c)) for c in objective[i, j])
                fh.write(f"{k2:g}," + row + "\n")
        paths.append(path)
    return paths
