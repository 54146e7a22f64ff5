"""Car-following dynamics: velocity curve, leader profiles and string simulation.

A string is a leader trajectory followed by modeled vehicles, each behind
the one ahead and each an FvdmParams or a Cav.  A human driver is its
FvdmParams: it accelerates toward a headway-dependent desired speed and
reacts to the speed difference with the vehicle ahead, all evaluated a
reaction delay tau in the past.  A Cav (an automated vehicle, no delay)
follows a linear spacing law instead.  Every simulation runs
in one time loop, simulate_followers_batch: at each sample every simulated
column's law reads the delayed states of itself and of what it follows (a
recorded leader or another simulated column), then each takes a
constant-acceleration step with its speed clamped at zero (no reversing).
Calibration runs many candidate models behind recorded leaders in one call;
simulate_string runs one string, listing its trajectories from the
leader (index 0) over all of the leader's frames; a collision raises
nothing.  string_gaps holds the one gap rule (spacing minus the length of
the vehicle ahead): a string's first collision is the first frame at which
any gap is nonpositive, with the frontmost vehicle that reached its
predecessor there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .stability import ControllerGains, LinearizedHdv
from .trajectory_io import DT, Trajectory

# calibration search box: (low, high) per parameter
PARAM_BOUNDS = {
    "alpha": (1.0, 10.0),
    "beta": (1.0, 10.0),
    "b_c": (0.1, 8.0),
    "b_f": (0.1, 100.0),
    "v0": (1.0, 70.0),
    "m": (1e-5, 10.0),
    "tau": (0.0, 3.0),
}
PARAM_ORDER = tuple(PARAM_BOUNDS)
VEHICLE_LENGTH = 4.5  # m, of every generated or simulated vehicle


@dataclass(frozen=True)
class FvdmParams:
    """Driver model parameters.

    alpha: sensitivity to the gap between desired and actual speed, 1/s.
    beta: sensitivity to the speed difference with the leader, 1/s.
    b_c: stopping headway where the desired speed reaches zero, m.
    b_f: inflection headway of the desired-speed curve, m.
    v0: speed scale of the curve, m/s.
    m: curve steepness, 1/m.
    tau: reaction delay, s.
    """

    alpha: float
    beta: float
    b_c: float
    b_f: float
    v0: float
    m: float
    tau: float = 0.0

    def __post_init__(self):
        for name, (lo, hi) in PARAM_BOUNDS.items():
            val = getattr(self, name)
            if not (lo <= val <= hi):
                raise ValueError(f"{name}={val} outside [{lo}, {hi}]")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_ORDER])

    @classmethod
    def from_array(cls, vec) -> "FvdmParams":
        return cls(**{n: float(v) for n, v in zip(PARAM_ORDER, vec)})


def _sech2(x):
    # sech^2 without overflow for large |x|
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


def ov_slope(theta: FvdmParams, headway):
    """Derivative of the desired-speed curve with respect to headway."""
    h = np.asarray(headway, dtype=float)
    out = theta.v0 * theta.m * _sech2(theta.m * (h - theta.b_f))
    return float(out) if out.ndim == 0 else out


def v_max(theta: FvdmParams) -> float:
    """Supremum of the desired-speed curve (headway to infinity)."""
    return theta.v0 * (1.0 - math.tanh(theta.m * (theta.b_c - theta.b_f)))


def equilibrium_headway(theta: FvdmParams, v_star: float) -> float:
    """Headway at which the desired speed equals v_star.

    The curve is strictly increasing, so the inverse is unique; it only
    exists for speeds below the curve's supremum.  A speed at or above it is
    a DataError (the fitted theta has no equilibrium there), a negative
    speed a ValueError.
    """
    if v_star < 0:
        raise ValueError("equilibrium speed must be nonnegative")
    if v_star == 0.0:
        return theta.b_c
    q = v_star / theta.v0 + math.tanh(theta.m * (theta.b_c - theta.b_f))
    if q >= 1.0:
        raise DataError(
            f"v_star={v_star} m/s is at or above the curve's supremum {v_max(theta):.3f}"
        )
    return theta.b_f + math.atanh(q) / theta.m


def linearize_hdv(theta: FvdmParams, v_star: float) -> LinearizedHdv:
    """Linearize the model about uniform flow at v_star, at its equilibrium
    headway (a DataError where it has none): the spacing gain is alpha times
    the velocity curve's slope there, the speed and relative-speed gains are
    alpha and beta, and the desired headway does not depend on speed."""
    k1 = theta.alpha * ov_slope(theta, equilibrium_headway(theta, v_star))
    return LinearizedHdv(k1=k1, k2=theta.alpha, k3=theta.beta, tau=theta.tau)


# ---------------------------------------------------------------------------
# leader speed profiles

@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise-constant speed: steps are (start_time, speed), ascending.
    One step is a constant speed."""

    steps: tuple

    def __post_init__(self):
        times = [s[0] for s in self.steps]
        if not self.steps or times != sorted(times):
            raise ValueError("steps must be nonempty with ascending start times")
        if any(s[1] < 0 for s in self.steps):
            raise ValueError("speeds must be nonnegative")

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        starts = np.array([s[0] for s in self.steps])
        speeds = np.array([s[1] for s in self.steps])
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(speeds) - 1)
        return speeds[idx]


@dataclass(frozen=True)
class SinusoidProfile:
    """Sinusoidal perturbation around a mean speed."""

    v_mean: float
    amplitude: float
    omega: float  # rad/s

    def __post_init__(self):
        if self.amplitude < 0 or self.amplitude > self.v_mean:
            raise ValueError("amplitude must stay within [0, v_mean] to keep speed nonnegative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        return self.v_mean + self.amplitude * np.sin(self.omega * t)


def leader_trajectory(profile, duration: float, dt: float = DT) -> Trajectory:
    """Sample a speed profile from frame 0 and integrate it to positions (trapezoid rule)."""
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    v = np.asarray(profile.speed(t), dtype=float)
    x = np.empty(n)
    x[0] = 0.0
    np.cumsum(0.5 * (v[:-1] + v[1:]) * dt, out=x[1:])
    a = np.gradient(v, dt) if n > 1 else np.zeros(1)
    return Trajectory(0, x, v, a, dt)


# ---------------------------------------------------------------------------
# integration

def _libm_tanh(x, out):
    """libm's tanh (math.tanh) elementwise into out: the platoon's tanh."""
    out[:] = list(map(math.tanh, x.tolist()))


def simulate_string(lead: Trajectory, vehicles, x0, v0, v_star: float) -> list[Trajectory]:
    """Simulate a string of modeled vehicles behind a recorded or generated leader.

    vehicles[0] follows lead and vehicles[i] vehicles[i - 1]; each is an
    FvdmParams (a human driver) or a Cav, whose linear law regulates toward
    v_star.  x0 and v0 are scalars or one per vehicle.
    Returns the trajectories lead-first on all of lead's frames: lead itself,
    then vehicles[i] at index i + 1.  A collision raises nothing; string_gaps
    finds it.
    """
    n, m, dt = lead.n, len(vehicles), lead.dt
    # the kernel runs the FVDM drivers first, then the Cavs' linear laws
    order = np.argsort([isinstance(s, Cav) for s in vehicles], kind="stable")
    col = np.argsort(order)  # kernel column c runs vehicle order[c], vehicle i column col[i]
    # vehicle 0 follows leader column 0, vehicle i kernel column col[i - 1] (after the G = 1 leader)
    follows = np.concatenate([[0], 1 + col[:-1]])
    thetas = [s.as_array() for s in vehicles if isinstance(s, FvdmParams)]
    rows = [(s.gains.k1, s.gains.k2, s.gains.k3, s.lambda2, s.lambda3, 0.0)
            for s in vehicles if isinstance(s, Cav)]
    V, A = np.empty((n, m)), np.empty((n, m))
    X = simulate_followers_batch(
        np.reshape(thetas, (-1, len(PARAM_ORDER))), lead.positions[:, None],
        lead.speeds[:, None], np.broadcast_to(x0, m)[order], np.broadcast_to(v0, m)[order],
        dt, group=follows[order], linear=np.reshape(rows, (-1, 6)), v_star=v_star,
        speeds=V, accels=A, tanh=_libm_tanh)
    return [lead] + [Trajectory(lead.start_frame, x, v, a, dt)
                     for x, v, a in zip(X[:, col].T.copy(), V[:, col].T.copy(), A[:, col].T.copy())]


def string_gaps(trajs) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The gaps of a string and its first collision.

    trajs are a string's trajectories, leader first, on the same frames.  A
    gap is the spacing to the vehicle ahead minus that vehicle's length,
    VEHICLE_LENGTH: column i - 1 of the (N, len(trajs) - 1) gaps is trajs[i]'s.
    The first collision is (i, k): the first sample k at which any gap is
    nonpositive and the frontmost vehicle trajs[i] there; None if there is
    none.
    """
    x = np.column_stack([tr.positions for tr in trajs])
    gaps = x[:, :-1] - x[:, 1:] - VEHICLE_LENGTH
    hit = gaps <= 0.0
    samples = np.flatnonzero(hit.any(axis=1))
    if not len(samples):
        return gaps, None
    k = int(samples[0])
    return gaps, (int(hit[k].argmax()) + 1, k)


def simulate_followers_batch(thetas, leader_x, leader_v, x0, v0, dt: float = DT, *, group,
                             linear=None, v_star: float = 0.0, speeds=None, accels=None,
                             tanh=np.tanh) -> np.ndarray:
    """Position series of modeled vehicles, each behind a leader or another vehicle.

    The package's one time loop: calibration runs the candidate models of
    several pairs behind their recorded leaders, and a platoon is a chain of
    columns.  The S = P + Q simulated columns are P FVDM drivers then Q
    linear-law vehicles; column c follows group[c], an index into [G leader
    columns | S simulated columns].  One state array holds every row as
    [x of the S columns | their v | x of the G leaders | their v]: the N
    rows, after pad = max(d) copies of row 0 (d, a column's delay in samples,
    is capped at N - 1, as a longer delay reads row 0 throughout) and before
    one scratch row.  So row max(k - d, 0) holds the values of padded row
    k + pad - d, and each step gathers, in one take of fixed indices from
    the view that starts at padded row k, every column's own x and v and
    those of what it follows at row max(k - d, 0), and its own v at row k,
    into a work buffer of 6S doubles.  The law and the step [v dt, a dt] are
    then computed in that buffer in place and written to the next row; the
    step after row N - 1's law lands in the scratch row.  Row k + 1 reads
    no row past k, so a column may follow a simulated column, and a leader
    shorter than N can be padded with its last sample.
    A speed that would turn negative clamps at zero and the position holds.
    No collision check here; callers inspect the returned spacings.

    Args:
        thetas: (P, 7) FVDM rows, columns in PARAM_ORDER.
        leader_x, leader_v: (N, G) positions/speeds of G leaders, N >= 1.
        x0, v0: initial positions and speeds, scalars or (S,).
        group: (S,) what each column follows: g < G is leader column g and
            g >= G simulated column g - G, never the column itself.
        linear: (Q, 6) rows k1, k2, k3, lambda2, lambda3, tau of the linear
            law k1 (h - lambda2 vd - lambda3) - k2 (vd - v_star) + k3 dv.
            Every tau, here or in thetas, must be finite and nonnegative.
        v_star: the linear law's target speed.
        speeds, accels: optional (N, S) arrays to fill with every column's
            speeds and accelerations; the law is evaluated at row N - 1 too.
        tanh: the FVDM curve's tanh, called as tanh(x, out=y).  np.tanh and
            libm's tanh differ in the last bit on some inputs, and the
            benchmark's reference platoon speeds were recorded with libm's;
            the change that re-records them drops this argument for np.tanh.

    Returns:
        (N, S) positions: a view of the state array.
    """
    thetas = np.asarray(thetas, dtype=float)
    linear = np.asarray(np.empty((0, 6)) if linear is None else linear, dtype=float)
    leader_x = np.asarray(leader_x, dtype=float)
    leader_v = np.asarray(leader_v, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != len(PARAM_ORDER):
        raise ValueError(f"thetas must be a (P, {len(PARAM_ORDER)}) array, got {thetas.shape}")
    if linear.ndim != 2 or linear.shape[1] != 6:
        raise ValueError(f"linear must be a (Q, 6) array, got {linear.shape}")
    if leader_v.shape != leader_x.shape or leader_x.ndim != 2 or not len(leader_x):
        raise ValueError("leader positions and speeds must share one (N, G) shape, N >= 1")
    n, g = leader_x.shape
    p, q = len(thetas), len(linear)
    s = p + q
    for name, start in (("x0", x0), ("v0", v0)):
        if np.shape(start) not in ((), (s,)):
            raise ValueError(f"{name} must be a scalar or ({s},), got {np.shape(start)}")
    for name, out in (("speeds", speeds), ("accels", accels)):
        if out is not None and np.shape(out) != (n, s):
            raise ValueError(f"{name} must be an ({n}, {s}) array, got {np.shape(out)}")
    group = np.asarray(group, dtype=int)
    if (group.shape != (s,) or (s and not 0 <= group.min() <= group.max() < g + s)
            or np.any(group == g + np.arange(s))):
        raise ValueError(f"group must hold {s} indices in [0, {g + s}), none its own column")
    # a linear column runs the FVDM with zero coefficients, then its own law
    # overwrites the result
    coef = np.zeros((s, len(PARAM_ORDER)))
    coef[:p] = thetas
    coef[p:, -1] = linear[:, 5]
    al, be, bc, bf, vm, m, tau = coef.T.copy()
    k1, k2, k3, lam2, lam3 = linear[:, :5].T.copy()
    if not (np.isfinite(tau).all() and np.all(tau >= 0.0)):
        raise ValueError("every delay tau must be finite and nonnegative")
    # the cap keeps the padding at N - 1 rows or fewer for any finite tau,
    # also one whose tau / dt overflows to inf
    with np.errstate(over="ignore"):
        d = np.minimum(np.floor(tau / dt + 0.5), n - 1).astype(int)
    pad = int(d.max(initial=0))
    off = np.empty(s)
    tanh(m * (bc - bf), out=off)
    # constants as arrays: a Python float costs a conversion on every call
    zero, dts, half_dts = np.zeros(s), np.full(s, dt), np.full(s, 0.5 * dt)
    v_stars = np.full(q, v_star)
    bf00, mbedt = np.concatenate([bf, zero, zero]), np.concatenate([m, be, dts])

    w = 2 * s + 2 * g
    Z = np.empty((pad + n + 1, w))  # pad copies of row 0, the N rows, a scratch row
    Z[pad, :s] = x0
    Z[pad, s : 2 * s] = v0
    Z[pad : pad + n, 2 * s : 2 * s + g] = leader_x
    Z[pad : pad + n, 2 * s + g :] = leader_v
    Z[:pad] = Z[pad]
    Zf = Z.ravel()
    # state columns of what each column follows: a leader's x and v, or a
    # simulated column's
    ahead = group < g
    ahead_x = np.where(ahead, 2 * s + group, group - g)
    ahead_v = np.where(ahead, 2 * s + g + group, s + group - g)
    # row k is padded row k + pad, and row max(k - d, 0) holds the values of
    # padded row k + pad - d.  So in the view of Zf that starts at padded row
    # k, the flat index of each column's own x and v and its leader's x and v
    # is col + (pad - d) w, and that of its own v at row k is col + pad w.
    # Every index gathered lies inside Z, so take's "wrap" mode never wraps;
    # it only skips the bounds check.
    col = np.concatenate([np.arange(2 * s), ahead_x, ahead_v, np.arange(s, 2 * s)])
    idx = col + (pad - np.concatenate([np.tile(d, 4), np.zeros_like(d)])) * w

    # Each float operation keeps the operands and order of
    #   a = al (vm (tanh(m (h - bf)) - off) - vd) + be dv
    #   x + v dt + (a dt) (0.5 dt),  v + a dt
    # so the result is bit for bit the one written out with temporaries.  The
    # work buffer is [x, v, leader x, leader v at row max(k - d, 0) | v at row
    # k | a]: the leader block minus the own block is [h, dv], and [h, dv, v]
    # minus [bf, 0, 0] times [m, be, dt] is [m (h - bf), be dv, v dt] in two
    # calls (subtracting 0 is exact, and so is swapping a product's
    # operands).  Scaling a by dt in place leaves [v dt, a dt], the step
    # added to row k's [x, v].  (a dt) (0.5 dt) equals ((0.5 a) dt) dt bit
    # for bit, and reuses a dt: halving a double is exact outside the
    # subnormal range, so (0.5 a) dt is a dt halved, and both forms round the
    # one real product (a dt) dt / 2.
    work = np.empty(6 * s)
    got, own, vd = work[: 5 * s], work[: 2 * s], work[s : 2 * s]  # got: the take's 5S values
    lead, hdvv = work[2 * s : 4 * s], work[2 * s : 5 * s]  # lead: [h, dv] after the subtraction
    arg, bedv, a = work[2 * s : 3 * s], work[3 * s : 4 * s], work[5 * s :]
    step = work[4 * s :].reshape(2, s)  # [v dt, a dt] once a is scaled
    # The linear columns' h, dv, own delayed v and acceleration.  Their law
    # k1 (h - lambda2 vd - lambda3) - k2 (vd - v_star) + k3 dv is built in lin
    # and term before [h, dv] is scaled, and added into a_q once the FVDM has
    # written a.
    h_q, dv_q, vd_q, a_q = lead[p:s], lead[s + p :], vd[p:], a[p:]
    lin, term = np.empty(q), np.empty(q)
    curve = np.empty(s)  # (a dt) (0.5 dt)
    clamp = np.empty(s, dtype=bool)
    add, sub, mul, less = np.add, np.subtract, np.multiply, np.less
    count_nonzero, copyto = np.count_nonzero, np.copyto
    xv = Z[:, : 2 * s].reshape(len(Z), 2, s)  # a view: padded row k is [x, v]
    rows = n if accels is not None else n - 1  # rows whose law is evaluated
    for k, cur, nxt in zip(range(rows), xv[pad:], xv[pad + 1 :]):
        Zf[k * w :].take(idx, out=got, mode="wrap")
        sub(lead, own, lead)
        if q:
            mul(lam2, vd_q, lin)
            sub(h_q, lin, lin)
            sub(lin, lam3, lin)
            mul(k1, lin, lin)
            sub(vd_q, v_stars, term)
            mul(k2, term, term)
            sub(lin, term, lin)
            mul(k3, dv_q, term)
        sub(hdvv, bf00, hdvv)
        mul(hdvv, mbedt, hdvv)
        tanh(arg, out=a)
        sub(a, off, a)
        mul(vm, a, a)
        sub(a, vd, a)
        mul(al, a, a)
        add(a, bedv, a)
        if q:
            add(lin, term, a_q)
        if accels is not None:
            accels[k] = a
        mul(a, dts, a)
        add(cur, step, nxt)
        mul(a, half_dts, curve)
        x, v = nxt[0], nxt[1]  # unpacking an array costs an IndexError
        add(x, curve, x)
        # a speed that would turn negative clamps at zero and the position holds
        less(v, zero, clamp)
        if count_nonzero(clamp):
            copyto(v, 0.0, where=clamp)
            copyto(x, cur[0], where=clamp)
    if speeds is not None:
        speeds[...] = Z[pad : pad + n, s : 2 * s]
    return Z[pad : pad + n, :s]


# ---------------------------------------------------------------------------
# platoons

@dataclass(frozen=True)
class Cav:
    """String vehicle: automated vehicle with linear spacing control, no delay."""

    gains: ControllerGains
    lambda2: float
    lambda3: float


def _vehicle_eq_headway(vehicle, v_star: float) -> float:
    if isinstance(vehicle, FvdmParams):
        return equilibrium_headway(vehicle, v_star)
    dx = vehicle.lambda2 * v_star + vehicle.lambda3
    if dx <= 0:
        raise DataError(f"desired headway {dx} m must be positive")
    return dx


def simulate_platoon(vehicles, lead_profile, v_star: float, duration: float,
                     dt: float = DT) -> list[Trajectory]:
    """Simulate a string of vehicles behind a leader driving lead_profile.

    Every vehicle starts at v_star, its own equilibrium headway behind the
    one ahead.  Returns simulate_string's trajectories: the leader at
    index 0 and vehicles[i] at index i + 1, over the whole duration, through
    any collision.
    """
    leader = leader_trajectory(lead_profile, duration, dt=dt)
    headways = [_vehicle_eq_headway(vehicle, v_star) for vehicle in vehicles]
    # each start is the one ahead minus its headway, subtracted in chain order
    x0 = np.subtract.accumulate([leader.positions[0], *headways])[1:]
    return simulate_string(leader, vehicles, x0, v_star, v_star)
