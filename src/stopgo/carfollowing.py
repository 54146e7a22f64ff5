"""Car-following dynamics: velocity curve, leader profiles and string simulation.

A string is a leader trajectory followed by modeled vehicles, each behind
the one ahead.  A human driver is its FvdmParams: it accelerates toward a
headway-dependent desired speed and reacts to the speed difference with the
vehicle ahead, all evaluated a reaction delay tau in the past.  A Cav (an
automated vehicle, no delay) or a LinearizedHdv (a linearized driver with
its own delay) follows a linear spacing law instead.  Every simulation runs
in one time loop, simulate_followers_batch: at each sample every simulated
column's law reads the delayed states of itself and of what it follows (a
recorded leader or another simulated column), then each takes a
constant-acceleration step with its speed clamped at zero (no reversing).
Calibration runs many candidate models behind recorded leaders in one call;
simulate_string runs one string, numbering its trajectories from the
leader (0).  After the loop, the first frame at which any gap (spacing
minus the length of the vehicle ahead) is nonpositive raises
CollisionDetected, naming the frontmost vehicle that reached its
predecessor there and carrying every trajectory cut at that frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import CollisionDetected, DataError
from .stability import ControllerGains, EquilibriumSpec, LinearizedHdv
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


def linearize_hdv(theta: FvdmParams, eq: EquilibriumSpec) -> LinearizedHdv:
    """Linearize the model about the operating point.

    The spacing gain is the model's sensitivity alpha times the slope of its
    velocity curve at the desired headway; the speed and relative-speed gains
    are the model's alpha and beta directly.
    """
    dx_star = eq.desired_headway
    if dx_star <= 0:
        raise DataError(f"desired headway {dx_star} m")
    return LinearizedHdv(
        k1=theta.alpha * ov_slope(theta, dx_star),
        k2=theta.alpha,
        k3=theta.beta,
        lambda2=eq.lambda2,
        tau=theta.tau,
    )


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


def leader_trajectory(
    profile,
    duration: float,
    dt: float = DT,
    vehicle_id: int = 1,
) -> Trajectory:
    """Sample a speed profile from frame 0 and integrate it to positions (trapezoid rule)."""
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    v = np.asarray(profile.speed(t), dtype=float)
    x = np.empty(n)
    x[0] = 0.0
    np.cumsum(0.5 * (v[:-1] + v[1:]) * dt, out=x[1:])
    a = np.gradient(v, dt) if n > 1 else np.zeros(1)
    return Trajectory(vehicle_id, 0, x, v, a, VEHICLE_LENGTH, dt)


# ---------------------------------------------------------------------------
# integration

def _libm_tanh(x, out):
    """libm's tanh (math.tanh) elementwise into out: the platoon's tanh."""
    out[:] = list(map(math.tanh, x.tolist()))


def simulate_string(lead: Trajectory, vehicles, x0, v0, v_star: float) -> list[Trajectory]:
    """Simulate a string of modeled vehicles behind a recorded or generated leader.

    vehicles[0] follows lead and vehicles[i] vehicles[i - 1]; each is an
    FvdmParams (a human driver), a Cav or a LinearizedHdv, and the linear
    laws regulate toward v_star.  x0 and v0 are scalars or one per vehicle.
    Returns the trajectories lead-first on lead's frames, vehicles[i] with
    vehicle_id i + 1; the first is lead on views of its arrays, not copies.
    The first frame at which any gap (spacing minus the length of the
    vehicle ahead) is nonpositive raises CollisionDetected, naming the
    frontmost vehicle there by its index in that list, with every
    trajectory cut at that frame.
    """
    n, m, dt = lead.n, len(vehicles), lead.dt
    # the kernel runs the FVDM drivers first, then the linear laws
    order = np.argsort([not isinstance(s, FvdmParams) for s in vehicles], kind="stable")
    col = np.argsort(order)  # kernel column c runs vehicle order[c], vehicle i column col[i]
    # vehicle 0 follows leader column 0, vehicle i kernel column col[i - 1] (after the G = 1 leader)
    follows = np.concatenate([[0], 1 + col[:-1]])
    thetas = [s.as_array() for s in vehicles if isinstance(s, FvdmParams)]
    linear = [s for s in vehicles if not isinstance(s, FvdmParams)]
    # a Cav carries its gains; a LinearizedHdv is its own gains
    gains = [s.gains if isinstance(s, Cav) else s for s in linear]
    rows = [(g.k1, g.k2, g.k3, s.lambda2, s.lambda3, getattr(s, "tau", 0.0))
            for s, g in zip(linear, gains)]
    V, A = np.empty((n, m)), np.empty((n, m))
    X = simulate_followers_batch(
        np.reshape(thetas, (-1, len(PARAM_ORDER))), lead.positions[:, None],
        lead.speeds[:, None], np.broadcast_to(x0, m)[order], np.broadcast_to(v0, m)[order],
        dt, group=follows[order], linear=np.reshape(rows, (-1, 6)), v_star=v_star,
        speeds=V, accels=A, tanh=_libm_tanh)
    X = np.column_stack([lead.positions, X[:, col]])
    # a collision is a spacing at or below the length of the vehicle ahead
    hit = X[:, :-1] - X[:, 1:] <= VEHICLE_LENGTH
    frames = np.flatnonzero(hit.any(axis=1))
    end = int(frames[0]) + 1 if len(frames) else n
    trajs = [replace(lead, positions=lead.positions[:end], speeds=lead.speeds[:end],
                     accels=lead.accels[:end])] + [
        Trajectory(i, lead.start_frame, x, v, a, VEHICLE_LENGTH, dt)
        for i, (x, v, a) in enumerate(
            zip(X[:end, 1:].T.copy(), V[:end, col].T.copy(), A[:end, col].T.copy()), start=1)
    ]
    if len(frames):
        raise CollisionDetected(int(hit[end - 1].argmax()) + 1, lead.start_frame + end - 1,
                                partial=trajs)
    return trajs


def simulate_followers_batch(thetas, leader_x, leader_v, x0, v0, dt: float = DT, *, group,
                             linear=None, v_star: float = 0.0, speeds=None, accels=None,
                             tanh=np.tanh) -> np.ndarray:
    """Position series of modeled vehicles, each behind a leader or another vehicle.

    The package's one time loop: calibration runs the candidate models of
    several pairs behind their recorded leaders, and a platoon is a chain of
    columns.  The S = P + Q simulated columns are P FVDM drivers then Q
    linear-law vehicles; column c follows group[c], an index into [G leader
    columns | S simulated columns].  One (N, 2S + 2G) state array holds
    every row as [x of the S columns | their v | x of the G leaders | their
    v].  Each step gathers, in one take, every column's own x and v and
    those of what it follows at row max(k - d, 0), d its delay in samples.
    Row k + 1 reads no row past k, so a column may follow a simulated
    column, and a leader shorter than N can be padded with its last sample.
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
    d = np.floor(tau / dt + 0.5).astype(int)
    off = np.empty(s)
    tanh(m * (bc - bf), out=off)
    # constants as arrays: a Python float costs a conversion on every call
    zero, dts, half_dts = np.zeros(s), np.full(s, dt), np.full(s, 0.5 * dt)
    bf0, mbe = np.concatenate([bf, zero]), np.concatenate([m, be])

    w = 2 * s + 2 * g
    Z = np.empty((n, w))
    Z[0, :s] = x0
    Z[0, s : 2 * s] = v0
    Z[:, 2 * s : 2 * s + g] = leader_x
    Z[:, 2 * s + g :] = leader_v
    Zf = Z.ravel()
    # state columns of what each column follows: a leader's x and v, or a
    # simulated column's
    ahead = group < g
    ahead_x = np.where(ahead, 2 * s + group, group - g)
    ahead_v = np.where(ahead, 2 * s + g + group, s + group - g)
    # flat index of (max(k - d, 0), col) is max(k * w - d * w + col, col) for
    # each column's own x and v and its leader's x and v.  idx holds row k's
    # indices before the max; from k = max(d) on none is below col, so the
    # max is skipped.  Every index gathered lies inside Z, so take's "wrap"
    # mode never wraps; it only skips the bounds check.
    col = np.concatenate([np.arange(2 * s), ahead_x, ahead_v])
    idx = col - np.tile(d, 4) * w
    clipped = np.empty_like(idx)
    width = np.array(w)
    d_max = int(d.max(initial=0))

    # Each float operation keeps the operands and order of
    #   a = al (vm (tanh(m (h - bf)) - off) - vd) + be dv
    #   x + v dt + (a dt) (0.5 dt),  v + a dt
    # so the result is bit for bit the one written out with temporaries; the
    # stacked [dv - 0] is exact.  (a dt) (0.5 dt) equals ((0.5 a) dt) dt bit
    # for bit, and reuses a dt: halving a double is exact outside the
    # subnormal range, so (0.5 a) dt is a dt halved, and both forms round the
    # one real product (a dt) dt / 2.
    got = np.empty(4 * s)  # [x, v, leader x, leader v] at row max(k - d, 0)
    own, lead, vd = got[: 2 * s], got[2 * s :], got[s : 2 * s]
    law = np.empty(2 * s)  # [h, dv], then [m (h - bf), be dv]
    arg, bedv = law[:s], law[s:]
    a = np.empty(s)
    h_q, dv_q, vd_q, a_q = law[p:s], law[s + p :], vd[p:], a[p:]  # the linear columns'
    step = np.empty((2, s))  # [v dt, a dt]
    vdt, adt = step
    curve = np.empty(s)  # (a dt) (0.5 dt)
    clamp = np.empty(s, dtype=bool)
    xv = Z[:, : 2 * s].reshape(n, 2, s)  # a view: row k is [x, v]
    rows = n if accels is not None else n - 1  # rows whose law is evaluated
    for k, cur, nxt in zip(range(rows), xv, chain(xv[1:], (None,))):
        Zf.take(np.maximum(idx, col, out=clipped) if k < d_max else idx, out=got, mode="wrap")
        np.add(idx, width, out=idx)
        np.subtract(lead, own, out=law)
        if q:
            lin = k1 * (h_q - lam2 * vd_q - lam3) - k2 * (vd_q - v_star) + k3 * dv_q
        np.subtract(law, bf0, out=law)
        np.multiply(mbe, law, out=law)
        tanh(arg, out=a)
        np.subtract(a, off, out=a)
        np.multiply(vm, a, out=a)
        np.subtract(a, vd, out=a)
        np.multiply(al, a, out=a)
        np.add(a, bedv, out=a)
        if q:
            np.copyto(a_q, lin)
        if accels is not None:
            accels[k] = a
            if nxt is None:
                break
        np.multiply(cur[1], dts, out=vdt)
        np.multiply(a, dts, out=adt)
        np.add(cur, step, out=nxt)
        np.multiply(adt, half_dts, out=curve)
        x, v = nxt
        np.add(x, curve, out=x)
        # a speed that would turn negative clamps at zero and the position holds
        np.less(v, zero, out=clamp)
        if np.count_nonzero(clamp):
            np.copyto(v, 0.0, where=clamp)
            np.copyto(x, cur[0], where=clamp)
    if speeds is not None:
        speeds[...] = Z[:, s : 2 * s]
    return Z[:, :s]


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
        raise DataError(f"desired headway {dx} m")
    return dx


def simulate_platoon(vehicles, lead_profile, v_star: float, duration: float,
                     dt: float = DT) -> list[Trajectory]:
    """Simulate a string of vehicles behind a leader driving lead_profile.

    Every vehicle starts at v_star, its own equilibrium headway behind the
    one ahead.  Returns simulate_string's trajectories: the leader is
    vehicle 0 and vehicles[i] vehicle i + 1, and a collision raises
    CollisionDetected with every trajectory cut at its frame.
    """
    leader = leader_trajectory(lead_profile, duration, dt=dt, vehicle_id=0)
    headways = [_vehicle_eq_headway(vehicle, v_star) for vehicle in vehicles]
    # each start is the one ahead minus its headway, subtracted in chain order
    x0 = np.subtract.accumulate([leader.positions[0], *headways])[1:]
    return simulate_string(leader, vehicles, x0, v_star, v_star)
