"""Car-following dynamics: velocity curve, follower and platoon simulation.

The human-driver model accelerates toward a headway-dependent desired speed
and reacts to the speed difference with the vehicle ahead, all evaluated a
reaction delay in the past.  A string of vehicles advances in one time loop:
at each sample every vehicle's law reads the delayed states of itself and the
vehicle ahead, then each takes a constant-acceleration step with its speed
clamped at zero (no reversing).  The first frame at which any headway is
nonpositive raises CollisionDetected, naming the frontmost vehicle that
reached its predecessor there and carrying every trajectory cut at that frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CollisionDetected, DataError
from .stability import ControllerGains, EquilibriumSpec, LinearizedHdv
from .trajectory_io import DT, Trajectory, VehiclePair

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


def optimal_velocity(theta: FvdmParams, headway):
    """Desired speed at a headway: shifted tanh anchored to zero at b_c."""
    h = np.asarray(headway, dtype=float)
    out = theta.v0 * (
        np.tanh(theta.m * (h - theta.b_f)) - np.tanh(theta.m * (theta.b_c - theta.b_f))
    )
    return float(out) if out.ndim == 0 else out


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
class ConstantProfile:
    v: float

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("speed must be nonnegative")

    def speed(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.v)


@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise-constant speed: steps are (start_time, speed), ascending."""

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

def _law_row(slot) -> tuple:
    """A slot's law as one coefficient row: the FVDM's alpha, beta, b_f, v0,
    m and tanh(m (b_c - b_f)), the linear law's k1, k2, k3, lambda2 and
    lambda3, then the reaction delay tau; zeros fill the law it does not use."""
    if isinstance(slot, Hdv):
        p = slot.params
        return (p.alpha, p.beta, p.b_f, p.v0, p.m, math.tanh(p.m * (p.b_c - p.b_f)),
                0.0, 0.0, 0.0, 0.0, 0.0, p.tau)
    # a Cav carries its gains; a LinearizedHdv is its own gains
    gains = slot.gains if isinstance(slot, Cav) else slot
    return (0.0,) * 6 + (gains.k1, gains.k2, gains.k3, slot.lambda2, slot.lambda3,
                         getattr(slot, "tau", 0.0))


def _march(lead: Trajectory, slots, x0, v0, v_star: float) -> list[Trajectory]:
    """Advance a string of modeled vehicles behind lead in one time loop.

    Column 0 of the (N, m+1) state arrays is lead, and slot i (column i + 1)
    follows column i.  At sample k every slot reads its own and its
    predecessor's states at max(k - d, 0), d its delay in samples.  Both laws
    are evaluated on every slot from its coefficient row and np.where keeps
    the slot's own (adding the other law's zero could flip the sign of a zero
    acceleration), so each acceleration is bit for bit the one its law gives
    alone.  Then every slot takes a constant-acceleration step; a speed that
    would turn negative clamps at zero and the position holds.  v_star is the
    linear laws' target speed.

    Returns the trajectories lead-first, each slot's vehicle_id its column.
    Raises CollisionDetected at the first frame where any headway is
    nonpositive, naming the frontmost vehicle there, with every trajectory
    cut at that frame.
    """
    n, w, dt = lead.n, len(slots) + 1, lead.dt
    rows = np.array([_law_row(s) for s in slots], dtype=float).reshape(-1, 12)
    al, be, bf, vm, m, off, k1, k2, k3, lam2, lam3, tau = rows.T
    hdv = np.array([isinstance(s, Hdv) for s in slots], dtype=bool)
    X, V, A = (np.empty((n, w)) for _ in range(3))
    X[:, 0], V[:, 0], A[:, 0] = lead.positions, lead.speeds, lead.accels
    X[0, 1:], V[0, 1:] = x0, v0
    Xf, Vf = X.ravel(), V.ravel()
    cols = np.arange(1, w)
    # flat index of (max(k - d, 0), col): max(k * w - d * w + col, col)
    own0 = cols - np.floor(tau / dt + 0.5).astype(int) * w

    def trajectories(k_end: int) -> list[Trajectory]:
        xs, vs, accs = (S[:k_end, 1:].T.copy() for S in (X, V, A))
        return [lead.slice(lead.start_frame, k_end)] + [
            Trajectory(i, lead.start_frame, x, v, a, VEHICLE_LENGTH, dt)
            for i, (x, v, a) in enumerate(zip(xs, vs, accs), start=1)
        ]

    for k in range(n):
        own = np.maximum(own0 + k * w, cols)
        ahead = own - 1
        xd, vd = Xf.take(own), Vf.take(own)
        h = Xf.take(ahead) - xd
        dv = Vf.take(ahead) - vd
        # math.tanh, not np.tanh: the two differ in the last bit on some inputs
        th = np.fromiter(map(math.tanh, (m * (h - bf)).tolist()), float, w - 1)
        fvdm = al * (vm * (th - off) - vd) + be * dv
        linear = k1 * (h - lam2 * vd - lam3) - k2 * (vd - v_star) + k3 * dv
        a = np.where(hdv, fvdm, linear)
        A[k, 1:] = a
        hit = X[k, :-1] - X[k, 1:] <= 0.0
        if hit.any():
            raise CollisionDetected(int(hit.argmax()) + 1, lead.start_frame + k,
                                    partial=trajectories(k + 1))
        if k + 1 < n:
            x, v = X[k, 1:], V[k, 1:]
            vn = v + a * dt
            clamp = vn < 0.0
            V[k + 1, 1:] = np.where(clamp, 0.0, vn)
            X[k + 1, 1:] = np.where(clamp, x, x + v * dt + 0.5 * a * dt * dt)
    return trajectories(n)


def simulate_follower(
    theta: FvdmParams,
    leader: Trajectory,
    init_position: float,
    init_speed: float,
    vehicle_id: int = 0,
) -> Trajectory:
    """Simulate one model follower behind a recorded or generated leader.

    Returns a trajectory aligned with the leader's frames.  Raises
    CollisionDetected if the follower ever reaches the leader's position.
    """
    follower = _march(leader, (Hdv(theta),), init_position, init_speed, 0.0)[1]
    return replace(follower, vehicle_id=vehicle_id)


def generate_synthetic_pair(theta: FvdmParams, profile, duration: float,
                            initial_headway: float) -> VehiclePair:
    """Simulate a leader (vehicle 1) from a speed profile and a model
    follower (vehicle 2) behind it, sampled every DT seconds.

    The follower starts at the leader's initial speed, initial_headway meters
    behind, and follows the car-following model given by theta.  This is the
    pipeline's synthetic input and the ground truth of calibration tests.

    Raises:
        ValueError: initial headway at or below the stopping distance of the
            model's velocity curve.
    """
    if initial_headway <= theta.b_c:
        raise ValueError(
            f"initial headway {initial_headway} m <= b_c {theta.b_c} m"
        )
    leader = leader_trajectory(profile, duration, vehicle_id=1)
    follower = simulate_follower(
        theta,
        leader,
        init_position=leader.positions[0] - initial_headway,
        init_speed=leader.speeds[0],
        vehicle_id=2,
    )
    return VehiclePair(leader, follower, leader.start_frame, leader.n)


def simulate_followers_batch(thetas, leader_x, leader_v, x0, v0, dt: float = DT, *,
                             group) -> np.ndarray:
    """Position series for a batch of parameter vectors, each behind its leader.

    Vectorizes the integration across parameter sets; used by the calibration
    loop, where the candidate models of several pairs advance in one time
    loop.  Each candidate column follows leader column group[p].  One (N,
    2P + 2G) state array holds every row as [x of the P candidates | their v
    | x of the G leaders | their v]; the leader columns are copied in once.
    Each step gathers, in one take, every candidate's own x and v and its
    leader's x and v at row max(k - d, 0), then runs the law and the update
    on preallocated buffers.  Row k + 1 only reads leader samples up to row
    k, so a leader shorter than N can be padded with its last sample and its
    candidates' first rows stay exact.  No collision check here; callers
    inspect the returned headways.

    Args:
        thetas: (P, 7) array, columns in PARAM_ORDER.
        leader_x, leader_v: (N, G) positions/speeds of G leaders, N >= 1.
        x0, v0: follower initial position and speed, scalars or (P,).
        group: (P,) leader column of each candidate.

    Returns:
        (N, P) follower positions: a view of the state array, whose speeds
        share its buffer.
    """
    thetas = np.asarray(thetas, dtype=float)
    leader_x = np.asarray(leader_x, dtype=float)
    leader_v = np.asarray(leader_v, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != len(PARAM_ORDER):
        raise ValueError(f"thetas must be a (P, {len(PARAM_ORDER)}) array, got {thetas.shape}")
    if leader_v.shape != leader_x.shape or leader_x.ndim != 2 or not len(leader_x):
        raise ValueError("leader positions and speeds must share one (N, G) shape, N >= 1")
    n, g = leader_x.shape
    p = thetas.shape[0]
    for name, start in (("x0", x0), ("v0", v0)):
        if np.shape(start) not in ((), (p,)):
            raise ValueError(f"{name} must be a scalar or ({p},), got {np.shape(start)}")
    group = np.asarray(group, dtype=int)
    if group.shape != (p,) or (p and not 0 <= group.min() <= group.max() < g):
        raise ValueError(f"group must hold {p} leader columns in [0, {g})")
    al, be, bc, bf, vm, m, tau = thetas.T.copy()
    d = np.floor(tau / dt + 0.5).astype(int)
    off = np.tanh(m * (bc - bf))
    # constants as arrays: a Python float costs a conversion on every call
    zero, dts, half = np.zeros(p), np.full(p, dt), np.full(p, 0.5)
    bf0, mbe = np.concatenate([bf, zero]), np.concatenate([m, be])

    w = 2 * p + 2 * g
    Z = np.empty((n, w))
    Z[0, :p] = x0
    Z[0, p : 2 * p] = v0
    Z[:, 2 * p : 2 * p + g] = leader_x
    Z[:, 2 * p + g :] = leader_v
    Zf = Z.ravel()
    # flat index of (max(k - d, 0), col) is max(k * w - d * w + col, col) for
    # each candidate's own x and v and its leader's x and v.  idx holds row
    # k's indices before the max; from k = max(d) on none is below col, so
    # the max is skipped.  Every index gathered lies inside Z, so take's
    # "wrap" mode never wraps; it only skips the bounds check.
    col = np.concatenate([np.arange(2 * p), 2 * p + group, 2 * p + g + group])
    idx = col - np.tile(d, 4) * w
    clipped = np.empty_like(idx)
    width = np.array(w)
    d_max = int(d.max(initial=0))

    # Each float operation keeps the operands and order of
    #   a = al (vm (tanh(m (h - bf)) - off) - vd) + be dv
    #   x + v dt + ((0.5 a) dt) dt,  v + a dt
    # so the result is bit for bit the one written out with temporaries; the
    # stacked [dv - 0] is exact.
    got = np.empty(4 * p)  # [x, v, leader x, leader v] at row max(k - d, 0)
    own, lead, vd = got[: 2 * p], got[2 * p :], got[p : 2 * p]
    law = np.empty(2 * p)  # [h, dv], then [m (h - bf), be dv]
    arg, bedv = law[:p], law[p:]
    a = np.empty(p)
    step = np.empty((2, p))  # [v dt, a dt]
    vdt, adt = step
    curve = np.empty(p)  # ((0.5 a) dt) dt
    clamp = np.empty(p, dtype=bool)
    xv = Z[:, : 2 * p].reshape(n, 2, p)  # a view: row k is [x, v]
    for k, cur, nxt in zip(range(n - 1), xv, xv[1:]):
        Zf.take(np.maximum(idx, col, out=clipped) if k < d_max else idx, out=got, mode="wrap")
        np.add(idx, width, out=idx)
        np.subtract(lead, own, out=law)
        np.subtract(law, bf0, out=law)
        np.multiply(mbe, law, out=law)
        np.tanh(arg, out=a)
        np.subtract(a, off, out=a)
        np.multiply(vm, a, out=a)
        np.subtract(a, vd, out=a)
        np.multiply(al, a, out=a)
        np.add(a, bedv, out=a)
        np.multiply(cur[1], dts, out=vdt)
        np.multiply(a, dts, out=adt)
        np.add(cur, step, out=nxt)
        np.multiply(half, a, out=curve)
        np.multiply(curve, dts, out=curve)
        np.multiply(curve, dts, out=curve)
        x, v = nxt
        np.add(x, curve, out=x)
        # a speed that would turn negative clamps at zero and the position holds
        np.less(v, zero, out=clamp)
        if np.count_nonzero(clamp):
            np.copyto(v, 0.0, where=clamp)
            np.copyto(x, cur[0], where=clamp)
    return Z[:, :p]


# ---------------------------------------------------------------------------
# platoons

@dataclass(frozen=True)
class Hdv:
    """Platoon slot: human driver with a calibrated model."""

    params: FvdmParams


@dataclass(frozen=True)
class Cav:
    """Platoon slot: automated vehicle with linear spacing control, no delay."""

    gains: ControllerGains
    lambda2: float
    lambda3: float


@dataclass(frozen=True)
class PlatoonSpec:
    """A leader speed profile followed by a string of modeled vehicles.

    vehicles[0] drives directly behind the profiled leader.  v_star is the
    equilibrium speed: every vehicle starts at it, spaced at its own
    equilibrium headway, and the linear controllers regulate toward it.
    """

    vehicles: tuple
    lead_profile: object
    v_star: float


def _vehicle_eq_headway(vehicle, v_star: float) -> float:
    if isinstance(vehicle, Hdv):
        return equilibrium_headway(vehicle.params, v_star)
    dx = vehicle.lambda2 * v_star + vehicle.lambda3
    if dx <= 0:
        raise DataError(f"desired headway {dx} m")
    return dx


def simulate_platoon(spec: PlatoonSpec, duration: float, dt: float = DT) -> list[Trajectory]:
    """Simulate the whole string behind its profiled leader.

    Every vehicle starts at v_star, its own equilibrium headway behind the
    one ahead.  Returns trajectories leader-first, vehicle_id = platoon
    index.  On a collision the raised error carries every trajectory cut at
    the first frame where any headway is nonpositive.
    """
    leader = leader_trajectory(spec.lead_profile, duration, dt=dt, vehicle_id=0)
    gaps = [_vehicle_eq_headway(vehicle, spec.v_star) for vehicle in spec.vehicles]
    # each start is the one ahead minus its gap, subtracted in chain order
    x0 = np.subtract.accumulate([leader.positions[0], *gaps])[1:]
    return _march(leader, spec.vehicles, x0, spec.v_star, spec.v_star)
