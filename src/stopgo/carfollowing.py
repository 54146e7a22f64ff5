"""Car-following dynamics: velocity curve, follower and platoon simulation.

The human-driver model accelerates toward a headway-dependent desired speed
and reacts to the speed difference with the vehicle ahead, all evaluated a
reaction delay in the past.  Simulation uses a constant-acceleration step per
sample with speeds clamped at zero (no reversing).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionDetected,
    InfeasibleEquilibrium,
    NonpositiveEquilibriumHeadway,
)
from .stability import ControllerGains
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
    exists for speeds below the curve's supremum.
    """
    if v_star < 0:
        raise InfeasibleEquilibrium("equilibrium speed must be nonnegative")
    if v_star == 0.0:
        return theta.b_c
    q = v_star / theta.v0 + math.tanh(theta.m * (theta.b_c - theta.b_f))
    if q >= 1.0:
        raise InfeasibleEquilibrium(
            f"v_star={v_star} m/s is at or above the curve's supremum {v_max(theta):.3f}"
        )
    return theta.b_f + math.atanh(q) / theta.m


def fvdm_acceleration(theta: FvdmParams, headway, own_speed, speed_diff):
    """Model acceleration given (delayed) headway, own speed and speed difference."""
    return theta.alpha * (optimal_velocity(theta, headway) - own_speed) + theta.beta * speed_diff


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
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0 or self.amplitude > self.v_mean:
            raise ValueError("amplitude must stay within [0, v_mean] to keep speed nonnegative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        return self.v_mean + self.amplitude * np.sin(self.omega * t + self.phase)


def leader_trajectory(
    profile,
    duration: float,
    dt: float = DT,
    vehicle_id: int = 1,
    x0: float = 0.0,
    start_frame: int = 0,
    vehicle_length: float = 4.5,
) -> Trajectory:
    """Sample a speed profile and integrate it to positions (trapezoid rule)."""
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    v = np.asarray(profile.speed(t), dtype=float)
    x = np.empty(n)
    x[0] = x0
    np.cumsum(0.5 * (v[:-1] + v[1:]) * dt, out=x[1:])
    x[1:] += x0
    a = np.gradient(v, dt) if n > 1 else np.zeros(1)
    return Trajectory(vehicle_id, start_frame, x, v, a, vehicle_length, dt)


# ---------------------------------------------------------------------------
# integration

def _delay_steps(tau: float, dt: float) -> int:
    return int(math.floor(tau / dt + 0.5))


def _integrate(prev_x, prev_v, x0, v0, accel_fn, delay_steps, dt, start_frame, vehicle_index):
    """March one follower behind a known predecessor trajectory.

    Constant-acceleration kinematic step; the model acceleration is evaluated
    on states delay_steps samples in the past (the initial state before
    enough history exists).  Speeds clamp at zero and the position holds
    while clamped.  Raises CollisionDetected the moment the headway is
    nonpositive, carrying the partial arrays.
    """
    n = len(prev_x)
    x = np.empty(n)
    v = np.empty(n)
    a = np.empty(n)
    x[0], v[0] = x0, v0
    if prev_x[0] - x0 <= 0.0:
        raise CollisionDetected(vehicle_index, start_frame, partial=(x[:1], v[:1], a[:0]))
    for k in range(n):
        jd = k - delay_steps if k >= delay_steps else 0
        a[k] = accel_fn(prev_x[jd] - x[jd], v[jd], prev_v[jd] - v[jd])
        if k + 1 < n:
            vn = v[k] + a[k] * dt
            if vn < 0.0:
                v[k + 1] = 0.0
                x[k + 1] = x[k]
            else:
                v[k + 1] = vn
                x[k + 1] = x[k] + v[k] * dt + 0.5 * a[k] * dt * dt
            if prev_x[k + 1] - x[k + 1] <= 0.0:
                raise CollisionDetected(
                    vehicle_index,
                    start_frame + k + 1,
                    partial=(x[: k + 2], v[: k + 2], a[: k + 1]),
                )
    return x, v, a


def _fvdm_accel_fn(theta: FvdmParams):
    al, be, bc, bf, vm, m = theta.alpha, theta.beta, theta.b_c, theta.b_f, theta.v0, theta.m
    off = math.tanh(m * (bc - bf))

    def accel(h, vown, dv):
        return al * (vm * (math.tanh(m * (h - bf)) - off) - vown) + be * dv

    return accel


def simulate_follower(
    theta: FvdmParams,
    leader: Trajectory,
    init_position: float,
    init_speed: float,
    vehicle_id: int = 0,
    vehicle_length: float = 4.5,
) -> Trajectory:
    """Simulate one model follower behind a recorded or generated leader.

    Returns a trajectory aligned with the leader's frames.  Raises
    CollisionDetected if the follower ever reaches the leader's position.
    """
    x, v, a = _integrate(
        leader.positions,
        leader.speeds,
        init_position,
        init_speed,
        _fvdm_accel_fn(theta),
        _delay_steps(theta.tau, leader.dt),
        leader.dt,
        leader.start_frame,
        vehicle_index=1,
    )
    return Trajectory(vehicle_id, leader.start_frame, x, v, a, vehicle_length, leader.dt)


def simulate_followers_batch(thetas, leader_x, leader_v, x0, v0, dt: float = DT,
                             group=None) -> np.ndarray:
    """Position series for a batch of parameter vectors, each behind its leader.

    Vectorizes the integration across parameter sets; used by the calibration
    loop, where the candidate models of several pairs advance in one time
    loop.  Each candidate column follows leader column group[p]; the leader is gathered
    from the (N, G) arrays per step, never copied out to (N, P).  Row k + 1
    only reads leader samples up to row k, so a leader shorter than N can be
    padded with its last sample and its candidates' first rows stay exact.
    No collision check here; callers inspect the returned headways.

    Args:
        thetas: (P, 7) array, columns in PARAM_ORDER.
        leader_x, leader_v: leader positions/speeds, (N,) for one leader or
            (N, G) for G leaders.
        x0, v0: follower initial position and speed, scalars or (P,).
        group: (P,) leader column of each candidate; required with (N, G)
            leaders, all zero for one leader.

    Returns:
        (N, P) follower positions.
    """
    thetas = np.asarray(thetas, dtype=float)
    leader_x = np.asarray(leader_x, dtype=float)
    leader_v = np.asarray(leader_v, dtype=float)
    al, be, bc, bf, vm, m, tau = (thetas[:, i] for i in range(7))
    if leader_v.shape != leader_x.shape or leader_x.ndim not in (1, 2):
        raise ValueError("leader positions and speeds must share one (N,) or (N, G) shape")
    n = leader_x.shape[0]
    g = 1 if leader_x.ndim == 1 else leader_x.shape[1]
    p = thetas.shape[0]
    if group is None:
        if g != 1:
            raise ValueError("leaders of shape (N, G) need a group per candidate")
        group = np.zeros(p, dtype=int)
    group = np.asarray(group, dtype=int)
    if group.shape != (p,) or (p and not 0 <= group.min() <= group.max() < g):
        raise ValueError(f"group must hold {p} leader columns in [0, {g})")
    lx = leader_x.ravel()
    lv = leader_v.ravel()
    d = np.floor(tau / dt + 0.5).astype(int)
    cols = np.arange(p)
    off = np.tanh(m * (bc - bf))
    # flat indices of row max(k - d, 0): max(k * width - d * width + col, col)
    lead0 = group - d * g
    own0 = cols - d * p

    X = np.empty((n, p))
    V = np.empty((n, p))
    Xf = X.ravel()
    Vf = V.ravel()
    X[0] = x0
    V[0] = v0
    for k in range(n - 1):
        lead = np.maximum(lead0 + k * g, group)
        own = np.maximum(own0 + k * p, cols)
        xd = Xf.take(own)
        vd = Vf.take(own)
        h = lx.take(lead) - xd
        vopt = vm * (np.tanh(m * (h - bf)) - off)
        a = al * (vopt - vd) + be * (lv.take(lead) - vd)
        vn = V[k] + a * dt
        clamp = vn < 0.0
        V[k + 1] = np.where(clamp, 0.0, vn)
        X[k + 1] = np.where(clamp, X[k], X[k] + V[k] * dt + 0.5 * a * dt * dt)
    return X


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
class LinearHdv:
    """Platoon slot: human driver replaced by its linearization (with delay)."""

    k1: float
    k2: float
    k3: float
    lambda2: float
    lambda3: float
    tau: float = 0.0


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
        raise NonpositiveEquilibriumHeadway(f"desired headway {dx} m")
    return dx


def _vehicle_accel_fn(vehicle, v_star: float):
    if isinstance(vehicle, Hdv):
        return _fvdm_accel_fn(vehicle.params)
    if isinstance(vehicle, Cav):
        k1, k2, k3 = vehicle.gains.k1, vehicle.gains.k2, vehicle.gains.k3
        lam2, lam3 = vehicle.lambda2, vehicle.lambda3
    else:
        k1, k2, k3 = vehicle.k1, vehicle.k2, vehicle.k3
        lam2, lam3 = vehicle.lambda2, vehicle.lambda3

    def accel(h, vown, dv):
        return k1 * (h - lam2 * vown - lam3) - k2 * (vown - v_star) + k3 * dv

    return accel


def _vehicle_delay(vehicle, dt: float) -> int:
    tau = vehicle.params.tau if isinstance(vehicle, Hdv) else getattr(vehicle, "tau", 0.0)
    return _delay_steps(tau, dt)


def simulate_platoon(spec: PlatoonSpec, duration: float, dt: float = DT) -> list[Trajectory]:
    """Simulate the whole string, head to tail.

    Coupling only runs backwards (each vehicle reacts to the one ahead), so
    vehicles integrate one at a time against the predecessor's finished
    trajectory.  Returns trajectories leader-first, vehicle_id = platoon
    index.  On a collision the raised error carries every trajectory
    truncated at the collision frame.
    """
    leader = leader_trajectory(spec.lead_profile, duration, dt=dt, vehicle_id=0)
    done = [leader]
    for idx, vehicle in enumerate(spec.vehicles, start=1):
        prev = done[-1]
        x0 = prev.positions[0] - _vehicle_eq_headway(vehicle, spec.v_star)
        try:
            x, v, a = _integrate(
                prev.positions,
                prev.speeds,
                x0,
                spec.v_star,
                _vehicle_accel_fn(vehicle, spec.v_star),
                _vehicle_delay(vehicle, dt),
                dt,
                leader.start_frame,
                vehicle_index=idx,
            )
        except CollisionDetected as err:
            xs, vs, accs = err.partial
            k_end = len(xs)
            partial = [t.slice(t.start_frame, k_end) for t in done]
            partial.append(
                Trajectory(idx, leader.start_frame, xs, vs,
                           np.pad(accs, (0, k_end - len(accs))), 4.5, dt)
            )
            raise CollisionDetected(err.vehicle_index, err.frame, partial=partial) from None
        done.append(Trajectory(idx, leader.start_frame, x, v, a, 4.5, dt))
    return done
