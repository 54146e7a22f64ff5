"""Car-following model, speed profile, integrator, and platoon tests."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stopgo.carfollowing import (
    Cav,
    FvdmParams,
    PiecewiseProfile,
    SinusoidProfile,
    equilibrium_headway,
    leader_trajectory,
    VEHICLE_LENGTH,
    _libm_tanh,
    ov_slope,
    simulate_followers_batch,
    simulate_platoon,
    simulate_string,
    v_max,
)
from stopgo.errors import CollisionDetected, DataError
from stopgo.stability import ControllerGains, LinearizedHdv
from stopgo.trajectory_io import DT

THETA = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)
# THETA with its stopping and inflection headways one vehicle length longer,
# so a driver standing behind a stopped leader keeps a 3 m gap between bodies
THETA_GAP = FvdmParams(1.5, 1.2, 3.0 + VEHICLE_LENGTH, 20.0 + VEHICLE_LENGTH, 18.0, 0.08, 0.5)

# draw boxes matching the calibration search space
PARAM_BOX = {
    "alpha": (1.0, 10.0),
    "beta": (1.0, 10.0),
    "b_c": (0.1, 8.0),
    "b_f": (0.1, 100.0),
    "v0": (1.0, 70.0),
    "m": (1e-5, 10.0),
    "tau": (0.0, 3.0),
}


def optimal_velocity(theta: FvdmParams, headway):
    """Desired speed at a headway: shifted tanh anchored to zero at b_c.  The
    integration kernel computes the same curve in place."""
    h = np.asarray(headway, dtype=float)
    out = theta.v0 * (
        np.tanh(theta.m * (h - theta.b_f)) - np.tanh(theta.m * (theta.b_c - theta.b_f))
    )
    return float(out) if out.ndim == 0 else out


def _draw_theta(rng):
    return FvdmParams(**{k: float(rng.uniform(*box)) for k, box in PARAM_BOX.items()})


def test_desired_speed_anchor_points():
    rng = np.random.default_rng(21)
    for _ in range(100):
        th = _draw_theta(rng)
        off = math.tanh(th.m * (th.b_c - th.b_f))
        assert abs(optimal_velocity(th, th.b_c)) <= 1e-12
        assert abs(optimal_velocity(th, th.b_f) - (v_max(th) - th.v0)) <= 1e-12
        assert abs(optimal_velocity(th, 1e9) - th.v0 * (1.0 - off)) <= 1e-12


def test_desired_speed_monotone_increasing():
    rng = np.random.default_rng(22)
    for _ in range(50):
        th = _draw_theta(rng)
        dx = np.linspace(0.1, 200.0, 400)
        v = optimal_velocity(th, dx)
        assert np.all(np.diff(v) >= 0)


def test_slope_matches_finite_difference():
    rng = np.random.default_rng(23)
    for _ in range(100):
        th = _draw_theta(rng)
        dx = float(rng.uniform(1.0, 60.0))
        h = 1e-6 * max(1.0, dx)
        fd = (optimal_velocity(th, dx + h) - optimal_velocity(th, dx - h)) / (2 * h)
        an = ov_slope(th, dx)
        if abs(an) > 1e-9:  # below that the centered difference is all roundoff
            assert abs(fd - an) <= 1e-6 * abs(an) + 1e-9


def test_equilibrium_headway_inverts_curve():
    rng = np.random.default_rng(24)
    for _ in range(100):
        th = _draw_theta(rng)
        v_star = float(rng.uniform(0.05, 0.95)) * v_max(th)
        dx = equilibrium_headway(th, v_star)
        assert optimal_velocity(th, dx) == pytest.approx(v_star, abs=1e-9 * max(1, v_star))


def test_equilibrium_headway_edge_cases():
    assert equilibrium_headway(THETA, 0.0) == THETA.b_c
    with pytest.raises(DataError, match="is at or above the curve's supremum"):
        equilibrium_headway(THETA, v_max(THETA))
    with pytest.raises(ValueError, match="equilibrium speed must be nonnegative"):
        equilibrium_headway(THETA, -1.0)


def test_param_bounds_enforced():
    with pytest.raises(ValueError):
        FvdmParams(0.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)  # alpha below box
    with pytest.raises(ValueError):
        FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 3.5)  # tau above box


def test_constant_profile_leader_kinematics():
    tr = leader_trajectory(PiecewiseProfile(((0.0, 12.0),)), 10.0)
    assert tr.n == 101
    np.testing.assert_allclose(tr.speeds, 12.0)
    np.testing.assert_allclose(tr.positions, 12.0 * np.arange(101) * 0.1, atol=1e-9)
    np.testing.assert_allclose(tr.accels, 0.0, atol=1e-12)


def test_piecewise_profile_steps_and_validation():
    prof = PiecewiseProfile(((0.0, 12.0), (5.0, 4.0)))
    t = np.array([0.0, 4.9, 5.0, 9.0])
    np.testing.assert_array_equal(prof.speed(t), [12.0, 12.0, 4.0, 4.0])
    with pytest.raises(ValueError):
        PiecewiseProfile(((5.0, 1.0), (0.0, 2.0)))  # times out of order
    with pytest.raises(ValueError):
        PiecewiseProfile(((0.0, -1.0),))


def test_sinusoid_profile_validation():
    SinusoidProfile(12.0, 12.0, 0.5)  # amplitude == mean is the limit
    with pytest.raises(ValueError):
        SinusoidProfile(12.0, 12.1, 0.5)
    with pytest.raises(ValueError):
        SinusoidProfile(12.0, 1.0, 0.0)


def test_leader_trajectory_trapezoid_accuracy():
    dt = 0.1
    prof = SinusoidProfile(10.0, 2.0, 0.7)
    tr = leader_trajectory(prof, 50.0, dt=dt)
    t = (tr.start_frame + np.arange(tr.n)) * tr.dt
    exact = 10.0 * t + (2.0 / 0.7) * (1.0 - np.cos(0.7 * t))
    assert np.max(np.abs(tr.positions - exact)) < dt**2


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_follower_holds_equilibrium(tau):
    th = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, tau)
    dx = equilibrium_headway(th, 12.0)
    leader = leader_trajectory(PiecewiseProfile(((0.0, 12.0),)), 60.0)
    fol = simulate_string(leader, (th,), leader.positions[0] - dx, 12.0, 0.0)[1]
    np.testing.assert_allclose(fol.speeds, 12.0, atol=1e-9)
    np.testing.assert_allclose(leader.positions - fol.positions, dx, atol=1e-9)


def test_speed_clamps_at_zero_and_position_holds():
    # stopped leader ahead: the follower brakes to rest, never reverses, and
    # its position freezes across every clamped step (it may creep forward
    # again later once the standing gap exceeds the stopping headway)
    leader = leader_trajectory(PiecewiseProfile(((0.0, 0.0),)), 20.0)
    fol = simulate_string(leader, (THETA_GAP,), -5.0 - VEHICLE_LENGTH, 10.0, 0.0)[1]
    assert np.min(fol.speeds) == 0.0
    assert np.all(fol.speeds >= 0.0)
    assert np.all(np.diff(fol.positions) >= 0.0)
    both_zero = (fol.speeds[:-1] == 0.0) & (fol.speeds[1:] == 0.0)
    assert np.any(both_zero)
    np.testing.assert_array_equal(
        fol.positions[1:][both_zero], fol.positions[:-1][both_zero]
    )


def test_collision_raises_with_partial_arrays():
    leader = leader_trajectory(PiecewiseProfile(((0.0, 0.0),)), 20.0)
    with pytest.raises(CollisionDetected) as exc:
        simulate_string(leader, (THETA,), -2.0 - VEHICLE_LENGTH, 12.0, 0.0)
    err = exc.value
    lead_cut, follower_cut = err.partial
    assert err.vehicle_index == 1  # the follower, behind the leader (0)
    assert lead_cut.n == follower_cut.n == err.frame + 1
    assert leader.positions[err.frame] - follower_cut.positions[-1] <= VEHICLE_LENGTH


def test_batch_matches_scalar_followers():
    rng = np.random.default_rng(30)
    leader = leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), 40.0)
    thetas = []
    for _ in range(4):
        th = FvdmParams(
            float(rng.uniform(1, 3)),
            float(rng.uniform(1, 3)),
            3.0 + VEHICLE_LENGTH,
            20.0 + VEHICLE_LENGTH,
            18.0,
            0.08,
            float(rng.choice([0.0, 0.3, 0.5])),
        )
        thetas.append(th)
    dx0 = 18.0 + VEHICLE_LENGTH
    batch = simulate_followers_batch(
        np.array([th.as_array() for th in thetas]),
        leader.positions[:, None],
        leader.speeds[:, None],
        np.full(4, leader.positions[0] - dx0),
        np.full(4, 12.0),
        group=np.zeros(4, dtype=int),
        tanh=_libm_tanh,
    )
    assert batch.shape == (leader.n, 4)
    # with the platoon's tanh, a batch column and a lone follower run one code path
    for i, th in enumerate(thetas):
        single = simulate_string(leader, (th,), leader.positions[0] - dx0, 12.0, 0.0)[1]
        assert np.array_equal(batch[:, i], single.positions)


def test_platoon_structure_and_equilibrium_hold():
    vehicles = (
        Cav(ControllerGains(0.5, 1.0, 0.5), 0.0, 20.0),
        THETA,
        LinearizedHdv(1.0, 1.5, 0.8, 0.0, tau=0.2, lambda3=20.0),
    )
    trajs = simulate_platoon(vehicles, PiecewiseProfile(((0.0, 12.0),)), 12.0, 40.0)
    assert [tr.vehicle_id for tr in trajs] == [0, 1, 2, 3]
    assert len({tr.n for tr in trajs}) == 1
    for tr in trajs:
        np.testing.assert_allclose(tr.speeds, 12.0, atol=1e-9)
    gaps = [trajs[i].positions - trajs[i + 1].positions for i in range(3)]
    np.testing.assert_allclose(gaps[0], 20.0, atol=1e-9)
    np.testing.assert_allclose(gaps[1], equilibrium_headway(THETA, 12.0), atol=1e-9)
    np.testing.assert_allclose(gaps[2], 20.0, atol=1e-9)


def test_platoon_collision_truncates_every_vehicle():
    # inert controller keeps cruising into a leader that stops hard
    vehicles = (Cav(ControllerGains(0.001, 0.001, 0.0), 0.0, 20.0),)
    prof = PiecewiseProfile(((0.0, 12.0), (5.0, 0.0)))
    with pytest.raises(CollisionDetected) as exc:
        simulate_platoon(vehicles, prof, 12.0, 60.0)
    err = exc.value
    assert err.vehicle_index == 1
    assert isinstance(err.partial, list) and len(err.partial) == 2
    lengths = {tr.n for tr in err.partial}
    assert len(lengths) == 1
    assert err.partial[0].start_frame + err.partial[0].n - 1 == err.frame


def _reference_law(vehicle, v_star):
    """The scalar acceleration law of one string vehicle, as the per-vehicle march evaluated it."""
    if isinstance(vehicle, FvdmParams):
        th = vehicle
        off = math.tanh(th.m * (th.b_c - th.b_f))
        return lambda h, vown, dv: (
            th.alpha * (th.v0 * (math.tanh(th.m * (h - th.b_f)) - off) - vown) + th.beta * dv)
    g = vehicle.gains if isinstance(vehicle, Cav) else vehicle
    lam2, lam3 = vehicle.lambda2, vehicle.lambda3
    return lambda h, vown, dv: g.k1 * (h - lam2 * vown - lam3) - g.k2 * (vown - v_star) + g.k3 * dv


def _reference_march(vehicles, lead_profile, v_star, duration, dt=DT):
    """(positions, speeds, accelerations) per vehicle, leader first, from the
    per-vehicle march: each vehicle runs to the end behind its predecessor's
    finished trajectory, one scalar step at a time, through any collision."""
    leader = leader_trajectory(lead_profile, duration, dt=dt, vehicle_id=0)
    out = [(leader.positions, leader.speeds, leader.accels)]
    for vehicle in vehicles:
        prev_x, prev_v, _ = out[-1]
        accel = _reference_law(vehicle, v_star)
        tau = getattr(vehicle, "tau", 0.0)  # a Cav has no delay
        delay = int(math.floor(tau / dt + 0.5))
        gap = (equilibrium_headway(vehicle, v_star) if isinstance(vehicle, FvdmParams)
               else vehicle.lambda2 * v_star + vehicle.lambda3)
        n = len(prev_x)
        x, v, a = np.empty(n), np.empty(n), np.empty(n)
        x[0], v[0] = prev_x[0] - gap, v_star
        for k in range(n):
            jd = max(k - delay, 0)
            a[k] = accel(prev_x[jd] - x[jd], v[jd], prev_v[jd] - v[jd])
            if k + 1 < n:
                vn = v[k] + a[k] * dt
                if vn < 0.0:
                    v[k + 1], x[k + 1] = 0.0, x[k]
                else:
                    v[k + 1], x[k + 1] = vn, x[k] + v[k] * dt + 0.5 * a[k] * dt * dt
        out.append((x, v, a))
    return out


# an automated vehicle, human drivers with reaction delays of 0, 0.5 and
# 1.3 s and a delayed linear driver.  The 1.3 s driver's delay margin is
# 0.26 s, so it collides within 30 s and the march is compared up to the
# collision frame.  The delayed linear driver's spacing falls up to 18.3 m
# below its desired headway, so that headway is 20 m plus a vehicle length.
STABLE_STRING = (
    Cav(ControllerGains(0.5, 1.0, 0.5), 0.0, 20.0),
    FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.0),
    FvdmParams(2.0, 1.5, 3.0, 20.0, 18.0, 0.08, 0.5),
    LinearizedHdv(1.0, 1.5, 0.8, 0.0, tau=0.7, lambda3=20.0 + VEHICLE_LENGTH),
)
MIXED_STRING = STABLE_STRING + (FvdmParams(3.0, 2.5, 3.0, 25.0, 20.0, 0.08, 1.3),)


@pytest.mark.parametrize("vehicles", [STABLE_STRING, MIXED_STRING], ids=["stable", "colliding"])
@pytest.mark.parametrize("profile", [
    SinusoidProfile(12.0, 2.0, 0.4),
    PiecewiseProfile(((0.0, 12.0), (20.0, 8.0), (60.0, 12.0))),
], ids=["sinusoid", "step"])
def test_string_loop_matches_per_vehicle_march(vehicles, profile):
    run = (vehicles, profile, 12.0, 120.0)
    ref = _reference_march(*run)
    gaps = np.array([ahead[0] - behind[0] for ahead, behind in zip(ref, ref[1:])])
    # a collision is a spacing at or below the length of the vehicle ahead
    hits = np.argwhere((gaps <= VEHICLE_LENGTH).T)  # (frame, vehicle - 1), frame-major
    try:
        trajs = simulate_platoon(*run)
        assert len(hits) == 0
        end = gaps.shape[1]
    except CollisionDetected as err:
        trajs = err.partial
        assert len(hits) and (err.frame, err.vehicle_index) == (hits[0][0], hits[0][1] + 1)
        end = err.frame + 1
    assert (end < gaps.shape[1]) == (vehicles is MIXED_STRING)
    assert [tr.vehicle_id for tr in trajs] == list(range(len(vehicles) + 1))
    for tr, (x, v, a) in zip(trajs, ref, strict=True):
        np.testing.assert_array_equal(tr.positions, x[:end])
        np.testing.assert_array_equal(tr.speeds, v[:end])
        np.testing.assert_array_equal(tr.accels, a[:end])
        assert tr.vehicle_length == VEHICLE_LENGTH


def test_collision_names_the_first_frame_of_any_vehicle():
    # the delayed linear driver hits the automated vehicle long before the
    # automated vehicle reaches the stopping leader
    vehicles = (
        Cav(ControllerGains(0.3, 0.5, 0.5), 0.0, 20.0),
        LinearizedHdv(1.0, 0.5, 0.0, 0.0, tau=1.5, lambda3=6.0),
    )
    with pytest.raises(CollisionDetected) as exc:
        simulate_platoon(vehicles, PiecewiseProfile(((0, 12), (5, 9), (60, 0))), 12.0, 120.0)
    err, cut = exc.value, exc.value.partial
    assert (err.vehicle_index, err.frame) == (2, 66)
    assert [tr.vehicle_id for tr in cut] == [0, 1, 2]
    assert all(tr.start_frame + tr.n - 1 == 66 for tr in cut)
    assert cut[1].positions[-1] - cut[2].positions[-1] <= VEHICLE_LENGTH
    assert np.all(cut[0].positions - cut[1].positions > VEHICLE_LENGTH)


def test_collision_is_a_spacing_at_the_length_of_the_vehicle_ahead():
    # a CAV with no spacing feedback drifts into a leader that slows from 12
    # to 8 m/s: its spacing falls to the leader's length at frame 240 and to
    # 0 at frame 253, and the collision is the first of the two
    run = ((Cav(ControllerGains(0.0, 0.02, 0.02), 1.5, 2.0),),
           PiecewiseProfile(((0, 12), (20, 8))), 12.0, 60.0)
    (lead_x, _, _), (cav_x, _, _) = _reference_march(*run)
    through = lead_x - cav_x
    assert (np.argmax(through <= VEHICLE_LENGTH), np.argmax(through <= 0.0)) == (240, 253)
    with pytest.raises(CollisionDetected) as exc:
        simulate_platoon(*run)
    err = exc.value
    lead, cav = err.partial
    assert (err.vehicle_index, err.frame) == (1, 240)
    assert np.array_equal(lead.positions - cav.positions, through[:241])
    assert lead.speeds[-1] - cav.speeds[-1] == pytest.approx(-3.70, abs=0.005)


def test_unstable_linear_follower_amplifies_matching_transfer_gain():
    # k1=2, k2=0.6, k3=0.1, no delay: |T(j w)|^2 = (k1^2 + w^2 k3^2) /
    # ((k1 - w^2)^2 + w^2 (k2+k3)^2); at w=1 that is 4.01/1.49
    k1, k2, k3 = 2.0, 0.6, 0.1
    w = 1.0
    gain = math.sqrt((k1**2 + w**2 * k3**2) / ((k1 - w**2) ** 2 + w**2 * (k2 + k3) ** 2))
    assert gain > 1.0

    dt = 0.01
    eps = 0.5
    vehicles = (LinearizedHdv(k1, k2, k3, 0.0, lambda3=20.0),)
    trajs = simulate_platoon(vehicles, SinusoidProfile(15.0, eps, w), 15.0, 300.0, dt=dt)
    tail = (trajs[0].start_frame + np.arange(trajs[0].n)) * trajs[0].dt > 200.0
    amp_leader = np.max(np.abs(trajs[0].speeds[tail] - 15.0))
    amp_follow = np.max(np.abs(trajs[1].speeds[tail] - 15.0))
    assert amp_follow / amp_leader == pytest.approx(gain, rel=0.05)


def test_grouped_batch_matches_separate_leaders():
    rng = np.random.default_rng(31)
    leaders = [
        leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), 40.0),
        leader_trajectory(SinusoidProfile(10.0, 3.0, 0.9), 40.0),
        leader_trajectory(PiecewiseProfile(((0.0, 8.0),)), 25.0),
    ]
    n = leaders[0].n
    # the short leader is padded with its last sample, as calibration does
    lx = np.column_stack([np.pad(tr.positions, (0, n - tr.n), mode="edge") for tr in leaders])
    lv = np.column_stack([np.pad(tr.speeds, (0, n - tr.n), mode="edge") for tr in leaders])
    taus = [0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.7, 1.3, 2.2, 0.4]
    thetas = np.array([_draw_theta(rng).as_array() for _ in taus])
    thetas[:, -1] = taus
    group = np.array([0, 1, 2, 2, 1, 0, 0, 1, 2, 1])
    x0 = np.array([tr.positions[0] - 18.0 for tr in leaders])[group]
    v0 = np.array([tr.speeds[0] for tr in leaders])[group]
    joint = simulate_followers_batch(thetas, lx, lv, x0, v0, group=group)
    assert joint.shape == (n, len(taus))
    for g, tr in enumerate(leaders):
        cols = np.flatnonzero(group == g)
        alone = simulate_followers_batch(thetas[cols], tr.positions[:, None], tr.speeds[:, None],
                                         tr.positions[0] - 18.0, tr.speeds[0],
                                         group=np.zeros(len(cols), dtype=int))
        assert np.array_equal(joint[: tr.n, cols], alone)


def test_grouped_batch_needs_valid_groups():
    leader = leader_trajectory(PiecewiseProfile(((0.0, 8.0),)), 2.0)
    lx = np.column_stack([leader.positions, leader.positions])
    lv = np.column_stack([leader.speeds, leader.speeds])
    thetas = np.array([THETA.as_array()] * 2)
    # group indexes [2 leader columns | 2 simulated columns]: 4 is past the
    # end, -1 before the start, and 3 is candidate 1 itself
    for group in ([0, 4], [-1, 0], [0, 3]):
        with pytest.raises(ValueError):
            simulate_followers_batch(thetas, lx, lv, -18.0, 8.0, group=group)



def test_one_call_runs_a_string_and_lone_followers():
    # kernel columns [string driver, two candidates | Cav, delayed LinearizedHdv]
    # behind leaders [string lead, two others]: the string is Cav -> THETA ->
    # LinearizedHdv, so the THETA driver follows a linear column and the
    # LinearizedHdv an FVDM column; each candidate follows its own leader
    v_star, duration = 12.0, 60.0
    cav = Cav(ControllerGains(0.5, 1.0, 0.5), 0.0, 20.0)
    lin = LinearizedHdv(1.0, 1.5, 0.8, 0.0, tau=0.3, lambda3=20.0)
    string = simulate_platoon((cav, THETA, lin), SinusoidProfile(12.0, 2.0, 0.4), v_star, duration)
    leaders = [string[0], leader_trajectory(SinusoidProfile(10.0, 3.0, 0.9), duration),
               leader_trajectory(PiecewiseProfile(((0.0, 12.0), (20.0, 8.0))), duration)]
    candidates = [FvdmParams(2.0, 1.5, 3.0, 20.0, 18.0, 0.08, 0.3),
                  FvdmParams(2.0, 2.0, 3.0, 20.0, 18.0, 0.08, 0.2)]
    alone = [simulate_string(tr, (th,), tr.positions[0] - 18.0, tr.speeds[0], 0.0)[1]
             for th, tr in zip(candidates, leaders[1:])]
    runs = [string[2], *alone, string[1], string[3]]  # in kernel column order
    n = leaders[0].n
    V, A = np.empty((n, 5)), np.empty((n, 5))
    X = simulate_followers_batch(
        np.array([THETA.as_array(), *(th.as_array() for th in candidates)]),
        np.column_stack([tr.positions for tr in leaders]),
        np.column_stack([tr.speeds for tr in leaders]),
        np.array([tr.positions[0] for tr in runs]), np.array([tr.speeds[0] for tr in runs]),
        group=[3 + 3, 1, 2, 0, 3 + 0],
        linear=[[0.5, 1.0, 0.5, 0.0, 20.0, 0.0], [1.0, 1.5, 0.8, 0.0, 20.0, 0.3]],
        v_star=v_star, speeds=V, accels=A, tanh=_libm_tanh)
    for c, tr in enumerate(runs):
        assert np.array_equal(X[:, c], tr.positions)
        assert np.array_equal(V[:, c], tr.speeds)
        assert np.array_equal(A[:, c], tr.accels)


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_string_tail_replays_behind_a_recorded_vehicle(cut):
    # the vehicles behind string vehicle `cut`, run behind its trajectory as
    # a recorded leader from their own starting states, drive the same
    # trajectories bit for bit: a chain replays from any of its vehicles
    vehicles = (
        Cav(ControllerGains(0.5, 1.0, 0.5), 0.0, 20.0),
        FvdmParams(1.5, 1.2, 3.0 + VEHICLE_LENGTH, 20.0 + VEHICLE_LENGTH, 18.0, 0.08, 0.3),
        FvdmParams(2.0, 1.5, 3.0 + VEHICLE_LENGTH, 20.0 + VEHICLE_LENGTH, 18.0, 0.08, 0.5),
        LinearizedHdv(1.0, 1.5, 0.8, 0.0, tau=0.7, lambda3=20.0 + VEHICLE_LENGTH),
    )
    profile = PiecewiseProfile(((0.0, 12.0), (20.0, 8.0), (60.0, 12.0)))
    string = simulate_platoon(vehicles, profile, 12.0, 120.0)
    tail = string[cut + 1 :]
    replay = simulate_string(string[cut], vehicles[cut:], [tr.positions[0] for tr in tail],
                             [tr.speeds[0] for tr in tail], 12.0)
    for ran, again in zip(tail, replay[1:], strict=True):
        assert np.array_equal(ran.positions, again.positions)
        assert np.array_equal(ran.speeds, again.speeds)
        assert np.array_equal(ran.accels, again.accels)


def _reference_batch(thetas, leader_x, leader_v, x0, v0, dt=DT, *, group):
    """(positions, speeds) of the batch kernel's per-step loop with separate
    (N, P) position and speed arrays and one temporary per operation."""
    al, be, bc, bf, vm, m, tau = (thetas[:, i] for i in range(7))
    n, g = leader_x.shape
    p = thetas.shape[0]
    lx, lv = leader_x.ravel(), leader_v.ravel()
    d = np.floor(tau / dt + 0.5).astype(int)
    cols = np.arange(p)
    off = np.tanh(m * (bc - bf))
    # flat indices of row max(k - d, 0): max(k * width - d * width + col, col)
    lead0 = group - d * g
    own0 = cols - d * p
    X, V = np.empty((n, p)), np.empty((n, p))
    Xf, Vf = X.ravel(), V.ravel()
    X[0], V[0] = x0, v0
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
    return X, V


def _batch_case(name):
    """(thetas, leader_x, leader_v, x0, v0, group) of one named kernel case."""
    rng = np.random.default_rng(32)
    if name == "braking-to-a-stop":
        # the leader stops dead; hard-braking candidates close behind it
        # reach zero speed within a step
        leaders = [leader_trajectory(PiecewiseProfile(((0.0, 12.0), (5.0, 0.0))), 20.0)]
        taus = [0.0, 0.5, 1.2, 2.0]
        draws = [FvdmParams(a, 5.0, 5.0, 20.0, 18.0, 0.2, 0.0) for a in (6.0, 9.0, 4.0, 8.0)]
    elif name == "single":
        leaders = [leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), 30.0)]
        taus, draws = [0.7], [THETA]
    elif name == "calibration-shaped":
        # one GA generation: 50 candidates behind each of 4 leaders over 301
        # rows, delays on the 0.1 s grid in [0, 1] s; behind the leader that
        # stops, candidates brake to a standstill
        leaders = [
            leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), 30.0),
            leader_trajectory(PiecewiseProfile(((0.0, 10.0), (8.0, 0.0), (18.0, 6.0))), 30.0),
            leader_trajectory(SinusoidProfile(6.0, 5.0, 0.9), 30.0),
            leader_trajectory(PiecewiseProfile(((0.0, 8.0),)), 30.0),
        ]
        taus = [i % 11 / 10 for i in range(200)]
        draws = [_draw_theta(rng) for _ in taus]
    else:
        leaders = [
            leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), 40.0),
            leader_trajectory(SinusoidProfile(10.0, 3.0, 0.9), 40.0),
            leader_trajectory(PiecewiseProfile(((0.0, 8.0),)), 25.0),
        ]
        if name == "delays-past-the-end":
            # 11 rows; delays of 15, 20 and 30 samples read row 0 throughout
            leaders = [replace(tr, positions=tr.positions[:11], speeds=tr.speeds[:11],
                               accels=tr.accels[:11]) for tr in leaders]
        taus = {"no-delay": [0.0] * 6,
                "delays-past-the-end": [1.5, 3.0, 2.0, 0.3, 0.0, 3.0],
                "mixed-groups": [0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.7, 1.3, 2.2, 0.4]}[name]
        draws = [_draw_theta(rng) for _ in taus]
    thetas = np.array([th.as_array() for th in draws])
    thetas[:, -1] = taus
    n = max(tr.n for tr in leaders)
    # shorter leaders are padded with their last sample, as calibration does
    lx = np.column_stack([np.pad(tr.positions, (0, n - tr.n), mode="edge") for tr in leaders])
    lv = np.column_stack([np.pad(tr.speeds, (0, n - tr.n), mode="edge") for tr in leaders])
    group = np.arange(len(taus)) % len(leaders)
    x0 = np.array([tr.positions[0] - 18.0 for tr in leaders])[group]
    v0 = np.array([tr.speeds[0] for tr in leaders])[group]
    return thetas, lx, lv, x0, v0, group


@pytest.mark.parametrize("name", [
    "no-delay", "delays-past-the-end", "mixed-groups", "braking-to-a-stop", "single",
    "calibration-shaped",
])
def test_batch_is_bit_identical_to_the_reference_loop(name):
    thetas, lx, lv, x0, v0, group = _batch_case(name)
    X_ref, V_ref = _reference_batch(thetas, lx, lv, x0, v0, group=group)
    X = simulate_followers_batch(thetas, lx, lv, x0, v0, group=group)
    assert X.shape == X_ref.shape
    assert np.array_equal(X.view(np.int64), X_ref.view(np.int64))
    if name in ("braking-to-a-stop", "calibration-shaped"):
        assert np.any(V_ref[1:] == 0.0)  # some speed clamped


@pytest.mark.parametrize("dt", [0.1, 0.04, 1 / 30])
def test_half_a_dt_squared_regroups_bit_for_bit(dt):
    """The kernel's (a dt) (0.5 dt) is ((0.5 a) dt) dt: halving is exact."""
    rng = np.random.default_rng(7)
    a = rng.choice([-1.0, 1.0], 10**5) * 10.0 ** rng.uniform(-300.0, 300.0, 10**5)
    kept = ((0.5 * a) * dt) * dt
    regrouped = (a * dt) * (0.5 * dt)
    assert np.array_equal(kept.view(np.int64), regrouped.view(np.int64))


def _valid_batch_args():
    leader = leader_trajectory(PiecewiseProfile(((0.0, 8.0),)), 2.0)
    return dict(thetas=np.array([THETA.as_array()] * 2), leader_x=leader.positions[:, None],
                leader_v=leader.speeds[:, None], x0=-18.0, v0=8.0, group=[0, 0])


@pytest.mark.parametrize("field, value", [
    ("thetas", np.array([[*THETA.as_array(), 0.0]] * 2)),
    ("thetas", np.array([THETA.as_array()[:6]] * 2)),
    ("x0", np.zeros(3)),
    ("v0", np.zeros((2, 1))),
    ("leader_x", np.empty((0, 1))),
], ids=["theta-columns-8", "theta-columns-6", "x0-shape", "v0-shape", "no-rows"])
def test_batch_rejects_bad_shapes(field, value):
    args = _valid_batch_args()
    args[field] = value
    if field == "leader_x":
        args["leader_v"] = value
    with pytest.raises(ValueError):
        simulate_followers_batch(**args)


def test_batch_memory_is_the_state_array_and_per_candidate_buffers():
    n, p, g = 2000, 400, 8
    leader = leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), (n - 1) * DT)
    lx = np.repeat(leader.positions[:, None], g, axis=1)
    lv = np.repeat(leader.speeds[:, None], g, axis=1)
    thetas = np.array([THETA.as_array()] * p)
    group = np.arange(p) % g
    tracemalloc.start()
    try:
        simulate_followers_batch(thetas, lx, lv, leader.positions[0] - 18.0, 12.0, group=group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (N, P) table would add 6.4 MB over the state array
    assert peak <= n * (2 * p + 2 * g) * 8 + 1024 * p
