"""Car-following model, speed profile, integrator, and platoon tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from stopgo.carfollowing import (
    Cav,
    ConstantProfile,
    FvdmParams,
    Hdv,
    LinearHdv,
    PiecewiseProfile,
    PlatoonSpec,
    SinusoidProfile,
    equilibrium_headway,
    fvdm_acceleration,
    leader_trajectory,
    optimal_velocity,
    ov_slope,
    simulate_follower,
    simulate_followers_batch,
    simulate_platoon,
    v_max,
)
from stopgo.errors import CollisionDetected, InfeasibleEquilibrium
from stopgo.stability import ControllerGains

THETA = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)

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
    with pytest.raises(InfeasibleEquilibrium):
        equilibrium_headway(THETA, v_max(THETA))
    with pytest.raises(InfeasibleEquilibrium):
        equilibrium_headway(THETA, -1.0)


def test_param_bounds_enforced():
    with pytest.raises(ValueError):
        FvdmParams(0.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)  # alpha below box
    with pytest.raises(ValueError):
        FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 3.5)  # tau above box


def test_acceleration_formula_by_hand():
    h, vown, dv = 17.0, 11.0, -0.8
    expected = THETA.alpha * (optimal_velocity(THETA, h) - vown) + THETA.beta * dv
    assert fvdm_acceleration(THETA, h, vown, dv) == pytest.approx(expected, rel=1e-15)


def test_constant_profile_leader_kinematics():
    tr = leader_trajectory(ConstantProfile(12.0), 10.0)
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
    t = tr.times()
    exact = 10.0 * t + (2.0 / 0.7) * (1.0 - np.cos(0.7 * t))
    assert np.max(np.abs(tr.positions - exact)) < dt**2


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_follower_holds_equilibrium(tau):
    th = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, tau)
    dx = equilibrium_headway(th, 12.0)
    leader = leader_trajectory(ConstantProfile(12.0), 60.0)
    fol = simulate_follower(th, leader, leader.positions[0] - dx, 12.0)
    np.testing.assert_allclose(fol.speeds, 12.0, atol=1e-9)
    np.testing.assert_allclose(leader.positions - fol.positions, dx, atol=1e-9)


def test_speed_clamps_at_zero_and_position_holds():
    # stopped leader ahead: the follower brakes to rest, never reverses, and
    # its position freezes across every clamped step (it may creep forward
    # again later once the standing gap exceeds the stopping headway)
    leader = leader_trajectory(ConstantProfile(0.0), 20.0, x0=0.0)
    fol = simulate_follower(THETA, leader, -5.0, 10.0)
    assert np.min(fol.speeds) == 0.0
    assert np.all(fol.speeds >= 0.0)
    assert np.all(np.diff(fol.positions) >= 0.0)
    both_zero = (fol.speeds[:-1] == 0.0) & (fol.speeds[1:] == 0.0)
    assert np.any(both_zero)
    np.testing.assert_array_equal(
        fol.positions[1:][both_zero], fol.positions[:-1][both_zero]
    )


def test_collision_raises_with_partial_arrays():
    leader = leader_trajectory(ConstantProfile(0.0), 20.0, x0=0.0)
    with pytest.raises(CollisionDetected) as exc:
        simulate_follower(THETA, leader, -2.0, 12.0)
    err = exc.value
    xs, vs, accs = err.partial
    assert err.vehicle_index == 1  # the follower sits one slot behind
    assert len(xs) == err.frame + 1
    assert xs[-1] >= leader.positions[err.frame]


def test_batch_matches_scalar_followers():
    rng = np.random.default_rng(30)
    leader = leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), 40.0)
    thetas = []
    for _ in range(4):
        th = FvdmParams(
            float(rng.uniform(1, 3)),
            float(rng.uniform(1, 3)),
            3.0,
            20.0,
            18.0,
            0.08,
            float(rng.choice([0.0, 0.3, 0.5])),
        )
        thetas.append(th)
    dx0 = 18.0
    batch = simulate_followers_batch(
        np.array([th.as_array() for th in thetas]),
        leader.positions,
        leader.speeds,
        np.full(4, leader.positions[0] - dx0),
        np.full(4, 12.0),
    )
    assert batch.shape == (leader.n, 4)
    for i, th in enumerate(thetas):
        single = simulate_follower(th, leader, leader.positions[0] - dx0, 12.0)
        np.testing.assert_allclose(batch[:, i], single.positions, rtol=0, atol=1e-12)


def test_platoon_structure_and_equilibrium_hold():
    vehicles = (
        Cav(ControllerGains(0.5, 1.0, 0.5), 0.0, 20.0),
        Hdv(THETA),
        LinearHdv(1.0, 1.5, 0.8, 0.0, 20.0, tau=0.2),
    )
    spec = PlatoonSpec(vehicles, ConstantProfile(12.0), 12.0)
    trajs = simulate_platoon(spec, 40.0)
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
    spec = PlatoonSpec(vehicles, prof, 12.0)
    with pytest.raises(CollisionDetected) as exc:
        simulate_platoon(spec, 60.0)
    err = exc.value
    assert err.vehicle_index == 1
    assert isinstance(err.partial, list) and len(err.partial) == 2
    lengths = {tr.n for tr in err.partial}
    assert len(lengths) == 1
    assert err.partial[0].end_frame == err.frame


def test_unstable_linear_follower_amplifies_matching_transfer_gain():
    # k1=2, k2=0.6, k3=0.1, no delay: |T(j w)|^2 = (k1^2 + w^2 k3^2) /
    # ((k1 - w^2)^2 + w^2 (k2+k3)^2); at w=1 that is 4.01/1.49
    k1, k2, k3 = 2.0, 0.6, 0.1
    w = 1.0
    gain = math.sqrt((k1**2 + w**2 * k3**2) / ((k1 - w**2) ** 2 + w**2 * (k2 + k3) ** 2))
    assert gain > 1.0

    dt = 0.01
    eps = 0.5
    vehicles = (LinearHdv(k1, k2, k3, 0.0, 20.0),)
    spec = PlatoonSpec(vehicles, SinusoidProfile(15.0, eps, w), 15.0)
    trajs = simulate_platoon(spec, 300.0, dt=dt)
    tail = trajs[0].times() > 200.0
    amp_leader = np.max(np.abs(trajs[0].speeds[tail] - 15.0))
    amp_follow = np.max(np.abs(trajs[1].speeds[tail] - 15.0))
    assert amp_follow / amp_leader == pytest.approx(gain, rel=0.05)


def test_grouped_batch_matches_separate_leaders():
    rng = np.random.default_rng(31)
    leaders = [
        leader_trajectory(SinusoidProfile(12.0, 2.0, 0.4), 40.0),
        leader_trajectory(SinusoidProfile(10.0, 3.0, 0.9), 40.0),
        leader_trajectory(ConstantProfile(8.0), 25.0),
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
        alone = simulate_followers_batch(thetas[cols], tr.positions, tr.speeds,
                                         tr.positions[0] - 18.0, tr.speeds[0])
        assert np.array_equal(joint[: tr.n, cols], alone)


def test_grouped_batch_needs_valid_groups():
    leader = leader_trajectory(ConstantProfile(8.0), 2.0)
    lx = np.column_stack([leader.positions, leader.positions])
    lv = np.column_stack([leader.speeds, leader.speeds])
    thetas = np.array([THETA.as_array()] * 2)
    with pytest.raises(ValueError):
        simulate_followers_batch(thetas, lx, lv, -18.0, 8.0)
    with pytest.raises(ValueError):
        simulate_followers_batch(thetas, lx, lv, -18.0, 8.0, group=[0, 2])
