"""Frequency-domain string-stability analysis tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from stopgo.carfollowing import (
    FvdmParams,
    LinearHdv,
    PlatoonSpec,
    SinusoidProfile,
    equilibrium_headway,
    ov_slope,
    simulate_platoon,
)
from stopgo.cli import SYNTHETIC_THETA
from stopgo.stability import (
    INFEASIBLE_CELL,
    UNBOUNDED_CELL,
    ControllerGains,
    EquilibriumSpec,
    FrequencyGrid,
    GainGridSpec,
    LinearizedHdv,
    StabilizedCount,
    cav_complement_gain_sq,
    cav_gain_sq,
    cav_gain_sq_complex,
    cav_string_stable,
    critical_frequency,
    delay_margin,
    hdv_gain_sq,
    hdv_gain_sq_closed,
    linearize_hdv,
    n_safe,
    n_stable,
    numeric_critical_frequency,
    optimize_gains,
    platoon_critical_frequency,
    write_heatmaps,
)

DEFAULT_OMEGAS = FrequencyGrid().values()


def _scaled_diff(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


def _complex_hdv_gain_sq(lin, om):
    # reference evaluation straight from the transfer function at s = j omega
    s = 1j * np.asarray(om, dtype=float)
    e = np.exp(-s * lin.tau)
    K = lin.k2 + lin.k3 + lin.k1 * lin.lambda2
    T = (lin.k1 + s * lin.k3) * e / (s * s + s * K * e + lin.k1 * e)
    return np.abs(T) ** 2


def _complex_cav(g, lambda2, om):
    s = 1j * np.asarray(om, dtype=float)
    K = g.k2 + g.k3 + g.k1 * lambda2
    return (g.k1 + s * g.k3) / (s * s + s * K + g.k1)


# ---------------------------------------------------------------------------
# linearization

def test_linearize_hdv_gain_values():
    theta = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)
    dx = equilibrium_headway(theta, 12.0)
    eq = EquilibriumSpec(12.0, 0.0, dx)
    lin = linearize_hdv(theta, eq)
    assert lin.k1 == pytest.approx(theta.alpha * ov_slope(theta, dx), rel=1e-12)
    assert lin.k2 == theta.alpha
    assert lin.k3 == theta.beta
    assert lin.lambda2 == 0.0
    assert lin.tau == theta.tau


def test_equilibrium_spec_desired_headway():
    eq = EquilibriumSpec(15.0, 0.5, 10.0)
    assert eq.desired_headway == 17.5
    with pytest.raises(ValueError):
        EquilibriumSpec(-1.0, 0.0, 20.0)
    with pytest.raises(ValueError):
        EquilibriumSpec(10.0, -0.1, 20.0)


def test_gain_parameter_validation():
    with pytest.raises(ValueError):
        LinearizedHdv(-0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        LinearizedHdv(1.0, 0.0, 0.5)  # k2 must be positive
    with pytest.raises(ValueError):
        ControllerGains(-0.1, 0.5, 0.5)


# ---------------------------------------------------------------------------
# transfer-function magnitudes

def test_hdv_dual_formulas_agree_everywhere():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(300):
        lin = LinearizedHdv(
            k1=10 ** rng.uniform(-3, 1.3),
            k2=10 ** rng.uniform(-2, 0.7),
            k3=float(rng.choice([0.0, 10 ** rng.uniform(-3, 0.7)])),
            lambda2=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
            tau=float(rng.uniform(0.0, 3.0)),
        )
        a = hdv_gain_sq(lin, DEFAULT_OMEGAS)
        b = hdv_gain_sq_closed(lin, DEFAULT_OMEGAS)
        worst = max(worst, _scaled_diff(a, b))
        ref = _complex_hdv_gain_sq(lin, DEFAULT_OMEGAS[::40])
        assert _scaled_diff(hdv_gain_sq(lin, DEFAULT_OMEGAS[::40]), ref) < 1e-9
    assert worst <= 1e-12


def test_cav_dual_formulas_agree_everywhere():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(300):
        g = ControllerGains(
            float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
            float(rng.uniform(0.02, 2.0)),
            float(rng.uniform(0.0, 2.0)),
        )
        lam2 = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
        a = cav_gain_sq(g, lam2, DEFAULT_OMEGAS)
        b = cav_gain_sq_complex(g, lam2, DEFAULT_OMEGAS)
        worst = max(worst, _scaled_diff(a, b))
    assert worst <= 1e-12


def test_dc_gain_is_one_for_positive_k1():
    lin = LinearizedHdv(1.7, 0.9, 0.4, 0.3, 0.8)
    assert hdv_gain_sq(lin, 0.0) == 1.0
    g = ControllerGains(0.6, 0.8, 0.3)
    assert cav_gain_sq(g, 0.5, 0.0) == 1.0
    assert cav_complement_gain_sq(g, 0.5, 0.0) == 0.0


def test_dc_gain_without_spacing_feedback():
    # k1 = 0 leaves a first-order lag: |T(0)| = k3 / (k2 + k3)
    g = ControllerGains(0.0, 0.6, 0.58)
    K = 0.6 + 0.58
    assert cav_gain_sq(g, 0.0, 0.0) == pytest.approx((0.58 / K) ** 2, rel=1e-12)
    assert cav_complement_gain_sq(g, 0.0, 0.0) == pytest.approx((0.6 / K) ** 2, rel=1e-12)


def test_complement_matches_complex_reference():
    rng = np.random.default_rng(103)
    for _ in range(100):
        g = ControllerGains(float(rng.uniform(0, 1)), float(rng.uniform(0.02, 2)),
                            float(rng.uniform(0, 2)))
        lam2 = float(rng.choice([0.0, 0.7]))
        om = DEFAULT_OMEGAS[::20]
        ref = np.abs(1.0 - _complex_cav(g, lam2, om)) ** 2
        assert _scaled_diff(cav_complement_gain_sq(g, lam2, om), ref) < 1e-9


# ---------------------------------------------------------------------------
# string stability of the controlled vehicle

def test_cav_string_stable_closed_form_cases():
    # stable iff (k2 + k3 + k1 lam2)^2 - k3^2 - 2 k1 >= 0
    assert cav_string_stable(ControllerGains(0.0, 0.02, 2.0))  # k1 = 0 always holds
    assert cav_string_stable(ControllerGains(0.5, 0.9, 0.2))
    assert not cav_string_stable(ControllerGains(5.0, 0.1, 0.1))
    # lam2 enlarges the effective speed gain and can rescue a cell
    assert not cav_string_stable(ControllerGains(2.0, 0.5, 0.5), 0.0)
    assert cav_string_stable(ControllerGains(2.0, 0.5, 0.5), 1.5)


def test_cav_string_stable_matches_numeric_sup():
    rng = np.random.default_rng(104)
    for _ in range(200):
        g = ControllerGains(
            float(rng.uniform(0.0, 1.5)),
            float(rng.uniform(0.02, 2.0)),
            float(rng.uniform(0.0, 2.0)),
        )
        lam2 = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        sup = np.max(cav_gain_sq(g, lam2, DEFAULT_OMEGAS))
        assert cav_string_stable(g, lam2) == (sup <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# critical frequencies

def test_critical_frequency_closed_form_hand_value():
    lin = LinearizedHdv(2.0, 0.6, 0.1)
    assert critical_frequency(lin) == pytest.approx(math.sqrt(3.52), rel=1e-15)
    assert critical_frequency(LinearizedHdv(0.5, 2.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        critical_frequency(LinearizedHdv(1.0, 1.0, 0.5, tau=0.5))


def test_closed_and_numeric_critical_frequency_agree():
    rng = np.random.default_rng(105)
    for _ in range(50):
        lin = LinearizedHdv(
            k1=float(rng.uniform(0.05, 5.0)),
            k2=float(rng.uniform(0.1, 3.0)),
            k3=float(rng.uniform(0.0, 3.0)),
        )
        wc = critical_frequency(lin)
        wn = numeric_critical_frequency(lin)
        if wc == 0.0:
            assert wn == 0.0
        else:
            assert wn == pytest.approx(wc, rel=1e-6)


def test_numeric_critical_frequency_is_a_unit_gain_crossing():
    lin = LinearizedHdv(1.5, 0.9, 0.2, 0.0, 0.4)
    w0 = numeric_critical_frequency(lin)
    assert w0 > 0.0
    assert hdv_gain_sq(lin, w0 * (1 - 1e-4)) > 1.0
    assert hdv_gain_sq(lin, w0 * (1 + 1e-4)) < 1.0


def _synthetic_linearization():
    dx_star = equilibrium_headway(SYNTHETIC_THETA, 12.0)
    return linearize_hdv(SYNTHETIC_THETA, EquilibriumSpec(12.0, 0.0, dx_star)), dx_star


def test_delay_margin_of_synthetic_driver():
    lin, _ = _synthetic_linearization()
    margin = delay_margin(lin)
    assert margin == pytest.approx(0.4659, abs=1e-4)
    assert lin.tau > margin  # the built-in driver's 0.5 s delay is past it
    # at the margin the loop gain is one with phase -pi at the crossover
    K = lin.k2 + lin.k3
    wc = math.sqrt(0.5 * (K * K + math.sqrt(K**4 + 4.0 * lin.k1**2)))
    loop = (1j * wc * K + lin.k1) * np.exp(-1j * wc * margin) / (1j * wc) ** 2
    assert abs(loop) == pytest.approx(1.0, rel=1e-12)
    assert loop.real == pytest.approx(-1.0, rel=1e-9)


@pytest.mark.parametrize("tau, bounded", [(0.4, True), (0.5, False)])
def test_delay_margin_separates_bounded_from_growing_swing(tau, bounded):
    lin, dx_star = _synthetic_linearization()
    assert (tau < delay_margin(lin)) == bounded
    follower = LinearHdv(lin.k1, lin.k2, lin.k3, 0.0, dx_star, tau)
    spec = PlatoonSpec((follower,), SinusoidProfile(12.0, 0.4, 0.6), 12.0)
    trajs = simulate_platoon(spec, 60.0, dt=0.1)
    tail = trajs[1].speeds[trajs[1].n // 2 :]
    swing = np.max(np.abs(tail - 12.0))
    if bounded:
        assert swing == pytest.approx(0.4, abs=0.05)  # about the leader's swing
    else:
        assert swing > 10.0


def test_platoon_critical_frequency_minimum_over_unstable():
    a = LinearizedHdv(2.0, 0.6, 0.1)   # unstable, omega0 = sqrt(3.52)
    b = LinearizedHdv(3.0, 0.5, 0.1)   # unstable, higher omega0
    stable = LinearizedHdv(0.5, 2.0, 1.0)
    wa = numeric_critical_frequency(a)
    wb = numeric_critical_frequency(b)
    assert wb > wa
    assert platoon_critical_frequency([b, stable, a]) == pytest.approx(wa, rel=1e-12)
    assert platoon_critical_frequency([stable, stable]) == 0.0


# ---------------------------------------------------------------------------
# stabilization counts

def test_counts_unbounded_when_no_follower_amplifies():
    g = ControllerGains(0.2, 1.0, 0.5)
    dampers = [LinearizedHdv(0.5, 2.0, 1.0)] * 6
    assert n_stable(g, dampers).is_unbounded
    assert n_safe(g, dampers, eta=1.5).is_unbounded


def test_counts_require_string_stable_controller():
    bad = ControllerGains(5.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        n_stable(bad, [LinearizedHdv(2.0, 0.6, 0.1)])
    with pytest.raises(ValueError):
        n_safe(bad, [LinearizedHdv(2.0, 0.6, 0.1)], eta=1.0)
    with pytest.raises(ValueError):
        n_safe(ControllerGains(0.0, 1.0, 0.5), [LinearizedHdv(2.0, 0.6, 0.1)], eta=0.0)


def test_first_amplifying_prefix_sets_the_count():
    # a barely stable controller in front of one strongly unstable driver:
    # their combined gain exceeds one, so nobody behind is protected, no
    # matter how well-damped the rest of the string is
    g = ControllerGains(0.5, 0.9, 0.2)
    first = LinearizedHdv(2.5, 0.4, 0.1, 0.0, 0.7)
    damper = LinearizedHdv(0.5, 2.0, 1.0)
    lins = [first] + [damper] * 4

    fgrid = FrequencyGrid()
    om = fgrid.values(top=platoon_critical_frequency(lins, fgrid))
    head = cav_gain_sq(g, 0.0, om)
    assert np.max(head) <= 1.0
    assert np.max(head * hdv_gain_sq(first, om)) > 1.0

    got = n_stable(g, lins)
    assert got.count == 0 and got.exact
    # the same dampers without the troublemaker are no constraint at all
    assert n_stable(g, [damper] * 4).is_unbounded


def test_count_saturates_to_lower_bound_when_scan_exhausts_platoon():
    # heavy damping up front, three barely unstable drivers behind: the scan
    # runs out of platoon before the product ever exceeds one
    g = ControllerGains(0.0, 1.8, 0.02)
    mild = LinearizedHdv(1.1, 1.0, 0.4)
    got = n_stable(g, [mild] * 3)
    assert not got.exact and got.count == 3
    assert str(got) == ">=3"


def test_counts_monotone_in_follower_severity():
    # making one driver strictly worse never raises either count
    rng = np.random.default_rng(106)
    g = ControllerGains(0.0, 1.0, 0.6)
    for _ in range(20):
        k1 = float(rng.uniform(1.0, 2.5))
        k2 = float(rng.uniform(0.6, 1.2))
        k3 = float(rng.uniform(0.0, 0.4))
        base = [
            LinearizedHdv(k1, k2, k3),
            LinearizedHdv(1.2, 1.0, 0.1),
            LinearizedHdv(1.4, 0.9, 0.2),
        ]
        # lowering k2 raises |T| at every positive frequency
        worse = [LinearizedHdv(k1, k2 * 0.7, k3)] + base[1:]
        assert n_stable(g, worse).bound() <= n_stable(g, base).bound()
        assert n_safe(g, worse, 1.5).bound() <= n_safe(g, base, 1.5).bound()


def _brute_force_counts(g, lins, eta, fgrid):
    """Direct product scan: multiply per-vehicle gains term by term."""
    w0 = platoon_critical_frequency(lins, fgrid)
    if w0 == 0.0:
        return None, None
    om = fgrid.values(top=w0)
    ta = _complex_cav(g, 0.0, om)
    gains = [_complex_hdv_gain_sq(lin, om) for lin in lins]

    def count(head_sq):
        if np.any(head_sq > 1.0):
            return 0
        running = head_sq.copy()
        for n, gsq in enumerate(gains, start=1):
            running = running * gsq
            if np.any(running > 1.0):
                return n - 1
        return ("at_least", len(gains))

    return count(np.abs(ta) ** 2), count(np.abs(1.0 - ta) ** 2 / eta**2)


def _assert_count_equals(got: StabilizedCount, want):
    if want is None:
        assert got.is_unbounded
    elif isinstance(want, tuple):
        assert not got.exact and got.count == want[1]
    else:
        assert got.exact and got.count == want


def test_counts_match_direct_product_scan():
    rng = np.random.default_rng(42)
    fgrid = FrequencyGrid()
    for _ in range(20):
        n_veh = int(rng.integers(3, 12))
        lins = []
        for _ in range(n_veh):
            if rng.uniform() < 0.7:
                lins.append(
                    LinearizedHdv(
                        float(rng.uniform(1.0, 3.0)),
                        float(rng.uniform(0.3, 1.2)),
                        float(rng.uniform(0.0, 0.4)),
                        0.0,
                        float(rng.uniform(0.0, 0.8)),
                    )
                )
            else:
                lins.append(
                    LinearizedHdv(
                        float(rng.uniform(0.2, 1.0)),
                        float(rng.uniform(1.0, 2.5)),
                        float(rng.uniform(0.2, 1.0)),
                    )
                )
        while True:
            g = ControllerGains(
                float(rng.choice([0.0, rng.uniform(0.0, 0.5)])),
                float(rng.uniform(0.1, 1.8)),
                float(rng.uniform(0.02, 1.0)),
            )
            if cav_string_stable(g, 0.0):
                break
        eta = float(rng.uniform(0.5, 5.0))
        want_st, want_sf = _brute_force_counts(g, lins, eta, fgrid)
        _assert_count_equals(n_stable(g, lins, grid=fgrid), want_st)
        _assert_count_equals(n_safe(g, lins, eta, grid=fgrid), want_sf)


# ---------------------------------------------------------------------------
# gain search

def test_stabilized_count_formatting_and_bounds():
    assert str(StabilizedCount(4)) == "4"
    assert str(StabilizedCount(4, exact=False)) == ">=4"
    assert str(StabilizedCount.unbounded()) == "unbounded"
    assert StabilizedCount.unbounded().bound() == math.inf
    assert StabilizedCount(3).bound() == 3.0


def test_frequency_grid_truncation():
    grid = FrequencyGrid(1e-3, 1e2, 500)
    full = grid.values()
    assert full[0] == pytest.approx(1e-3) and full[-1] == pytest.approx(1e2)
    cut = grid.values(top=2.0)
    assert cut[-1] == pytest.approx(2.0) and cut.size == 500
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 1.0)


def test_default_gain_grid_shape():
    gspec = GainGridSpec()
    assert len(gspec.k1_values) == 21
    assert len(gspec.k2_values) == 100
    assert len(gspec.k3_values) == 100
    assert gspec.k1_values[0] == 0.0 and gspec.k1_values[-1] == pytest.approx(1.0)
    assert gspec.k2_values[0] == pytest.approx(0.02)
    assert gspec.k2_values[-1] == pytest.approx(2.0)


def test_optimize_gains_singleton_grid():
    lins = [LinearizedHdv(1.2, 1.0, 0.1)] * 5
    eq = EquilibriumSpec(15.0, 0.0, 20.0)
    gspec = GainGridSpec(k1_values=(0.0,), k2_values=(1.0,), k3_values=(0.5,))
    res = optimize_gains(lins, eq, 15.0, 25.0, 3.0, grid=gspec)
    assert res.best_gains == ControllerGains(0.0, 1.0, 0.5)
    assert res.eta == pytest.approx(5.0 / 3.0)
    g = ControllerGains(0.0, 1.0, 0.5)
    _assert_same_count(res.best_stable, n_stable(g, lins))
    _assert_same_count(res.best_safe, n_safe(g, lins, res.eta))
    assert res.n_stable_grid.shape == (1, 1, 1)


def _assert_same_count(a: StabilizedCount, b: StabilizedCount):
    assert a.count == b.count and a.exact == b.exact


def test_optimize_gains_tie_break_prefers_small_gains():
    # every follower is stable, so all feasible cells tie at unbounded and
    # the smallest (k1, k2, k3) must win
    lins = [LinearizedHdv(0.5, 2.0, 1.0)] * 3
    eq = EquilibriumSpec(15.0, 0.0, 20.0)
    gspec = GainGridSpec(k1_values=(0.0, 0.5), k2_values=(0.1, 0.2), k3_values=(0.3, 0.4))
    res = optimize_gains(lins, eq, 15.0, 25.0, 3.0, grid=gspec)
    assert res.best_gains == ControllerGains(0.0, 0.1, 0.3)
    assert res.best_stable.is_unbounded
    assert np.all(
        (res.n_stable_grid == UNBOUNDED_CELL) | (res.n_stable_grid == INFEASIBLE_CELL)
    )


def test_optimize_gains_marks_infeasible_cells():
    lins = [LinearizedHdv(1.2, 1.0, 0.1)] * 3
    eq = EquilibriumSpec(15.0, 0.0, 20.0)
    gspec = GainGridSpec(k1_values=(5.0,), k2_values=(0.1,), k3_values=(0.1,))
    with pytest.raises(ValueError):
        optimize_gains(lins, eq, 15.0, 25.0, 3.0, grid=gspec)


def test_optimize_gains_validates_band_and_disturbance():
    lins = [LinearizedHdv(1.2, 1.0, 0.1)]
    eq = EquilibriumSpec(15.0, 0.0, 20.0)
    with pytest.raises(ValueError):
        optimize_gains(lins, eq, 21.0, 25.0, 3.0)  # dx* outside the band
    with pytest.raises(ValueError):
        optimize_gains(lins, eq, 15.0, 25.0, 0.0)


def test_write_heatmaps_layout(tmp_path):
    lins = [LinearizedHdv(1.2, 1.0, 0.1)] * 4
    eq = EquilibriumSpec(15.0, 0.0, 20.0)
    gspec = GainGridSpec(
        k1_values=(0.0, 0.5), k2_values=(0.5, 1.0, 1.5), k3_values=(0.2, 0.4)
    )
    res = optimize_gains(lins, eq, 15.0, 25.0, 3.0, grid=gspec)
    paths = write_heatmaps(res, tmp_path)
    assert [p.name for p in paths] == ["heatmap_k1=0.csv", "heatmap_k1=0.5.csv"]
    lines = paths[0].read_text().strip().split("\n")
    assert lines[0] == "k2\\k3,0.2,0.4"
    assert len(lines) == 4  # header + one row per k2
    first = lines[1].split(",")
    assert first[0] == "0.5"
    cells = {int(c) for line in lines[1:] for c in line.split(",")[1:]}
    assert cells <= set(range(-2, len(lins) + 1))
