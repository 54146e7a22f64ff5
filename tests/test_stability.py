"""Frequency-domain string-stability analysis tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from stopgo.carfollowing import (
    FvdmParams,
    SinusoidProfile,
    equilibrium_headway,
    linearize_hdv,
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
    _best_index,
    _brent_root,
    _cell_counter,
    _log_gain_cumsum,
    _scan_count,
    cav_gains_sq,
    cav_string_stable,
    count_record,
    delay_margin,
    gain_axis,
    hdv_gain_sq,
    headway_slack,
    numeric_critical_frequency,
    optimize_gains,
    peak_gain_frequency,
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


def _closed_hdv_gain_sq(lin, w):
    """Closed form of hdv_gain_sq at nonzero frequencies w.

    The denominator w^2 K^2 + w^4 + k1^2 - 2 w^3 K sin(w tau)
    - 2 w^2 k1 cos(w tau) is evaluated in the factored grouping
    (k1 cos + w K sin - w^2)^2 + (w K cos - k1 sin)^2, which is
    algebraically identical but cancels before squaring; the expanded order
    loses ~5 digits near resonance peaks.
    """
    K = lin.k2 + lin.k3 + lin.k1 * lin.lambda2
    c = np.cos(w * lin.tau)
    s = np.sin(w * lin.tau)
    re = lin.k1 * c + w * K * s - w * w
    im = w * K * c - lin.k1 * s
    return (lin.k1 * lin.k1 + w * w * lin.k3 * lin.k3) / (re * re + im * im)


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
        b = _closed_hdv_gain_sq(lin, DEFAULT_OMEGAS)
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
        a = cav_gains_sq(g, lam2, DEFAULT_OMEGAS)[0]
        b = np.abs(_complex_cav(g, lam2, DEFAULT_OMEGAS)) ** 2
        worst = max(worst, _scaled_diff(a, b))
    assert worst <= 1e-12


def test_dc_gain_is_one_for_positive_k1():
    lin = LinearizedHdv(1.7, 0.9, 0.4, 0.3, 0.8)
    assert hdv_gain_sq(lin, 0.0) == 1.0
    g = ControllerGains(0.6, 0.8, 0.3)
    assert cav_gains_sq(g, 0.5, 0.0) == (1.0, 0.0)


def test_dc_gain_without_spacing_feedback():
    # k1 = 0 leaves a first-order lag: |T(0)| = k3 / (k2 + k3)
    g = ControllerGains(0.0, 0.6, 0.58)
    K = 0.6 + 0.58
    gain, complement = cav_gains_sq(g, 0.0, 0.0)
    assert gain == pytest.approx((0.58 / K) ** 2, rel=1e-12)
    assert complement == pytest.approx((0.6 / K) ** 2, rel=1e-12)


def test_complement_matches_complex_reference():
    rng = np.random.default_rng(103)
    for _ in range(100):
        g = ControllerGains(float(rng.uniform(0, 1)), float(rng.uniform(0.02, 2)),
                            float(rng.uniform(0, 2)))
        lam2 = float(rng.choice([0.0, 0.7]))
        om = DEFAULT_OMEGAS[::20]
        ref = np.abs(1.0 - _complex_cav(g, lam2, om)) ** 2
        assert _scaled_diff(cav_gains_sq(g, lam2, om)[1], ref) < 1e-9


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
        sup = np.max(cav_gains_sq(g, lam2, DEFAULT_OMEGAS)[0])
        assert cav_string_stable(g, lam2) == (sup <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# critical frequencies

def critical_frequency(lin: LinearizedHdv) -> float:
    """Largest frequency at which an undelayed driver amplifies (closed form),
    the oracle for numeric_critical_frequency.

    Only valid for tau = 0 and lambda2 = 0, where the gain exceeds one exactly
    on (0, omega0) with omega0^2 = 2*k1 - k2^2 - 2*k2*k3.  Returns 0 for a
    string-stable driver.
    """
    if lin.tau != 0.0 or lin.lambda2 != 0.0:
        raise ValueError("closed form requires tau = 0 and lambda2 = 0")
    return math.sqrt(max(0.0, 2.0 * lin.k1 - lin.k2 * lin.k2 - 2.0 * lin.k2 * lin.k3))


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


def test_brent_root_matches_scipy_brentq_to_the_bit():
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(107)
    grids = (FrequencyGrid(), FrequencyGrid(1e-2, 10.0, 500))
    roots = 0
    for tau_on, lam_on in [(False, False), (False, True), (True, False), (True, True)]:
        for _ in range(40):
            lin = LinearizedHdv(
                k1=float(rng.uniform(0.5, 5.0)),
                k2=float(rng.uniform(0.1, 1.0)),
                k3=float(rng.uniform(0.0, 0.5)),
                lambda2=float(rng.uniform(0.0, 0.5)) if lam_on else 0.0,
                tau=float(rng.uniform(0.05, 1.0)) if tau_on else 0.0,
            )
            f = lambda om: hdv_gain_sq(lin, om) - 1.0
            for grid in grids:
                w = grid.values()
                above = np.nonzero(hdv_gain_sq(lin, w) >= 1.0)[0]
                if above.size == 0 or above[-1] == len(w) - 1:
                    continue
                a, b = float(w[above[-1]]), float(w[above[-1] + 1])
                expected = brentq(f, a, b, xtol=1e-14, rtol=1e-12)
                assert _brent_root(f, a, b, xtol=1e-14, rtol=1e-12) == expected
                assert numeric_critical_frequency(lin, grid) == expected
                roots += 1
    assert roots >= 200  # most drivers are string unstable on both grids


@pytest.mark.parametrize("f", [
    lambda x: x**3 - 2.0, lambda x: math.cos(x) - x, lambda x: x**9 - 0.5,
])
def test_brent_root_matches_scipy_brentq_on_random_brackets(f):
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(108)
    for a, b in zip(rng.uniform(-3.0, 0.5, 50), rng.uniform(1.5, 4.0, 50)):
        a, b = float(a), float(b)
        expected = brentq(f, a, b, xtol=1e-14, rtol=1e-12)
        assert _brent_root(f, a, b, xtol=1e-14, rtol=1e-12) == expected


def test_brent_root_errors_and_exact_zero():
    cube = lambda x: x**3 - 2.0
    assert _brent_root(cube, 0.0, 2.0, xtol=1e-14, rtol=1e-12) == pytest.approx(2 ** (1 / 3))
    with pytest.raises(ValueError):
        _brent_root(cube, 2.0, 3.0, xtol=1e-14, rtol=1e-12)
    with pytest.raises(RuntimeError):
        _brent_root(cube, 0.0, 2.0, xtol=1e-14, rtol=1e-12, maxiter=2)
    assert _brent_root(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-14, rtol=1e-12) == 1.0


def _synthetic_linearization():
    dx_star = equilibrium_headway(SYNTHETIC_THETA, 12.0)
    return linearize_hdv(SYNTHETIC_THETA, EquilibriumSpec(12.0, 0.0, dx_star)), dx_star


def test_delay_margin_of_synthetic_driver():
    lin, _ = _synthetic_linearization()
    margin = delay_margin(lin)
    assert margin == pytest.approx(0.4659, abs=1e-4)
    assert lin.tau < margin  # the built-in driver's 0.3 s delay is below it
    # at the margin the loop gain is one with phase -pi at the crossover
    K = lin.k2 + lin.k3
    wc = math.sqrt(0.5 * (K * K + math.sqrt(K**4 + 4.0 * lin.k1**2)))
    loop = (1j * wc * K + lin.k1) * np.exp(-1j * wc * margin) / (1j * wc) ** 2
    assert abs(loop) == pytest.approx(1.0, rel=1e-12)
    assert loop.real == pytest.approx(-1.0, rel=1e-9)


def test_synthetic_driver_settles_behind_a_swinging_leader():
    """Inside its delay margin the built-in driver follows a 0.01 m/s swing
    with a swing of its own about as small; at a 0.5 s delay it fell into a
    stop-and-go cycle, straying 13.5 m/s from 12 m/s over the same tail."""
    trajs = simulate_platoon((SYNTHETIC_THETA,), SinusoidProfile(12.0, 0.01, 0.5), 12.0, 300.0)
    tail = trajs[1].speeds[-500:]  # the last 50 s
    assert np.max(np.abs(tail - 12.0)) < 0.02


@pytest.mark.parametrize("tau, bounded", [(0.4, True), (0.5, False)])
def test_delay_margin_separates_bounded_from_growing_swing(tau, bounded):
    lin, dx_star = _synthetic_linearization()
    assert (tau < delay_margin(lin)) == bounded
    follower = LinearizedHdv(lin.k1, lin.k2, lin.k3, 0.0, tau, lambda3=dx_star)
    trajs = simulate_platoon((follower,), SinusoidProfile(12.0, 0.4, 0.6), 12.0, 60.0, dt=0.1)
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


def test_peak_gain_frequency_maximizes_the_string_gain():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lins = [LinearizedHdv(rng.uniform(0.5, 3.0), rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.5),
                              rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.8))
                for _ in range(int(rng.integers(1, 6)))]
        w0 = platoon_critical_frequency(lins)
        if w0 == 0.0:
            continue
        omegas = FrequencyGrid().values(top=w0)
        total = np.zeros_like(omegas)
        for lin in lins:  # the product of the gains, summed in log space vehicle by vehicle
            total += 0.5 * np.log(hdv_gain_sq(lin, omegas))
        assert peak_gain_frequency(lins, omegas) == omegas[int(np.argmax(total))]


# ---------------------------------------------------------------------------
# stabilization counts

def _counts(g, lins, eta):
    """(stable, safe) counts of one string-stable gain cell on the default
    frequency grid, with lambda2 = 0."""
    return _cell_counter(lins, FrequencyGrid(), eta, 0.0)(g)


def test_counts_unbounded_when_no_follower_amplifies():
    g = ControllerGains(0.2, 1.0, 0.5)
    dampers = [LinearizedHdv(0.5, 2.0, 1.0)] * 6
    assert _counts(g, dampers, 1.5) == (UNBOUNDED_CELL, UNBOUNDED_CELL)
    assert count_record(UNBOUNDED_CELL, len(dampers)) == {"count": None, "exact": True}


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
    head = cav_gains_sq(g, 0.0, om)[0]
    assert np.max(head) <= 1.0
    assert np.max(head * hdv_gain_sq(first, om)) > 1.0

    assert _counts(g, lins, 1.0)[0] == 0
    assert count_record(0, len(lins)) == {"count": 0, "exact": True}
    # the same dampers without the troublemaker are no constraint at all
    assert _counts(g, [damper] * 4, 1.0)[0] == UNBOUNDED_CELL


def test_count_saturates_to_lower_bound_when_scan_exhausts_platoon():
    # heavy damping up front, three barely unstable drivers behind: the scan
    # runs out of platoon before the product ever exceeds one
    g = ControllerGains(0.0, 1.8, 0.02)
    mild = LinearizedHdv(1.1, 1.0, 0.4)
    stable, _ = _counts(g, [mild] * 3, 1.0)
    assert stable == 3
    assert count_record(stable, 3) == {"count": 3, "exact": False}


def _bound(count: int) -> float:
    return math.inf if count == UNBOUNDED_CELL else count


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
        for got, ref in zip(_counts(g, worse, 1.5), _counts(g, base, 1.5)):
            assert _bound(got) <= _bound(ref)


def _brute_force_counts(g, lins, eta, fgrid):
    """Direct product scan: multiply per-vehicle gains term by term."""
    w0 = platoon_critical_frequency(lins, fgrid)
    if w0 == 0.0:
        return UNBOUNDED_CELL, UNBOUNDED_CELL
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
        return len(gains)  # a lower bound: the platoon ran out

    return count(np.abs(ta) ** 2), count(np.abs(1.0 - ta) ** 2 / eta**2)


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
        assert _counts(g, lins, eta) == _brute_force_counts(g, lins, eta, fgrid)


# ---------------------------------------------------------------------------
# gain search

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
    assert (res.best_stable, res.best_safe) == _counts(g, lins, res.eta)
    assert res.n_stable_grid.shape == (1, 1, 1)


def test_optimize_gains_tie_break_prefers_small_gains():
    # every follower is stable, so all feasible cells tie at unbounded and
    # the smallest (k1, k2, k3) must win
    lins = [LinearizedHdv(0.5, 2.0, 1.0)] * 3
    eq = EquilibriumSpec(15.0, 0.0, 20.0)
    gspec = GainGridSpec(k1_values=(0.0, 0.5), k2_values=(0.1, 0.2), k3_values=(0.3, 0.4))
    res = optimize_gains(lins, eq, 15.0, 25.0, 3.0, grid=gspec)
    assert res.best_gains == ControllerGains(0.0, 0.1, 0.3)
    assert res.best_stable == UNBOUNDED_CELL
    assert np.all(
        (res.n_stable_grid == UNBOUNDED_CELL) | (res.n_stable_grid == INFEASIBLE_CELL)
    )


# Count grids of the pinned search below, one k1 slice after another: rows
# are k2 values, columns k3 values.  They hold every kind of cell: -2
# (infeasible), 0, exact counts and 12, the platoon length (a lower bound).
PINNED_STABLE = """
12  6  0  0  0  0  0  0  0  0    -2 -2 -2 -2 -2 -2 -2 -2 -2 -2    -2 -2 -2 -2 -2 -2 -2 -2 -2 -2
12 10  0  0  0  0  0  0  0  0    -2 -2 -2 -2 -2  0  0  0  0  0    -2 -2 -2 -2 -2 -2 -2 -2 -2 -2
12 10  4  0  0  0  0  0  0  0    -2 -2  0  0  0  0  0  0  0  0    -2 -2 -2 -2 -2 -2  0  0  0  0
12 12  6  0  0  0  0  0  0  0    -2  0  0  0  0  0  0  0  0  0    -2 -2 -2 -2  0  0  0  0  0  0
12 12  6  4  0  0  0  0  0  0     4  0  0  0  0  0  0  0  0  0    -2 -2  0  0  0  0  0  0  0  0
12 12 10  4  0  0  0  0  0  0     6  4  0  0  0  0  0  0  0  0    -2  0  0  0  0  0  0  0  0  0
12 12 10  6  4  0  0  0  0  0    10  6  4  0  0  0  0  0  0  0     0  0  0  0  0  0  0  0  0  0
12 12 12  6  4  0  0  0  0  0    12 10  6  4  0  0  0  0  0  0     0  0  0  0  0  0  0  0  0  0
12 12 12 10  6  4  0  0  0  0    12 10  6  4  4  0  0  0  0  0     0  0  0  0  0  0  0  0  0  0
12 12 12 10  6  4  0  0  0  0    12 12 10  6  4  0  0  0  0  0     0  0  0  0  0  0  0  0  0  0
"""
PINNED_SAFE = """
 0  0  0  4  4  6 10 10 12 12    -2 -2 -2 -2 -2 -2 -2 -2 -2 -2    -2 -2 -2 -2 -2 -2 -2 -2 -2 -2
 0  0  0  4  6 10 10 12 12 12    -2 -2 -2 -2 -2  6  6 10 12 12    -2 -2 -2 -2 -2 -2 -2 -2 -2 -2
 0  0  4  4  6 10 10 12 12 12    -2 -2  0  0  4  6 10 10 12 12    -2 -2 -2 -2 -2 -2  6 10 12 12
 0  0  4  4  6 10 10 12 12 12    -2  0  0  0  4  6 10 10 12 12    -2 -2 -2 -2  4  6  6 10 12 12
 0  0  4  4  6  6 10 10 12 12     0  0  0  4  4  6 10 10 12 12    -2 -2  0  0  4  6  6 10 10 12
 0  0  4  4  6  6 10 10 12 12     0  0  0  4  4  6  6 10 10 12    -2  0  0  0  4  6  6 10 10 12
 0  0  4  4  6  6 10 10 10 12     0  0  0  4  4  6  6 10 10 12     0  0  0  0  4  6  6 10 10 12
 0  0  0  4  4  6  6 10 10 12     0  0  0  4  4  6  6 10 10 10     0  0  0  0  4  4  6  6 10 10
 0  0  0  4  4  6  6 10 10 10     0  0  0  0  4  4  6  6 10 10     0  0  0  0  4  4  6  6 10 10
 0  0  0  4  4  6  6  6 10 10     0  0  0  0  4  4  6  6 10 10     0  0  0  0  4  4  6  6 10 10
"""


def _pinned_grid(text: str) -> np.ndarray:
    # rows of the text are k2 values; each row holds the three k1 slices side by side
    return np.array(text.split(), dtype=int).reshape(10, 3, 10).transpose(1, 0, 2)


# a mixed fleet, mostly string unstable, cycled to 12 followers
PINNED_FLEET = [(LinearizedHdv(1.6, 0.6, 0.2, 0.0, 0.4), LinearizedHdv(0.5, 2.0, 1.0),
                 LinearizedHdv(2.2, 0.8, 0.1, 0.0, 0.6), LinearizedHdv(1.2, 1.0, 0.1),
                 LinearizedHdv(1.9, 0.7, 0.3, 0.0, 0.3), LinearizedHdv(0.8, 1.5, 0.6))[i % 6]
                for i in range(12)]
PINNED_GRID = GainGridSpec(gain_axis(0.0, 1.0, 0.5), gain_axis(0.2, 2.0, 0.2),
                           gain_axis(0.2, 2.0, 0.2))


def test_optimize_gains_pinned_on_a_string_unstable_fleet():
    # the grids are pinned exactly so that any change to the counting or the
    # search shows
    lins, gspec = PINNED_FLEET, PINNED_GRID
    res = optimize_gains(lins, EquilibriumSpec(12.0, 0.0, 20.0), 14.0, 26.0, 3.0, grid=gspec,
                         freq_grid=FrequencyGrid(points=1000))
    np.testing.assert_array_equal(res.n_stable_grid, _pinned_grid(PINNED_STABLE))
    np.testing.assert_array_equal(res.n_safe_grid, _pinned_grid(PINNED_SAFE))
    # the first cell maximising (min(stable, safe), stable) = (4, 10): k1 0, k2 1.2, k3 0.6
    assert res.best_gains == ControllerGains(gspec.k1_values[0], gspec.k2_values[5], gspec.k3_values[2])
    assert res.eta == 2.0


def _linear_scan_count(head_log, log_cum, n_vehicles):
    """The count by a linear scan: try n = 1, 2, ... until head_log +
    log_cum[n] turns positive somewhere.  _scan_count's former loop, the
    reference for its bisection on running maxima."""
    if np.any(head_log > 0.0):
        return 0
    for n in range(1, n_vehicles + 1):
        if np.any(head_log + log_cum[n] > 0.0):
            return n - 1
    return n_vehicles


def _linear_scan_search(lins, eq, headway_min, headway_max, beta, grid, fgrid):
    """optimize_gains' count grids and best cell with every count a linear
    scan, and how many counts failed at n = 0 (a positive head term)."""
    eta = headway_slack(eq, headway_min, headway_max, beta)
    axes = (grid.k1_values, grid.k2_values, grid.k3_values)
    stable = np.full(tuple(map(len, axes)), INFEASIBLE_CELL)
    safe = stable.copy()
    w0 = platoon_critical_frequency(lins, fgrid)
    if w0 > 0.0:
        omegas = fgrid.values(top=w0)
        log_cum = _log_gain_cumsum(lins, omegas)
    at_zero = 0
    for index in np.ndindex(stable.shape):
        g = ControllerGains(*(axis[i] for axis, i in zip(axes, index)))
        if not cav_string_stable(g, eq.lambda2):
            continue
        if w0 == 0.0:
            stable[index] = safe[index] = UNBOUNDED_CELL
            continue
        gain, complement = cav_gains_sq(g, eq.lambda2, omegas)
        heads = 0.5 * np.log(gain), 0.5 * np.log(complement) - math.log(eta)
        stable[index], safe[index] = (_linear_scan_count(h, log_cum, len(lins)) for h in heads)
        at_zero += sum(bool(np.any(h > 0.0)) for h in heads)
    return stable, safe, _best_index(stable, safe), at_zero


@pytest.mark.parametrize("fleet", ["readme", "reaches-the-platoon-length", "unbounded",
                                   "fails-at-zero"])
def test_bisected_counts_match_the_linear_scan(fleet):
    """Count grids and best cell bit for bit against the linear scan."""
    readme = _synthetic_linearization()[0]
    lins, eq, band, grid, fgrid = {
        # the README example's driver cycled to 20, on two k1 slices of the default grid
        "readme": ([readme] * 20, EquilibriumSpec(12.0, 0.0, 20.0), (10.0, 30.0),
                   GainGridSpec(k1_values=(0.0, 1.0)), FrequencyGrid()),
        "reaches-the-platoon-length": (PINNED_FLEET, EquilibriumSpec(12.0, 0.0, 20.0),
                                       (14.0, 26.0), PINNED_GRID, FrequencyGrid(points=1000)),
        "unbounded": ([LinearizedHdv(0.5, 2.0, 1.0)] * 6, EquilibriumSpec(12.0, 0.0, 20.0),
                      (14.0, 26.0), PINNED_GRID, FrequencyGrid(points=1000)),
        # a narrow safe band: |1 - T_A| alone exceeds the margin at some frequency
        "fails-at-zero": (PINNED_FLEET, EquilibriumSpec(12.0, 0.0, 20.0), (19.5, 20.5),
                          PINNED_GRID, FrequencyGrid(points=1000)),
    }[fleet]
    res = optimize_gains(lins, eq, *band, 3.0, grid=grid, freq_grid=fgrid)
    stable, safe, best, at_zero = _linear_scan_search(lins, eq, *band, 3.0, grid, fgrid)
    np.testing.assert_array_equal(res.n_stable_grid, stable)
    np.testing.assert_array_equal(res.n_safe_grid, safe)
    assert res.best_index == best
    cells = np.concatenate([stable.ravel(), safe.ravel()])
    assert {"readme": (cells > 0).any(),
            "reaches-the-platoon-length": (cells == len(lins)).any(),
            "unbounded": (cells == UNBOUNDED_CELL).any() and not (cells >= 0).any(),
            "fails-at-zero": at_zero > 0}[fleet]


def test_scan_count_matches_the_linear_scan_through_infinities_and_nans():
    """A NaN sum never fails, a -inf head term never fails and a +inf one
    always does, as in the linear scan's np.any(sum > 0)."""
    rng = np.random.default_rng(24)
    special = np.array([-np.inf, np.inf, np.nan])
    for _ in range(2000):
        n_vehicles, points = int(rng.integers(0, 9)), int(rng.integers(1, 6))
        head = rng.normal(-4.0, 2.0, points)
        logs = rng.normal(0.5, 1.0, (n_vehicles + 1, points))
        logs[0] = 0.0
        for values in (head, logs[1:]):
            hit = rng.uniform(size=values.shape) < 0.04
            values[hit] = rng.choice(special, int(hit.sum()))
        with np.errstate(invalid="ignore"):  # inf - inf
            log_cum = np.cumsum(logs, axis=0)
            want = _linear_scan_count(head, log_cum, n_vehicles)
            got = _scan_count(head, np.fmax.accumulate(log_cum, axis=0), n_vehicles)
        assert got == want


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


@pytest.mark.parametrize("axis", ["k1_values", "k2_values", "k3_values"])
def test_gain_grid_rejects_gains_the_heatmaps_print_alike(axis):
    # 0.1 and 0.1000001 both print as 0.1: two k1 slices would share one
    # file, and two rows or columns one label
    with pytest.raises(ValueError, match=f"{axis[:2]} has gains .* alike as \\['0.1'\\]"):
        GainGridSpec(**{axis: (0.1, 0.1000001, 0.2)})
    GainGridSpec(**{axis: (0.1, 0.100001, 0.2)})  # 0.1 and 0.100001 print apart
