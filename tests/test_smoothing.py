"""Unit tests for the symmetric exponential filter and differentiation."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from stopgo.smoothing import (
    SmoothingConfig,
    differentiate,
    sema_smooth,
    smooth_trajectory,
)


def test_constant_series_passes_through():
    x = np.full(200, 7.25)
    out = sema_smooth(x, T=0.5, dt=0.1)
    assert np.max(np.abs(out - x)) <= 1e-12


def test_linear_ramp_passes_through():
    # symmetric weights cancel the slope term exactly, up to roundoff
    t = np.arange(300) * 0.1
    x = 3.0 - 1.7 * t
    out = sema_smooth(x, T=1.0, dt=0.1)
    assert np.max(np.abs(out - x)) <= 1e-12


def test_endpoints_pass_through_exactly():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    out = sema_smooth(x, T=0.5, dt=0.1)
    assert out[0] == x[0]
    assert out[-1] == x[-1]


def test_unit_spike_center_weight():
    # 5 samples with T = dt: the symmetric window shrinks to half-width 2 at
    # the center, so the spike reads back 1 / (1 + 2 e^-1 + 2 e^-2)
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    out = sema_smooth(x, T=0.1, dt=0.1)
    expected = 1.0 / (1.0 + 2.0 * math.exp(-1.0) + 2.0 * math.exp(-2.0))
    assert out[2] == pytest.approx(expected, abs=1e-15)
    assert out[2] == pytest.approx(0.49839778846450244, abs=1e-15)

    # interior sample with the full window: normalized center weight over
    # half-width floor(3 T / dt) = 15 for T = 0.5 s
    y = np.zeros(101)
    y[50] = 1.0
    out = sema_smooth(y, T=0.5, dt=0.1)
    k = np.arange(-15, 16)
    assert out[50] == pytest.approx(1.0 / np.sum(np.exp(-np.abs(k) / 5.0)), abs=1e-15)


def test_output_bounded_by_window_extremes():
    # weights are positive and normalized, so each output sample must sit
    # inside the min/max of its own (boundary-shrunk) window
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        x = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        T = rng.uniform(0.15, 2.0)
        out = sema_smooth(x, T=T, dt=0.1)
        d_max = math.floor(3.0 * T / 0.1)
        for i in range(n):
            d = min(d_max, i, n - 1 - i)
            w = x[i - d : i + d + 1]
            assert w.min() - 1e-12 <= out[i] <= w.max() + 1e-12


def test_reversal_symmetry():
    rng = np.random.default_rng(5)
    x = rng.normal(size=87)
    out = sema_smooth(x, T=0.7, dt=0.1)
    out_rev = sema_smooth(x[::-1], T=0.7, dt=0.1)
    np.testing.assert_allclose(out, out_rev[::-1], rtol=0, atol=1e-12)


def test_affine_equivariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=120)
    a, b = 2.5, -4.0
    left = sema_smooth(a * x + b, T=1.0, dt=0.1)
    right = a * sema_smooth(x, T=1.0, dt=0.1) + b
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-10)


def test_repeated_smoothing_never_raises_variance():
    # on series long against the window; a handful of samples dominated by
    # pass-through endpoints can tick up slightly
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(80, 400)))
        once = sema_smooth(x, T=0.5, dt=0.1)
        twice = sema_smooth(once, T=0.5, dt=0.1)
        assert np.var(twice) <= np.var(once) + 1e-15


def test_tiny_window_copies_input():
    # T small enough that floor(3 T / dt) = 0: nothing to average over
    x = np.array([1.0, 5.0, -2.0])
    out = sema_smooth(x, T=0.01, dt=0.1)
    np.testing.assert_array_equal(out, x)


@pytest.mark.parametrize("bad_t", [0.0, -1.0])
def test_nonpositive_timescale_raises(bad_t):
    with pytest.raises(ValueError, match="T and dt must be positive"):
        sema_smooth(np.ones(10), T=bad_t, dt=0.1)
    with pytest.raises(ValueError, match="T and dt must be positive"):
        sema_smooth(np.ones(10), T=1.0, dt=bad_t)


def test_empty_series_raises():
    with pytest.raises(ValueError, match="cannot smooth an empty series"):
        sema_smooth(np.array([]), T=1.0, dt=0.1)
    with pytest.raises(ValueError, match="cannot differentiate an empty series"):
        differentiate(np.array([]))


def test_config_rejects_nonpositive_timescales():
    with pytest.raises(ValueError, match="t_x must be positive"):
        SmoothingConfig(t_x=0.0)
    with pytest.raises(ValueError, match="t_a must be positive"):
        SmoothingConfig(t_a=-2.0)
    cfg = SmoothingConfig()
    assert (cfg.t_x, cfg.t_v, cfg.t_a) == (0.5, 1.0, 4.0)


def test_differentiate_linear_is_exact():
    t = np.arange(50) * 0.1
    x = 4.0 + 2.5 * t
    v = differentiate(x, dt=0.1)
    np.testing.assert_allclose(v, np.full(50, 2.5), rtol=0, atol=1e-12)


def test_differentiate_sine_second_order_interior():
    dt = 0.05
    t = np.arange(0, 20, dt)
    d = differentiate(np.sin(t), dt=dt)
    # central differences: truncation error <= dt^2/6 * max|f'''|
    assert np.max(np.abs(d[1:-1] - np.cos(t[1:-1]))) < dt**2 / 6 * 1.01


def test_differentiate_single_sample_is_zero():
    np.testing.assert_array_equal(differentiate(np.array([3.0])), np.zeros(1))


def test_smooth_trajectory_returns_three_aligned_series():
    rng = np.random.default_rng(9)
    t = np.arange(400) * 0.1
    x = 10.0 * t + rng.uniform(-0.2, 0.2, t.size)
    xs, vs, accs = smooth_trajectory(x)
    assert xs.shape == vs.shape == accs.shape == x.shape
    # constant-speed motion: recovered speed should hug 10 m/s away from edges
    assert np.max(np.abs(vs[50:-50] - 10.0)) < 0.5


def test_smooth_trajectory_cuts_noise_variance():
    rng = np.random.default_rng(12)
    t = np.arange(600) * 0.1
    clean = 12.0 * t + 5.0 * np.sin(0.2 * t)
    noisy = clean + rng.uniform(-0.2, 0.2, t.size)
    a_raw = differentiate(differentiate(noisy, 0.1), 0.1)
    _, _, a_smooth = smooth_trajectory(noisy)
    # endpoints pass through unsmoothed, so compare away from them too
    assert np.var(a_smooth) < 0.1 * np.var(a_raw)
    assert np.var(a_smooth[10:-10]) < 0.01 * np.var(a_raw[10:-10])


# ---------------------------------------------------------------- blocks


def _reference_sema_smooth(series, T, dt=0.1):
    """One series smoothed sample by sample: each end sample is its own
    np.dot of the shrunk window with the kernel's middle."""
    x = np.asarray(series, dtype=float)
    n = x.size
    delta = T / dt
    d_max = math.floor(3.0 * delta)
    if d_max == 0 or n == 1:
        return x.copy()
    out = np.empty(n)
    kernel = np.exp(-np.abs(np.arange(-d_max, d_max + 1)) / delta)
    if n - d_max > d_max:
        out[d_max : n - d_max] = np.convolve(x, kernel, mode="valid") / kernel.sum()
    for i in range(min(d_max, n)):
        for idx in {i, n - 1 - i}:
            d = min(d_max, idx, n - 1 - idx)
            w = kernel[d_max - d : d_max + d + 1]
            out[idx] = np.dot(x[idx - d : idx + d + 1], w) / w.sum()
    return out


def _reference_differentiate(series, dt=0.1):
    x = np.asarray(series, dtype=float)
    return np.zeros(1) if x.size == 1 else np.gradient(x, dt)


def _reference_trajectory(x, config):
    v = _reference_differentiate(x)
    a = _reference_differentiate(v)
    return (_reference_sema_smooth(x, config.t_x), _reference_sema_smooth(v, config.t_v),
            _reference_sema_smooth(a, config.t_a))


def _each_block(fn, x, starts):
    """fn applied to each block of x alone, the results laid end to end."""
    bounds = [*starts, x.size]
    return np.concatenate([fn(x[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _column(rng, lengths):
    """Noisy positions of vehicles of the given lengths laid end to end, with
    some exact -0.0 samples, and each vehicle's first row."""
    x = np.cumsum(rng.normal(1.0, 0.5, sum(lengths)))
    x[rng.random(x.size) < 0.05] = -0.0
    return x, np.cumsum([0, *lengths[:-1]])


def _random_lengths(rng, d_max):
    # 1-3 rows, shorter than the full window, about its width, and much longer
    pool = [1, 2, 3, max(1, d_max), max(1, 2 * d_max), 2 * d_max + 1, 2 * d_max + 2,
            int(rng.integers(1, 2 * d_max + 2)), int(rng.integers(4 * d_max + 1, 6 * d_max + 50))]
    return [int(rng.choice(pool)) for _ in range(int(rng.integers(1, 9)))]


# T = 0.01 s gives d_max = 0; the others are SmoothingConfig's default widths
@pytest.mark.parametrize("T", [0.5, 1.0, 4.0, 0.01])
def test_blocks_smooth_as_each_block_alone(T):
    d_max = math.floor(3.0 * T / 0.1)
    rng = np.random.default_rng(int(100 * T))
    for _ in range(40):
        x, starts = _column(rng, _random_lengths(rng, d_max))
        ref = _each_block(lambda b: _reference_sema_smooth(b, T), x, starts)
        assert _same_bits(sema_smooth(x, T, starts=starts), ref)


def test_blocks_differentiate_as_np_gradient_on_each_block():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x, starts = _column(rng, _random_lengths(rng, 5))
        ref = _each_block(_reference_differentiate, x, starts)
        assert _same_bits(differentiate(x, starts=starts), ref)


@pytest.mark.parametrize("config", [SmoothingConfig(), SmoothingConfig(t_x=0.01, t_v=0.3, t_a=2.0)])
def test_trajectory_blocks_smooth_as_each_vehicle_alone(config):
    rng = np.random.default_rng(22)
    for _ in range(15):
        x, starts = _column(rng, _random_lengths(rng, 120))
        alone = [_each_block(lambda b, q=q: _reference_trajectory(b, config)[q], x, starts)
                 for q in range(3)]
        for got, ref in zip(smooth_trajectory(x, config, starts), alone):
            assert _same_bits(got, ref)


def test_short_first_vehicle_and_signed_zero_ends():
    # a column that opens with a 3-row vehicle; the 2-row vehicle's -0.0
    # positions pass through with their sign, as np.dot of one sample keeps it
    rng = np.random.default_rng(23)
    x, starts = _column(rng, [3, 500, 1, 2, 250])
    x[504:506] = -0.0
    for T in (0.5, 1.0, 4.0):
        out = sema_smooth(x, T, starts=starts)
        assert _same_bits(out, _each_block(lambda b: _reference_sema_smooth(b, T), x, starts))
        assert np.signbit(out[504:506]).all()


def test_wide_kernel_allocates_by_the_data():
    # d_max = 300,000 rows: the kernel reaches only as far as 50 samples need
    x = np.random.default_rng(24).normal(size=50)
    tracemalloc.start()
    try:
        out = sema_smooth(x, T=1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert _same_bits(out, _reference_sema_smooth(x, T=1e4))


@pytest.mark.parametrize("starts", [(), (1,), (0, 0, 5), (0, 7, 3), (0, 10)])
def test_starts_must_rise_from_zero_inside_the_series(starts):
    with pytest.raises(ValueError, match="starts must rise strictly from 0"):
        sema_smooth(np.ones(10), T=1.0, starts=starts)
    with pytest.raises(ValueError, match="starts must rise strictly from 0"):
        differentiate(np.ones(10), starts=starts)
