"""Error metrics and genetic-algorithm calibration tests."""
from __future__ import annotations

import numpy as np
import pytest

from stopgo import calibration
from stopgo.calibration import (
    COLLISION_PENALTY,
    CalibrationResult,
    GaConfig,
    calibrate_ga,
    calibrate_pairs,
    default_bounds,
    error_abs,
    error_mixed,
    error_rel,
    evaluate_fitness,
)
from stopgo.carfollowing import ConstantProfile, FvdmParams, PiecewiseProfile, SinusoidProfile
from stopgo.errors import LengthMismatch, NonpositiveHeadway
from stopgo.trajectory_io import generate_synthetic_pair

THETA_TRUE = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)


def _make_pair(duration=40.0, v=12.0, headway=18.0):
    return generate_synthetic_pair(THETA_TRUE, ConstantProfile(v), duration, headway)


def test_error_metrics_hand_values():
    sim = np.array([11.0, 3.0])
    data = np.array([10.0, 2.0])
    # rel: sqrt(mean((1/10)^2 + (1/2)^2) / 2)   -> sqrt(0.13)
    assert error_rel(sim, data) == pytest.approx(0.36055512754639896, abs=1e-15)
    # abs: sqrt(mean(1,1)) / mean(10,10) with flat data
    assert error_abs(np.array([11.0, 11.0]), np.array([10.0, 10.0])) == pytest.approx(
        0.1, abs=1e-15
    )
    # mixed: sqrt(mean(1/10, 1/2) / mean(10, 2)) = sqrt(0.3 / 6)
    assert error_mixed(sim, data) == pytest.approx(0.22360679774997896, abs=1e-15)


def test_error_metrics_zero_on_identical_series():
    s = np.array([3.0, 4.0, 5.5])
    assert error_rel(s, s) == 0.0
    assert error_abs(s, s) == 0.0
    assert error_mixed(s, s) == 0.0


def test_error_metric_input_validation():
    with pytest.raises(LengthMismatch):
        error_mixed(np.ones(3), np.ones(4))
    with pytest.raises(LengthMismatch):
        error_mixed(np.array([]), np.array([]))
    with pytest.raises(NonpositiveHeadway):
        error_mixed(np.ones(3), np.array([1.0, 0.0, 2.0]))


def test_default_bounds_box():
    b = default_bounds()
    assert b["alpha"] == (1.0, 10.0)
    assert b["beta"] == (1.0, 10.0)
    assert b["b_c"] == (0.1, 8.0)
    assert b["b_f"] == (0.1, 100.0)
    assert b["v0"] == (1.0, 70.0)
    assert b["m"] == (1e-5, 10.0)
    assert b["tau"] == (0.0, 3.0)


def test_bounds_overrides_must_nest_in_master_box():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=8, max_generations=2, rng_seed=1)
    calibrate_ga(pair, bounds={"tau": (0.0, 0.0)}, cfg=cfg)  # pinning is fine
    with pytest.raises(ValueError):
        calibrate_ga(pair, bounds={"alpha": (0.5, 5.0)}, cfg=cfg)
    with pytest.raises(ValueError):
        calibrate_ga(pair, bounds={"v0": (1.0, 80.0)}, cfg=cfg)
    with pytest.raises(ValueError):
        calibrate_ga(pair, bounds={"viscosity": (0.0, 1.0)}, cfg=cfg)


def test_fitness_is_mixed_error_of_simulated_headway():
    pair = _make_pair(duration=20.0)
    assert evaluate_fitness(THETA_TRUE, pair) <= 1e-12


def test_fitness_collision_penalty():
    pair = _make_pair(duration=20.0)
    # maximal attraction with a near-zero stopping distance rams the leader
    reckless = FvdmParams(10.0, 1.0, 0.1, 0.1, 70.0, 10.0, 0.0)
    assert evaluate_fitness(reckless, pair) == COLLISION_PENALTY


def test_ga_is_deterministic_for_a_seed():
    pair = _make_pair(duration=15.0)
    cfg = GaConfig(population_size=16, max_generations=12, stagnation_limit=50, rng_seed=9)
    r1 = calibrate_ga(pair, cfg=cfg)
    r2 = calibrate_ga(pair, cfg=cfg)
    assert r1.theta == r2.theta
    assert r1.fitness_history == r2.fitness_history
    assert r1.mixed_error == r2.mixed_error

    r3 = calibrate_ga(pair, cfg=GaConfig(population_size=16, max_generations=12,
                                         stagnation_limit=50, rng_seed=10))
    assert r3.theta != r1.theta or r3.fitness_history != r1.fitness_history


def test_ga_history_is_monotone_and_tracks_best():
    pair = _make_pair(duration=15.0)
    cfg = GaConfig(population_size=20, max_generations=25, stagnation_limit=100, rng_seed=3)
    res = calibrate_ga(pair, cfg=cfg)
    hist = np.asarray(res.fitness_history)
    assert hist.size == res.generations_run + 1  # initial population included
    assert np.all(np.diff(hist) <= 0.0)
    assert hist[-1] == pytest.approx(res.mixed_error, abs=1e-15)


def test_ga_stagnation_termination_with_perfect_seed():
    pair = _make_pair(duration=15.0)
    cfg = GaConfig(population_size=12, max_generations=500, stagnation_limit=20, rng_seed=4)
    res = calibrate_ga(pair, cfg=cfg, seed_individuals=[THETA_TRUE])
    assert res.converged_by == "Stagnation"
    assert res.mixed_error <= 1e-12
    assert res.generations_run <= 25


def test_ga_max_generations_termination():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=8, max_generations=5, stagnation_limit=100, rng_seed=5)
    res = calibrate_ga(pair, cfg=cfg)
    assert res.converged_by == "MaxGenerations"
    assert res.generations_run == 5


def test_ga_results_respect_bounds_and_tau_grid():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=14, max_generations=8, rng_seed=6)
    res = calibrate_ga(pair, cfg=cfg)
    b = default_bounds()
    for name, (lo, hi) in b.items():
        val = getattr(res.theta, name)
        assert lo <= val <= hi
    # reaction delays live on the sampling grid
    assert res.theta.tau == pytest.approx(round(res.theta.tau / 0.1) * 0.1, abs=1e-9)


def test_ga_pinned_tau_stays_pinned():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=10, max_generations=6, rng_seed=7)
    res = calibrate_ga(pair, bounds={"tau": (0.0, 0.0)}, cfg=cfg)
    assert res.theta.tau == 0.0


def test_result_reports_all_three_errors():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=10, max_generations=6, rng_seed=8)
    res = calibrate_ga(pair, cfg=cfg)
    assert isinstance(res, CalibrationResult)
    assert res.mixed_error >= 0 and res.abs_error >= 0 and res.rel_error >= 0
    assert res.rng_seed == 8


@pytest.mark.parametrize("settings", [
    {"max_generations": -3},
    {"stagnation_limit": 0},
])
def test_ga_config_rejects_invalid_settings(settings):
    with pytest.raises(ValueError):
        GaConfig(**settings)


def _three_pairs():
    """Three pairs of different lengths; the second stops on stagnation."""
    pairs = [
        generate_synthetic_pair(THETA_TRUE, SinusoidProfile(12.0, 2.0, 0.4), 14.0, 18.0),
        generate_synthetic_pair(THETA_TRUE, ConstantProfile(12.0), 8.0, 18.0),
        generate_synthetic_pair(
            THETA_TRUE, PiecewiseProfile(((0.0, 12.0), (5.0, 8.0))), 11.0, 18.0
        ),
    ]
    assert len({pair.leader.n for pair in pairs}) == 3
    cfgs = [
        GaConfig(population_size=12, max_generations=10, stagnation_limit=100, rng_seed=21),
        GaConfig(population_size=9, max_generations=10, stagnation_limit=1, rng_seed=22),
        GaConfig(population_size=15, max_generations=10, stagnation_limit=100, rng_seed=23),
    ]
    return pairs, cfgs


def _assert_each_pair_alone(pairs, cfgs, joint):
    for pair, cfg, res in zip(pairs, cfgs, joint):
        alone = calibrate_ga(pair, cfg=cfg)
        assert res.theta == alone.theta
        assert res.mixed_error == alone.mixed_error
        assert res.abs_error == alone.abs_error
        assert res.rel_error == alone.rel_error
        assert res.fitness_history == alone.fitness_history
        assert res.generations_run == alone.generations_run
        assert res.converged_by == alone.converged_by
        assert res.rng_seed == alone.rng_seed


def test_calibrate_pairs_matches_each_pair_alone():
    pairs, cfgs = _three_pairs()
    joint = calibrate_pairs(pairs, cfgs=cfgs)
    # the second pair leaves the batch early, the others run to the end
    assert [r.converged_by for r in joint] == ["MaxGenerations", "Stagnation", "MaxGenerations"]
    assert joint[1].generations_run < 10
    _assert_each_pair_alone(pairs, cfgs, joint)


def test_calibrate_pairs_splits_batches_over_the_budget(monkeypatch):
    pairs, cfgs = _three_pairs()
    assert [pair.leader.n for pair in pairs] == [141, 81, 111]
    # the longest pair (141 x 12) fills a call alone; the other two
    # (111 x (15 + 9) = 2664 cells) share one
    budget = 2700
    monkeypatch.setattr(calibration, "_BATCH_CELLS", budget)
    shapes = []
    kernel = calibration.simulate_followers_batch

    def recording(thetas, leader_x, *args, **kwargs):
        shapes.append((leader_x.shape[0], thetas.shape[0]))
        return kernel(thetas, leader_x, *args, **kwargs)

    monkeypatch.setattr(calibration, "simulate_followers_batch", recording)
    joint = calibrate_pairs(pairs, cfgs=cfgs)
    assert all(rows * cols <= budget for rows, cols in shapes)
    assert {(141, 12), (111, 24), (111, 15)} <= set(shapes)
    monkeypatch.undo()
    _assert_each_pair_alone(pairs, cfgs, joint)
