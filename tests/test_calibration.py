"""Error metrics and genetic-algorithm calibration tests."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from stopgo import calibration
from stopgo.calibration import (
    COLLISION_PENALTY,
    CalibrationResult,
    GaConfig,
    calibrate_ga,
    calibrate_pairs,
    error_abs,
    error_mixed,
    error_rel,
)
from stopgo.carfollowing import (
    PARAM_BOUNDS,
    FvdmParams,
    PiecewiseProfile,
    SinusoidProfile,
    leader_trajectory,
    simulate_followers_batch,
    simulate_string,
)
from stopgo.cli import _string_table
from stopgo.errors import DataError
from stopgo.trajectory_io import DT

THETA_TRUE = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)


def _synthetic_string(profile, duration, headway):
    """A leader that drives profile for duration seconds, and THETA_TRUE
    simulated behind it from headway meters back, at the leader's speed."""
    leader = leader_trajectory(profile, duration)
    x0 = leader.positions[0] - headway
    return simulate_string(leader, (THETA_TRUE,), x0, leader.speeds[0], 0.0)


def _pairs_table(*strings):
    """The leader-follower strings stacked as rows of one table, and each
    string's pair as (leader_row, follower_row, length) rows of it."""
    table = _string_table([tr for string in strings for tr in string])
    first = np.cumsum([0] + [2 * leader.n for leader, _ in strings])
    pairs = np.array([(row, row + leader.n, leader.n) for row, (leader, _) in zip(first, strings)])
    return table, pairs


def _make_pair(duration=40.0, v=12.0, headway=18.0):
    """THETA_TRUE behind a leader at constant speed v: its table and rows."""
    table, (rows,) = _pairs_table(_synthetic_string(PiecewiseProfile(((0.0, v),)), duration, headway))
    return table, rows


def _point_box(theta: FvdmParams) -> dict:
    """A bounds box holding theta alone, so every GA candidate is theta."""
    return {name: (value, value) for name, value in zip(PARAM_BOUNDS, theta.as_array())}


def _fitness(theta: FvdmParams, pair) -> float:
    """The GA's objective at theta: the best fitness of a population of theta alone."""
    cfg = GaConfig(population_size=3, max_generations=0)
    return calibrate_ga(*pair, bounds=_point_box(theta), cfg=cfg).mixed_error


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
    with pytest.raises(ValueError, match="equally long"):
        error_mixed(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="series must be nonempty"):
        error_mixed(np.array([]), np.array([]))
    with pytest.raises(DataError, match="observed headways must be positive"):
        error_mixed(np.ones(3), np.array([1.0, 0.0, 2.0]))


def _position_block(n: int, seed: int):
    """Leader positions, observed headways and a (n, 4) block of follower
    positions cut from a wider, taller array, as calibrate_pairs slices a
    pair's block from its kernel call."""
    rng = np.random.default_rng(seed)
    lx = np.cumsum(rng.uniform(0.5, 1.5, n))
    data = rng.uniform(5.0, 30.0, n)
    wide = lx[-1] - rng.uniform(0.0, 40.0, (n + 7, 12))
    wide[:n] = lx[:, None] - data[:, None] * rng.uniform(0.8, 1.2, (n, 12))
    return lx, data, wide[:n, 4:8]


@pytest.mark.parametrize("n", [700, 9000])  # numpy reduces in chunks of 8192
def test_block_errors_equal_each_column_alone(n):
    lx, data, X = _position_block(n, n)
    columns = [lx - X[:, p] for p in range(X.shape[1])]
    assert list(calibration._pair_fitness(lx, X, data)[0]) == [error_mixed(c, data) for c in columns]
    S = np.stack(columns)
    for error in (error_mixed, error_abs, error_rel):
        assert list(error(S, data)) == [error(c, data) for c in columns]


def test_block_fitness_penalizes_a_column_that_reaches_its_leader():
    lx, data, X = _position_block(50, 1)
    X[30, 2] = lx[30]
    fits = calibration._pair_fitness(lx, X, data)[0]
    assert fits[2] == COLLISION_PENALTY
    assert np.all(fits[[0, 1, 3]] < 1.0)


def test_block_fitness_needs_one_row_per_observed_headway():
    lx, data, X = _position_block(50, 2)
    with pytest.raises(ValueError, match="equally long"):
        calibration._pair_fitness(lx, X, data[1:])
    with pytest.raises(ValueError, match="equally long"):
        error_mixed(X.T[:, :, None], data)


def test_block_fitness_leaves_its_inputs_alone():
    lx, data, X = _position_block(50, 3)
    X[20, 1] = lx[20] + 1.0
    before = (lx.copy(), X.copy(), data.copy())
    fits = calibration._pair_fitness(lx, X, data)[0]
    for arr, copy in zip((lx, X, data), before):
        assert np.array_equal(arr, copy)
    expected = [error_mixed(lx - X[:, p], data) for p in range(X.shape[1])]
    expected[1] = COLLISION_PENALTY
    assert list(fits) == expected


def _reference_breed(ga) -> np.ndarray:
    """The next population of ga, one parent pair and one child at a time,
    drawing parents with Generator.choice."""
    rng, P = ga.rng, ga.cfg.population_size
    pop, fits = ga.pop, ga.fits
    weights = 1.0 / (fits + calibration._ROULETTE_EPS)
    probs = weights / weights.sum()
    order = np.argsort(fits, kind="stable")
    children = [pop[i].copy() for i in order[: calibration.ELITES]]
    while len(children) < P:
        i, j = rng.choice(P, size=2, p=probs)
        a, b = pop[i].copy(), pop[j].copy()
        if rng.random() < calibration.CROSSOVER_PROBABILITY:
            mask = rng.random(7) < 0.5
            swap = a[mask].copy()
            a[mask] = b[mask]
            b[mask] = swap
        for child in (a, b):
            if len(children) >= P:
                break
            mmask = rng.random(7) < calibration.MUTATION_PROBABILITY
            noise = rng.standard_normal(7) * ga.sigma
            child = np.where(mmask, child + noise, child)
            np.clip(child, ga.lo, ga.hi, out=child)
            children.append(child)
    new = np.vstack(children)
    calibration._snap_tau(new, ga.lo, ga.hi)
    return new


def _pair_gas(size: int, seed: int):
    """Two GAs of one pair, seed and population size, in the same state."""
    table, rows = _make_pair(duration=4.0)
    lo, hi = calibration._bounds_arrays(None)
    cfg = GaConfig(population_size=size)
    return [calibration._PairGa(table, rows, lo, hi, cfg, seed) for _ in range(2)]


@pytest.mark.parametrize("size", [7, 8, 13, 50])  # odd and even offspring counts
def test_breed_is_bit_identical_to_the_per_child_loop(size):
    ga, ref = _pair_gas(size, seed=size)
    scores = np.random.default_rng(100 + size)
    for _ in range(5):
        fits = scores.uniform(0.05, 2.0, size)
        fits[scores.choice(size, 2, replace=False)] = COLLISION_PENALTY
        fits[size // 2 :: 3] = fits[0]  # ties, among them the best
        fits[1] = fits.min()
        ga.fits, ref.fits = fits, fits.copy()
        ga.breed()
        ref.pop = _reference_breed(ref)
        assert ga.pop.shape == ref.pop.shape == (size, 7)
        assert np.all(ga.pop == ref.pop)
        assert ga.rng.bit_generator.state == ref.rng.bit_generator.state


def test_breed_rejects_a_nonfinite_fitness():
    ga, ref = _pair_gas(8, seed=0)
    ga.fits = ref.fits = np.r_[np.full(7, 0.5), np.nan]
    with pytest.raises(ValueError):
        _reference_breed(ref)
    with pytest.raises(ValueError):
        ga.breed()


def test_default_bounds_box():
    b = PARAM_BOUNDS
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
    calibrate_ga(*pair, bounds={"tau": (0.0, 0.0)}, cfg=cfg)  # pinning is fine
    with pytest.raises(ValueError):
        calibrate_ga(*pair, bounds={"alpha": (0.5, 5.0)}, cfg=cfg)
    with pytest.raises(ValueError):
        calibrate_ga(*pair, bounds={"v0": (1.0, 80.0)}, cfg=cfg)
    with pytest.raises(ValueError):
        calibrate_ga(*pair, bounds={"viscosity": (0.0, 1.0)}, cfg=cfg)


def test_fitness_is_mixed_error_of_simulated_headway():
    pair = _make_pair(duration=20.0)
    assert _fitness(THETA_TRUE, pair) <= 1e-12


def test_fitness_collision_penalty():
    pair = _make_pair(duration=20.0)
    # maximal attraction with a near-zero stopping distance rams the leader
    reckless = FvdmParams(10.0, 1.0, 0.1, 0.1, 70.0, 10.0, 0.0)
    assert _fitness(reckless, pair) == COLLISION_PENALTY


def test_ga_is_deterministic_for_a_seed():
    pair = _make_pair(duration=15.0)
    cfg = GaConfig(population_size=16, max_generations=12, stagnation_limit=50, rng_seed=9)
    r1 = calibrate_ga(*pair, cfg=cfg)
    r2 = calibrate_ga(*pair, cfg=cfg)
    assert r1.theta == r2.theta
    assert r1.fitness_history == r2.fitness_history
    assert r1.mixed_error == r2.mixed_error

    r3 = calibrate_ga(*pair, cfg=GaConfig(population_size=16, max_generations=12,
                                         stagnation_limit=50, rng_seed=10))
    assert r3.theta != r1.theta or r3.fitness_history != r1.fitness_history


def test_ga_history_is_monotone_and_tracks_best():
    pair = _make_pair(duration=15.0)
    cfg = GaConfig(population_size=20, max_generations=25, stagnation_limit=100, rng_seed=3)
    res = calibrate_ga(*pair, cfg=cfg)
    hist = np.asarray(res.fitness_history)
    assert hist.size == res.generations_run + 1  # initial population included
    assert np.all(np.diff(hist) <= 0.0)
    assert hist[-1] == pytest.approx(res.mixed_error, abs=1e-15)


def test_ga_stagnation_termination_with_perfect_seed():
    # a box holding only the true parameters: the first generation is already
    # the best, so the search stops once stagnation_limit generations pass
    pair = _make_pair(duration=15.0)
    cfg = GaConfig(population_size=12, max_generations=500, stagnation_limit=20, rng_seed=4)
    res = calibrate_ga(*pair, bounds=_point_box(THETA_TRUE), cfg=cfg)
    assert res.converged_by == "Stagnation"
    assert res.theta == THETA_TRUE
    assert res.mixed_error <= 1e-12
    assert res.generations_run == 20


def test_ga_max_generations_termination():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=8, max_generations=5, stagnation_limit=100, rng_seed=5)
    res = calibrate_ga(*pair, cfg=cfg)
    assert res.converged_by == "MaxGenerations"
    assert res.generations_run == 5


def test_ga_results_respect_bounds_and_tau_grid():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=14, max_generations=8, rng_seed=6)
    res = calibrate_ga(*pair, cfg=cfg)
    for name, (lo, hi) in PARAM_BOUNDS.items():
        val = getattr(res.theta, name)
        assert lo <= val <= hi
    # reaction delays live on the sampling grid
    assert res.theta.tau == pytest.approx(round(res.theta.tau / 0.1) * 0.1, abs=1e-9)


def test_ga_pinned_tau_stays_pinned():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=10, max_generations=6, rng_seed=7)
    res = calibrate_ga(*pair, bounds={"tau": (0.0, 0.0)}, cfg=cfg)
    assert res.theta.tau == 0.0


def test_result_reports_all_three_errors():
    pair = _make_pair(duration=10.0)
    cfg = GaConfig(population_size=10, max_generations=6, rng_seed=8)
    res = calibrate_ga(*pair, cfg=cfg)
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
    """Three pairs of different lengths, rows of one table, under one GA
    config; they stop at generations 8, 10 and 9, so the batch shrinks twice."""
    table, pairs = _pairs_table(
        _synthetic_string(SinusoidProfile(12.0, 2.0, 0.4), 14.0, 18.0),
        _synthetic_string(PiecewiseProfile(((0.0, 12.0),)), 8.0, 18.0),
        _synthetic_string(
            PiecewiseProfile(((0.0, 12.0), (5.0, 8.0))), 11.0, 18.0
        ),
    )
    assert len(set(pairs[:, 2])) == 3
    cfg = GaConfig(population_size=12, max_generations=10, stagnation_limit=3, rng_seed=21)
    return table, pairs, cfg


def _assert_each_pair_alone(table, pairs, cfg, joint):
    for i, (rows, res) in enumerate(zip(pairs, joint)):
        alone = calibrate_ga(table, rows, cfg=replace(cfg, rng_seed=cfg.rng_seed + i))
        assert res == alone
        assert res.rng_seed == cfg.rng_seed + i


def test_calibrate_pairs_matches_each_pair_alone():
    table, pairs, cfg = _three_pairs()
    joint = calibrate_pairs(table, pairs, cfg=cfg)
    # the pairs leave the lockstep batch at different generations
    assert [(r.generations_run, r.converged_by) for r in joint] == [
        (8, "Stagnation"), (10, "MaxGenerations"), (9, "Stagnation")]
    _assert_each_pair_alone(table, pairs, cfg, joint)


def test_each_reported_error_belongs_to_the_best_candidate():
    table, pairs, cfg = _three_pairs()
    y, v = table.local_y, table.speed
    for (lead, follow, n), res in zip(pairs, calibrate_pairs(table, pairs, cfg=cfg)):
        leader_x, data = y[lead : lead + n], y[lead : lead + n] - y[follow : follow + n]
        X = simulate_followers_batch(res.theta.as_array()[None], leader_x[:, None],
                                     v[lead : lead + n, None], y[follow], v[follow], DT,
                                     group=np.zeros(1, int))
        s = leader_x - X[:, 0]
        assert res.mixed_error == error_mixed(s, data)
        assert res.abs_error == error_abs(s, data)
        assert res.rel_error == error_rel(s, data)
    # every candidate of a box holding one reckless driver rams the leader
    reckless = FvdmParams(10.0, 1.0, 0.1, 0.1, 70.0, 10.0, 0.0)
    res = calibrate_ga(table, pairs[1], bounds=_point_box(reckless), cfg=cfg)
    assert (res.mixed_error, res.abs_error, res.rel_error) == (COLLISION_PENALTY,) * 3


def test_calibrate_pairs_splits_batches_over_the_budget(monkeypatch):
    table, pairs, cfg = _three_pairs()
    assert list(pairs[:, 2]) == [141, 81, 111]
    # the longest pair fills a call alone, as 141 x (12 + 12) = 3384 cells
    # exceed the budget; the other two (111 x (12 + 12) = 2664 cells) share one
    budget = 2700
    monkeypatch.setattr(calibration, "_BATCH_CELLS", budget)
    shapes = []
    kernel = calibration.simulate_followers_batch

    def recording(thetas, leader_x, *args, **kwargs):
        shapes.append((leader_x.shape[0], thetas.shape[0]))
        return kernel(thetas, leader_x, *args, **kwargs)

    monkeypatch.setattr(calibration, "simulate_followers_batch", recording)
    joint = calibrate_pairs(table, pairs, cfg=cfg)
    assert all(rows * cols <= budget for rows, cols in shapes)
    # every call integrates whole populations, one call per batch and
    # generation: the pairs stop after 9, 11 and 10 scored populations, and
    # after the third pair (111) stops, the second (81) runs alone
    assert all(cols % cfg.population_size == 0 for _, cols in shapes)
    assert shapes == [(141, 12), (111, 24)] * 9 + [(111, 24), (81, 12)]
    monkeypatch.undo()
    _assert_each_pair_alone(table, pairs, cfg, joint)


def test_calibrate_pairs_scores_each_population_through_error_mixed(monkeypatch):
    table, pairs, cfg = _three_pairs()
    calls = []
    mixed = calibration.error_mixed

    def counting(s_sim, s_data):
        calls.append((np.shape(s_sim), len(s_data)))
        return mixed(s_sim, s_data)

    monkeypatch.setattr(calibration, "error_mixed", counting)
    joint = calibrate_pairs(table, pairs, cfg=cfg)
    # one call per running pair and generation, on the pair's whole
    # population: the pairs stop after 9, 11 and 10 scored populations
    counts = [calls.count(((cfg.population_size, n), n)) for n in pairs[:, 2]]
    assert counts == [res.generations_run + 1 for res in joint] == [9, 11, 10]
    assert len(calls) == sum(counts)
