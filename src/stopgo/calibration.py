"""Calibration of the car-following model against observed leader-follower pairs.

The follower is re-simulated against the recorded leader from the pair's
initial state; the objective compares simulated to observed headways with a
mixed relative/absolute error that neither over-weights small headways (as a
pure relative error does) nor large ones (as a pure absolute error does).
A real-coded genetic algorithm searches the parameter box.

The GAs of all pairs run in lockstep.  Each pair keeps its own random
generator, population and stop rule, so its result does not depend on the
other pairs; but every generation, the populations of the pairs still
running are integrated together in batched kernel calls, each candidate
behind its own pair's leader.  A pair that has stopped leaves the batch.
Pairs are batched longest first, and one call holds as many pairs as fit
in a fixed budget of rows times columns, so memory stays bounded however
many pairs are calibrated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carfollowing import PARAM_BOUNDS, PARAM_ORDER, FvdmParams, simulate_followers_batch
from .errors import LengthMismatch, NonpositiveHeadway
from .trajectory_io import VehiclePair

COLLISION_PENALTY = 1.0e6
TAU_STEP = 0.1  # s, resolution of the reaction-delay gene
_ROULETTE_EPS = 1e-12
# rows x columns of one batched kernel call: 8 MiB of positions and speeds
_BATCH_CELLS = 1 << 19


def _check_series(s_sim, s_data):
    s_sim = np.asarray(s_sim, dtype=float)
    s_data = np.asarray(s_data, dtype=float)
    if s_sim.shape != s_data.shape or s_sim.ndim != 1:
        raise LengthMismatch("series must be 1-d and equally long")
    if s_sim.size == 0:
        raise LengthMismatch("series must be nonempty")
    if np.any(s_data <= 0):
        raise NonpositiveHeadway("observed headways must be positive")
    return s_sim, s_data


def error_rel(s_sim, s_data) -> float:
    """Root mean square of pointwise relative headway errors."""
    s_sim, s_data = _check_series(s_sim, s_data)
    return float(np.sqrt(np.mean(((s_sim - s_data) / s_data) ** 2)))


def error_abs(s_sim, s_data) -> float:
    """Root mean square headway error normalized by the mean headway."""
    s_sim, s_data = _check_series(s_sim, s_data)
    return float(np.sqrt(np.mean((s_sim - s_data) ** 2) / np.mean(s_data) ** 2))


def error_mixed(s_sim, s_data) -> float:
    """Mixed error: squared deviations weighted by the inverse headway,
    normalized by the mean headway.  Falls between the relative and absolute
    errors and coincides with both on constant data."""
    s_sim, s_data = _check_series(s_sim, s_data)
    scale = np.mean(np.abs(s_data))
    return float(np.sqrt(np.mean((s_sim - s_data) ** 2 / np.abs(s_data)) / scale))


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    max_generations: int = 1000
    stagnation_limit: int = 100
    crossover_probability: float = 0.9
    mutation_probability: float = 0.1
    mutation_scale: float = 0.1  # fraction of each parameter's bound range
    elitism_count: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2 or self.elitism_count >= self.population_size:
            raise ValueError("population must hold elites plus offspring")
        if self.elitism_count < 0:
            raise ValueError("elitism_count must be nonnegative")
        if self.max_generations < 0:
            raise ValueError("max_generations must be nonnegative")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be at least 1")
        if not (0 <= self.crossover_probability <= 1 and 0 <= self.mutation_probability <= 1):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass
class CalibrationResult:
    theta: FvdmParams
    mixed_error: float  # objective value at theta (penalty if it collides)
    abs_error: float
    rel_error: float
    generations_run: int
    converged_by: str  # "Stagnation" or "MaxGenerations"
    fitness_history: list  # best fitness in each generation's population
    rng_seed: int


def default_bounds() -> dict:
    """The full calibration box, copyable and overridable per parameter."""
    return dict(PARAM_BOUNDS)


def _bounds_arrays(bounds: dict | None):
    box = default_bounds()
    if bounds:
        for name, pair in bounds.items():
            if name not in box:
                raise ValueError(f"unknown parameter {name!r}")
            lo, hi = float(pair[0]), float(pair[1])
            mlo, mhi = PARAM_BOUNDS[name]
            if not (mlo <= lo <= hi <= mhi):
                raise ValueError(f"bounds for {name} must nest inside [{mlo}, {mhi}]")
            box[name] = (lo, hi)
    lo = np.array([box[n][0] for n in PARAM_ORDER])
    hi = np.array([box[n][1] for n in PARAM_ORDER])
    return lo, hi


_TAU_IDX = PARAM_ORDER.index("tau")


def _snap_tau(pop: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    # reaction delay is searched on a fixed time grid
    pop[:, _TAU_IDX] = np.round(pop[:, _TAU_IDX] / TAU_STEP) * TAU_STEP
    np.clip(pop[:, _TAU_IDX], lo[_TAU_IDX], hi[_TAU_IDX], out=pop[:, _TAU_IDX])


def _batches(pairs, sizes):
    """Index lists of the pairs to integrate in one kernel call, longest
    pairs first.  A call's rows times columns (its longest window times its
    total population) stay within _BATCH_CELLS; a pair larger than that
    runs alone."""
    order = sorted(range(len(pairs)), key=lambda i: -pairs[i].leader.n)
    batch, rows, cols = [], 0, 0
    for i in order:
        if batch and rows * (cols + sizes[i]) > _BATCH_CELLS:
            yield batch
            batch, cols = [], 0
        if not batch:
            rows = pairs[i].leader.n
        batch.append(i)
        cols += sizes[i]
    if batch:
        yield batch


def _simulate(pairs, pops, fn) -> list:
    """fn(pair, X) for every pair, from one kernel call; X is the pair's
    (pair length, population size) block of follower positions.

    Leaders shorter than the longest are padded with their last sample;
    each pair's rows are sliced back to its own length.  Only fn's results
    outlive the call, not the simulated positions.
    """
    n = max(pair.leader.n for pair in pairs)

    def padded(columns):
        return np.column_stack([np.pad(c, (0, n - len(c)), mode="edge") for c in columns])

    lx = padded([pair.leader.positions for pair in pairs])
    lv = padded([pair.leader.speeds for pair in pairs])
    sizes = [pop.shape[0] for pop in pops]
    x0 = np.repeat([pair.follower.positions[0] for pair in pairs], sizes)
    v0 = np.repeat([pair.follower.speeds[0] for pair in pairs], sizes)
    group = np.repeat(np.arange(len(pairs)), sizes)
    X = simulate_followers_batch(np.vstack(pops), lx, lv, x0, v0, pairs[0].leader.dt,
                                 group=group)
    ends = np.cumsum(sizes)
    return [fn(pair, X[: pair.leader.n, end - size : end])
            for pair, size, end in zip(pairs, sizes, ends)]


def _each_simulated(pairs, pops, fn) -> list:
    """fn(pair, X) for every pair, integrating the pairs in bounded batches."""
    out = [None] * len(pairs)
    for batch in _batches(pairs, [pop.shape[0] for pop in pops]):
        results = _simulate([pairs[i] for i in batch], [pops[i] for i in batch], fn)
        for i, result in zip(batch, results):
            out[i] = result
    return out


def _pair_fitness(pair: VehiclePair, X: np.ndarray) -> np.ndarray:
    """Mixed error per simulated follower column of X, penalty on any collision."""
    lx = pair.leader.positions
    data = pair.headways()
    fits = np.empty(X.shape[1])
    for p in range(X.shape[1]):
        s_sim = np.ascontiguousarray(lx - X[:, p])
        if s_sim.min() <= 0.0:
            fits[p] = COLLISION_PENALTY
        else:
            fits[p] = error_mixed(s_sim, data)
    return fits


def _abs_rel_errors(pair: VehiclePair, X: np.ndarray) -> tuple[float, float]:
    """Absolute and relative error of the single simulated follower in X."""
    s_sim = np.ascontiguousarray(pair.leader.positions - X[:, 0])
    if s_sim.min() <= 0.0:
        return COLLISION_PENALTY, COLLISION_PENALTY
    data = pair.headways()
    return error_abs(s_sim, data), error_rel(s_sim, data)


def evaluate_fitness(theta: FvdmParams, pair: VehiclePair) -> float:
    """Mixed headway error of the model simulated over the pair's window.

    The follower starts from the observed initial position and speed; a
    simulated collision (nonpositive headway) returns the fixed penalty.
    Pure function: identical inputs give bit-identical outputs.
    """
    return float(_simulate([pair], [theta.as_array()[None, :]], _pair_fitness)[0][0])


class _PairGa:
    """The GA state of one pair: its generator, population, best and stop rule."""

    def __init__(self, pair: VehiclePair, lo, hi, cfg: GaConfig, seed_individuals):
        self.pair = pair
        self.cfg = cfg
        self.lo, self.hi = lo, hi
        self.sigma = cfg.mutation_scale * (hi - lo)
        self.rng = np.random.default_rng(cfg.rng_seed)
        P = cfg.population_size
        self.pop = lo + self.rng.random((P, 7)) * (hi - lo)
        if seed_individuals:
            for i, theta in enumerate(seed_individuals[:P]):
                self.pop[i] = theta.as_array()
        _snap_tau(self.pop, lo, hi)
        self.fits = None
        self.best_vec = None
        self.best_fit = np.inf
        self.history = []
        self.generations = 0
        self.stagnant = 0
        self.converged_by = None  # set once the pair stops

    def breed(self) -> None:
        """Replace the scored population by the next generation."""
        cfg, rng, P = self.cfg, self.rng, self.cfg.population_size
        pop, fits = self.pop, self.fits
        self.generations += 1

        weights = 1.0 / (fits + _ROULETTE_EPS)
        probs = weights / weights.sum()
        order = np.argsort(fits, kind="stable")
        children = [pop[i].copy() for i in order[: cfg.elitism_count]]

        while len(children) < P:
            i, j = rng.choice(P, size=2, p=probs)
            a, b = pop[i].copy(), pop[j].copy()
            if rng.random() < cfg.crossover_probability:
                mask = rng.random(7) < 0.5
                swap = a[mask].copy()
                a[mask] = b[mask]
                b[mask] = swap
            for child in (a, b):
                if len(children) >= P:
                    break
                mmask = rng.random(7) < cfg.mutation_probability
                noise = rng.standard_normal(7) * self.sigma
                child = np.where(mmask, child + noise, child)
                np.clip(child, self.lo, self.hi, out=child)
                children.append(child)

        self.pop = np.vstack(children)
        _snap_tau(self.pop, self.lo, self.hi)

    def score(self, fits: np.ndarray) -> None:
        """Take the current population's fitness; track the best and the stop rule."""
        self.fits = fits
        gen_best = float(fits.min())
        self.history.append(gen_best)
        if self.best_vec is None or gen_best < self.best_fit:
            self.best_fit = gen_best
            self.best_vec = self.pop[int(np.argmin(fits))].copy()
            self.stagnant = 0
        else:
            self.stagnant += 1
        if self.stagnant >= self.cfg.stagnation_limit:
            self.converged_by = "Stagnation"
        elif self.generations >= self.cfg.max_generations:
            self.converged_by = "MaxGenerations"


def calibrate_pairs(
    pairs,
    bounds: dict | None = None,
    cfgs=None,
    seed_individuals=None,
) -> list[CalibrationResult]:
    """Fit model parameters to each leader-follower pair with a genetic search.

    Real-coded GA per pair: roulette selection on inverse fitness, uniform
    crossover, per-gene Gaussian mutation clipped to the bounds, elitism.  A
    pair stops at max_generations or once its best fitness has not improved
    for stagnation_limit consecutive generations.  The pairs' GAs run in
    lockstep: each generation integrates the running populations together,
    in kernel calls of at most _BATCH_CELLS rows times columns.  Each pair
    draws from its own generator, so its result is the same as when
    calibrated alone.  Fully deterministic for given rng seeds.

    Args:
        pairs: observed leader-follower pairs (calibration windows), all
            sampled at the same time step.
        bounds: optional {name: (lo, hi)} overrides nested in the default box.
        cfgs: GA settings, one per pair; defaults are the standard
            configuration.
        seed_individuals: optional FvdmParams injected into every pair's
            initial population (testing hook).

    Returns:
        One CalibrationResult per pair, with the best parameters ever seen.
    """
    pairs = list(pairs)
    cfgs = [GaConfig()] * len(pairs) if cfgs is None else list(cfgs)
    if len(cfgs) != len(pairs):
        raise ValueError(f"{len(pairs)} pairs need {len(pairs)} GA configs, got {len(cfgs)}")
    if not pairs:
        return []
    if len({pair.leader.dt for pair in pairs}) != 1:
        raise ValueError("pairs must share one sampling step")
    lo, hi = _bounds_arrays(bounds)
    gas = [_PairGa(pair, lo, hi, cfg, seed_individuals) for pair, cfg in zip(pairs, cfgs)]

    running = gas
    while running:
        fits = _each_simulated([ga.pair for ga in running], [ga.pop for ga in running],
                               _pair_fitness)
        for ga, f in zip(running, fits):
            ga.score(f)
        running = [ga for ga in running if ga.converged_by is None]
        for ga in running:
            ga.breed()

    errors = _each_simulated(pairs, [ga.best_vec[None, :] for ga in gas], _abs_rel_errors)
    results = []
    for ga, (abs_err, rel_err) in zip(gas, errors):
        results.append(CalibrationResult(
            theta=FvdmParams.from_array(ga.best_vec),
            mixed_error=ga.best_fit,
            abs_error=abs_err,
            rel_error=rel_err,
            generations_run=ga.generations,
            converged_by=ga.converged_by,
            fitness_history=ga.history,
            rng_seed=ga.cfg.rng_seed,
        ))
    return results


def calibrate_ga(
    pair: VehiclePair,
    bounds: dict | None = None,
    cfg: GaConfig | None = None,
    seed_individuals=None,
) -> CalibrationResult:
    """Fit model parameters to one leader-follower pair: calibrate_pairs on
    that pair alone (see there)."""
    return calibrate_pairs([pair], bounds, [cfg or GaConfig()], seed_individuals)[0]
