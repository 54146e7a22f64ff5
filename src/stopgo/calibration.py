"""Calibration of the car-following model against observed leader-follower pairs.

The follower is re-simulated against the recorded leader from the pair's
initial state; the objective compares simulated to observed headways with a
mixed relative/absolute error that neither over-weights small headways (as a
pure relative error does) nor large ones (as a pure absolute error does).
A real-coded genetic algorithm searches the parameter box.

A pair is a row range of the trajectory table calibrate read: the leader's
and the follower's first rows and the window's length (pairs_from_index).
calibrate_pairs runs one GA per pair under one GaConfig, pair i seeded with
rng_seed + i, and the GAs of all pairs in lockstep.  Each pair keeps its own
random generator, population and stop rule, so its result does not depend
on the other pairs; but every generation, the populations of the pairs still
running are integrated together in batched kernel calls, each candidate
behind its own pair's leader, whose rows one fancy index gathers from the
table.  A pair that has stopped leaves the batch.  Pairs are batched
longest first, and one call holds as many pairs as fit in a fixed budget of
rows times columns, so memory stays bounded however many pairs are
calibrated: a call's one state array holds, row by row, its candidates'
positions and speeds and the batch's leader columns.  Each pair is scored
on its block of the call by one error_mixed call over all its candidates,
and a new best takes its absolute and relative errors from its scored
headway row, not from a second simulation.
calibrate_ga is calibrate_pairs on one pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carfollowing import PARAM_BOUNDS, PARAM_ORDER, FvdmParams, simulate_followers_batch
from .errors import DataError
from .trajectory_io import DT, TrajectoryTable

COLLISION_PENALTY = 1.0e6
TAU_STEP = 0.1  # s, resolution of the reaction-delay gene
_ROULETTE_EPS = 1e-12
# rows x candidate columns of one batched kernel call: its state array holds
# 8 MiB of positions and speeds, plus the batch's leader positions and speeds
_BATCH_CELLS = 1 << 19


def _check_series(s_sim, s_data):
    """s_sim as one series or a (candidates, samples) block, s_data as the
    observed series; each error reduces over the last axis."""
    s_sim = np.asarray(s_sim, dtype=float)
    s_data = np.asarray(s_data, dtype=float)
    if s_data.ndim != 1 or s_sim.ndim not in (1, 2) or s_sim.shape[-1:] != s_data.shape:
        raise ValueError("series must be 1-d, or rows of a block, and equally long")
    if s_data.size == 0:
        raise ValueError("series must be nonempty")
    if np.any(s_data <= 0):
        raise DataError("observed headways must be positive")
    return s_sim, s_data


def _value(err: np.ndarray):
    """A float for one series, the array of row errors for a block."""
    return float(err) if err.ndim == 0 else err


def error_rel(s_sim, s_data):
    """Root mean square of pointwise relative headway errors."""
    s_sim, s_data = _check_series(s_sim, s_data)
    return _value(np.sqrt(np.mean(((s_sim - s_data) / s_data) ** 2, axis=-1)))


def error_abs(s_sim, s_data):
    """Root mean square headway error normalized by the mean headway."""
    s_sim, s_data = _check_series(s_sim, s_data)
    return _value(np.sqrt(np.mean((s_sim - s_data) ** 2, axis=-1) / np.mean(s_data) ** 2))


def error_mixed(s_sim, s_data):
    """Mixed error: squared deviations weighted by the inverse headway,
    normalized by the mean headway; between the relative and absolute errors,
    equal to both on constant data.  The GA scores a population block with it."""
    s_sim, s_data = _check_series(s_sim, s_data)
    d = np.subtract(s_sim, s_data)
    np.square(d, out=d)
    np.divide(d, np.abs(s_data), out=d)
    return _value(np.sqrt(np.mean(d, axis=-1) / np.mean(np.abs(s_data))))


CROSSOVER_PROBABILITY = 0.9
MUTATION_PROBABILITY = 0.1  # per gene
MUTATION_SCALE = 0.1  # mutation sigma as a fraction of each parameter's bound range
ELITES = 2  # best candidates carried unchanged into the next generation


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    max_generations: int = 1000
    stagnation_limit: int = 100
    rng_seed: int = 0  # the seed of pair 0; calibrate_pairs seeds pair i with rng_seed + i

    def __post_init__(self):
        if self.population_size <= ELITES:
            raise ValueError(f"population must hold {ELITES} elites plus offspring")
        if self.max_generations < 0:
            raise ValueError("max_generations must be nonnegative")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be at least 1")


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


def _bounds_arrays(bounds: dict | None):
    box = dict(PARAM_BOUNDS)
    if bounds:
        for name, pair in bounds.items():
            if name not in box:
                raise ValueError(f"unknown parameter {name!r}")
            lo, hi = float(pair[0]), float(pair[1])
            mlo, mhi = PARAM_BOUNDS[name]
            if not (mlo <= lo <= hi <= mhi):
                raise ValueError(f"{name} must nest inside [{mlo}, {mhi}]")
            box[name] = (lo, hi)
    lo = np.array([box[n][0] for n in PARAM_ORDER])
    hi = np.array([box[n][1] for n in PARAM_ORDER])
    return lo, hi


_TAU_IDX = PARAM_ORDER.index("tau")


def _snap_tau(pop: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    # reaction delay is searched on a fixed time grid
    pop[:, _TAU_IDX] = np.round(pop[:, _TAU_IDX] / TAU_STEP) * TAU_STEP
    np.clip(pop[:, _TAU_IDX], lo[_TAU_IDX], hi[_TAU_IDX], out=pop[:, _TAU_IDX])


def _batches(gas, size: int):
    """The pair GAs to integrate in one kernel call, longest pairs first.  A
    call's rows times columns (its longest window times size columns per
    pair) stay within _BATCH_CELLS; a pair larger than that runs alone."""
    batch, rows = [], 0
    for ga in sorted(gas, key=lambda ga: -ga.n):
        if batch and rows * size * (len(batch) + 1) > _BATCH_CELLS:
            yield batch
            batch = []
        if not batch:
            rows = ga.n
        batch.append(ga)
    if batch:
        yield batch


def _score_batch(table: TrajectoryTable, batch, size: int) -> None:
    """Integrate the pair GAs' populations of size candidates in one kernel
    call and score each on its block.  The leader columns are one fancy
    index into the table's rows; a leader shorter than the batch's longest
    repeats its last row, and its block is sliced back after."""
    n = batch[0].n  # the batch's longest pair comes first
    lead = np.array([ga.lead for ga in batch])
    rows = lead + np.minimum(np.arange(n)[:, None], np.array([ga.n for ga in batch]) - 1)
    follow = np.repeat([ga.follow for ga in batch], size)
    group = np.repeat(np.arange(len(batch)), size)
    X = simulate_followers_batch(np.vstack([ga.pop for ga in batch]), table.local_y[rows],
                                 table.speed[rows], table.local_y[follow], table.speed[follow],
                                 DT, group=group)
    for col, ga in enumerate(batch):
        ga.score(X[: ga.n, col * size : (col + 1) * size])


def _pair_fitness(leader_x: np.ndarray, X: np.ndarray, data: np.ndarray):
    """error_mixed of each simulated follower column of X behind leader_x,
    COLLISION_PENALTY for one whose headway reaches zero; with the headway
    block S it scored, one row per column, and the collided mask."""
    # C order makes each candidate's headways a contiguous row, which numpy
    # reduces to the same bits as that row alone
    S = np.subtract(leader_x, X.T, order="C")
    collided = S.min(axis=-1) <= 0.0
    return np.where(collided, COLLISION_PENALTY, error_mixed(S, data)), S, collided


class _PairGa:
    """The GA state of one pair: its rows, generator, population, best and stop rule."""

    def __init__(self, table: TrajectoryTable, pair, lo, hi, cfg: GaConfig, seed: int):
        self.lead, self.follow, self.n = map(int, pair)
        self.leader_x = table.local_y[self.lead : self.lead + self.n]
        self.data = self.leader_x - table.local_y[self.follow : self.follow + self.n]
        self.cfg = cfg
        self.seed = seed
        self.lo, self.hi = lo, hi
        self.sigma = MUTATION_SCALE * (hi - lo)
        self.rng = np.random.default_rng(seed)
        self.pop = lo + self.rng.random((cfg.population_size, len(PARAM_ORDER))) * (hi - lo)
        _snap_tau(self.pop, lo, hi)
        self.fits = None
        self.best_vec = None
        self.best_fit = np.inf
        self.best_abs_rel = None  # absolute and relative error of best_vec
        self.history = []
        self.generations = 0
        self.stagnant = 0
        self.converged_by = None  # set once the pair stops

    def breed(self) -> None:
        """Replace the scored population by the next generation.

        The ELITES best candidates come first, then the offspring in pairs.
        Each pair draws, in this order: random(2) to pick its parents by
        roulette on inverse fitness; random() for the crossover gate;
        random(7) for the crossover mask, only if the gate passes; then for
        each child random(7) for its mutation mask and standard_normal(7)
        for its noise.  For an odd offspring count the last pair draws for
        its first child only.  The children are then built together from
        these draws.
        """
        rng, P = self.rng, self.cfg.population_size
        pop, fits = self.pop, self.fits
        self.generations += 1

        weights = 1.0 / (fits + _ROULETTE_EPS)
        probs = weights / weights.sum()
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("roulette probabilities must be finite and nonnegative")
        # the picks Generator.choice(P, p=probs) makes from the same uniforms
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        order = np.argsort(fits, kind="stable")

        m = P - ELITES
        pairs = (m + 1) // 2
        picks = np.empty((pairs, 2))
        genes = len(PARAM_ORDER)
        cross = np.ones((pairs, genes))  # 1.0 never swaps a gene
        mutate = np.empty((m, genes))
        noise = np.empty((m, genes))
        for k in range(pairs):
            rng.random(out=picks[k])
            if rng.random() < CROSSOVER_PROBABILITY:
                rng.random(out=cross[k])
            for c in range(2 * k, min(2 * k + 2, m)):
                rng.random(out=mutate[c])
                rng.standard_normal(out=noise[c])

        i, j = cdf.searchsorted(picks, side="right").T
        swap = cross < 0.5
        kids = np.stack([np.where(swap, pop[j], pop[i]), np.where(swap, pop[i], pop[j])],
                        axis=1).reshape(-1, genes)[:m]
        kids = np.where(mutate < MUTATION_PROBABILITY, kids + noise * self.sigma, kids)
        np.clip(kids, self.lo, self.hi, out=kids)
        self.pop = np.vstack([pop[order[:ELITES]], kids])
        _snap_tau(self.pop, self.lo, self.hi)

    def score(self, X: np.ndarray) -> None:
        """Score the current population from X, its block of simulated
        follower positions; track the best and the stop rule.  A new best
        takes its absolute and relative errors from its own headway row."""
        fits, S, collided = _pair_fitness(self.leader_x, X, self.data)
        self.fits = fits
        gen_best = float(fits.min())
        self.history.append(gen_best)
        if self.best_vec is None or gen_best < self.best_fit:
            j = int(np.argmin(fits))
            self.best_fit = gen_best
            self.best_vec = self.pop[j].copy()
            self.best_abs_rel = ((COLLISION_PENALTY, COLLISION_PENALTY) if collided[j]
                                 else (error_abs(S[j], self.data), error_rel(S[j], self.data)))
            self.stagnant = 0
        else:
            self.stagnant += 1
        if self.stagnant >= self.cfg.stagnation_limit:
            self.converged_by = "Stagnation"
        elif self.generations >= self.cfg.max_generations:
            self.converged_by = "MaxGenerations"


def calibrate_pairs(table: TrajectoryTable, pairs, bounds: dict | None = None,
                    cfg: GaConfig | None = None) -> list[CalibrationResult]:
    """Fit model parameters to each leader-follower pair with a genetic search.

    Real-coded GA per pair: roulette selection on inverse fitness, uniform
    crossover, per-gene Gaussian mutation clipped to the bounds, elitism.  A
    pair stops at max_generations or once its best fitness has not improved
    for stagnation_limit consecutive generations.  The pairs' GAs run in
    lockstep: each generation integrates the running populations together,
    in kernel calls of at most _BATCH_CELLS rows times columns, and scores
    each pair on its block of the call that integrated it; one fancy index
    gathers a call's leader columns from the table.  Pair i draws from its
    own generator, seeded with cfg.rng_seed + i, so its result is the same
    as calibrate_ga's on that pair at that seed.  Fully deterministic for a
    given cfg.

    The generator's draws, in order: random((population_size, 7)) for the
    first population; then, each generation, for each pair of offspring,
    random(2) for its parents, random() for the crossover gate, random(7)
    for the crossover mask if the gate passes, and random(7) and
    standard_normal(7) for each child's mutation (see _PairGa.breed).

    Args:
        table: a trajectory table build_trajectories returned, sampled
            every DT seconds.
        pairs: the calibration windows as rows of table, one (leader_row,
            follower_row, length) each, as pairs_from_index returns them.
        bounds: optional {name: (lo, hi)} overrides nested in the default box.
        cfg: GA settings shared by every pair; default GaConfig().

    Returns:
        One CalibrationResult per pair, with the best parameters ever seen.
    """
    cfg = cfg or GaConfig()
    lo, hi = _bounds_arrays(bounds)
    gas = [_PairGa(table, pair, lo, hi, cfg, cfg.rng_seed + i) for i, pair in enumerate(pairs)]

    running = gas
    while running:
        for batch in _batches(running, cfg.population_size):
            _score_batch(table, batch, cfg.population_size)
        running = [ga for ga in running if ga.converged_by is None]
        for ga in running:
            ga.breed()

    return [
        CalibrationResult(
            theta=FvdmParams.from_array(ga.best_vec),
            mixed_error=ga.best_fit,
            abs_error=ga.best_abs_rel[0],
            rel_error=ga.best_abs_rel[1],
            generations_run=ga.generations,
            converged_by=ga.converged_by,
            fitness_history=ga.history,
            rng_seed=ga.seed,
        )
        for ga in gas
    ]


def calibrate_ga(table: TrajectoryTable, rows, bounds: dict | None = None,
                 cfg: GaConfig | None = None) -> CalibrationResult:
    """Fit model parameters to one leader-follower pair, the (leader_row,
    follower_row, length) rows of table: calibrate_pairs on that pair alone,
    seeded with cfg.rng_seed (see there)."""
    return calibrate_pairs(table, [rows], bounds, cfg)[0]
