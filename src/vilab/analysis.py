"""Stability experiments, generalization-rate sweeps, and closed-form bounds.

The measurement side runs neighbouring-dataset divergence experiments
(stability_experiment, one n per call) and sweeps over dataset sizes
(generalization_sweep, the whole n grid and its log-log fit in one call)
that evaluate true gaps at each trial's empirical VI solution (solved for
directly where a projected sweep allows, else trained) and fit either the
trials' mean (mode "mean") or the high-probability trace, their (1 - delta)
quantile from at least 10/delta trials (mode "quantile"). The closed-form
side evaluates order-level bounds driven by the stability constant gamma
that solvers.stability_bound certifies: a covering-number bound min_r [K r
+ (L D + K) gamma log N(r)], the simplex bound (L + K) gamma log d, the
game bound gamma (2 D L + K sum_i L_i/mu_i), and the Bernstein constant B =
(L D + K (1 + sum_i L_i/mu_i))^2. Hidden constants are set to 1; these are
comparison curves, not certificates.

All randomness is keyed by (base_seed, n, trial), so a trial's outcome does
not depend on execution order and parallel scheduling cannot change results:
the experiments draw their trials' datasets on up to `workers` threads
(default: the CPUs this process may use) and stack the results in trial
order, so every output is bit-identical at every worker count. No rule on a
noise kind lives here: each kind's spawn keys, record axes and draw, and the
one constructor from mean records to operators, come from problems.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .domains import Domain, Simplex
from .errors import _COUNT, _PAIR, _REQUIRED, ConfigError, _section, _value
from .gaps import _strong_gap, best_response, gap, potential_gap, weak_gap
from .problems import (_DATASET_SIZE, _KINDS, _SEED, NoiseModel, ProblemConstants, QuadraticGame,
                       QuadraticOperator, _draw_records, _mean_operator, _record_streams, _stream,
                       _stream_states, constants, exact_solution, sampled_constants)
from .solvers import (SolverConfig, _stability_limit, check_gd_eta, contraction_bound, run,
                      stability_bound)

BOUND_NOTE = "order-level: hidden constants set to 1"
# The experiments' inputs, keyed as in the CLI; each sweep kind says if it needs a game.
_WORKERS = (int, _COUNT, None)
_STABILITY = {"n": _DATASET_SIZE, "trials": (int, _COUNT, _REQUIRED)}
_SWEEP_KINDS = {"gap": False, "weak_gap": True, "potential_gap": True}
_SWEEP = {"trials": (int, _PAIR, _REQUIRED), "kind": (tuple(_SWEEP_KINDS), None, "gap"),
          "mode": (("mean", "quantile"), None, "mean"), "delta": (float, "(0, 1)", 0.1)}
_BERNSTEIN = {"z_samples": (int, _COUNT, _REQUIRED), "mc_samples": (int, _PAIR, _REQUIRED)}


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def covering_bound(consts: ProblemConstants, gamma: float, domain: Domain, r_grid) -> float:
    """min_r [K r + (L D + K) gamma log N(Z, r, l-inf)] over the given radii."""
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if r_grid.size == 0 or np.any(r_grid <= 0.0):
        raise ValueError("r_grid must be nonempty with positive radii")
    vals = [
        consts.K * r
        + (consts.L * consts.D + consts.K) * gamma * math.log(domain.covering_number_upper(r))
        for r in r_grid
    ]
    return float(min(vals))


def simplex_bound(consts: ProblemConstants, gamma: float, d) -> float:
    """(L + K) * gamma * log d for simplex domains with d > 1 vertices."""
    if d <= 1:
        raise ValueError(f"simplex bound needs d > 1, got {d}")
    return (consts.L + consts.K) * gamma * math.log(d)


def game_bound(consts: ProblemConstants, gamma: float) -> float:
    """gamma * (2 D L + K sum_i L_i/mu_i)."""
    return gamma * (2.0 * consts.D * consts.L + consts.K * consts.smoothness_ratio_sum)


def bernstein_constant(consts: ProblemConstants) -> float:
    """B = (L D + K (1 + sum_i L_i/mu_i))^2."""
    return (consts.L * consts.D + consts.K * (1.0 + consts.smoothness_ratio_sum)) ** 2


_COVER_RADII = np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5])


def evaluate_bounds(problem, domain: Domain, consts: ProblemConstants,
                    noise: NoiseModel, n: int, config: SolverConfig) -> dict:
    """Every applicable bound at dataset size n, as a summary's `bounds`.

    The stability constant gamma is taken with the constants the sampled
    operators satisfy (sampled_constants): the ceiling `config` certifies
    (stability_bound), and the method's eta -> 0 limit (_stability_limit),
    which stands in when the run certifies none. With neither, the covering,
    simplex and game bounds are None. They use the plain constants; the
    covering bound is minimized over _COVER_RADII times the domain diameter."""
    w = sampled_constants(consts, noise, domain)
    at_eta = stability_bound(config, w, n)
    limit = _stability_limit(config.method, w, n)
    gamma = limit if at_eta is None else at_eta
    known = gamma is not None
    return {
        "covering": (covering_bound(consts, gamma, domain, domain.diameter() * _COVER_RADII)
                     if known else None),
        "simplex": (simplex_bound(consts, gamma, domain.d)
                    if known and isinstance(domain, Simplex) and domain.d > 1 else None),
        "game": game_bound(consts, gamma) if known and isinstance(problem, QuadraticGame) else None,
        "bernstein_B": bernstein_constant(consts),
        "gamma": {"eta": at_eta, "limit": limit},
        "note": BOUND_NOTE,
    }


# ---------------------------------------------------------------------------
# log-log fitting
# ---------------------------------------------------------------------------


def fit_loglog_slope(ns, values):
    """Least-squares slope/intercept/r^2 of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape or ns.size < 2 or ns.min() == ns.max():
        raise ValueError("need (n, value) pairs of matching shape at two or more distinct n")
    if np.any(ns <= 0.0) or np.any(values <= 0.0):
        raise ValueError("log-log fit needs strictly positive inputs")
    x, y = np.log(ns), np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# ---------------------------------------------------------------------------
# experiment seeding and batched empirical training
# ---------------------------------------------------------------------------


def trial_dataset_seed(base_seed: int, n: int, t: int) -> list:
    """Entropy for trial t at dataset size n; order-independent by design.
    Each part is a nonnegative integer (problems._SEED), else ConfigError."""
    return [int(_value(_SEED, v, name)) for v, name in ((base_seed, "seed"), (n, "n"), (t, "t"))]


def _default_workers() -> int:
    """The CPUs this process may run on (its affinity mask), or os.cpu_count()
    where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Floats of records a trial holds (n d^2 under matrix noise, n d under
# offset noise) below which its trials are drawn serially. There threads
# neither lose nor clearly win, but cost memory: with no threshold and
# min(workers, chunks) threads, sweep_game and sweep_simplex start a helper
# at --workers 2 and cli_configs peaks at 41.45-41.69 against 39.88-39.94
# MiB RSS (3 alternating pairs, +4%; wall time unresolved); importing
# concurrent.futures.thread alone costs about 0.7 MiB and 7-8 ms.
_SERIAL_FLOATS = 10_000
# Floats of records that one chunk of trials holds: 65,536 is one trial of
# 4,096 4 x 4 matrices.
_CHUNK_FLOATS = 65_536


def _trial_operators(problem, noise: NoiseModel, n: int, seed: int, trials: int,
                     neighbours: bool = False,
                     workers: Optional[int] = None) -> QuadraticOperator:
    """The stacked empirical operators (problems._mean_operator) of the
    `trials` datasets of size n keyed by trial_dataset_seed(seed, n, t), in
    trial order. It decides the seeding order: every trial's streams first,
    one pass per spawn key (problems._stream_states). The threads: as many
    contiguous blocks as min(workers, trials) (None: _default_workers()),
    block 0 on the calling thread, or one serial block when a trial holds
    fewer than _SERIAL_FLOATS floats of records. The chunks: a block sets one
    generator per key to its trials' states in turn (problems._stream), then
    draws and averages as many trials at once as hold _CHUNK_FLOATS floats of
    records (at least one). The neighbours: with `neighbours`, as many
    follow, trial t's dataset with the record its key (9,) stream picks
    swapped in place for its replacement; all replacements are one draw.
    Record i depends on (seed, i) only and a batched mean keeps each trial's
    summation order, so the stack is bit-identical at every worker count and
    chunk size, and peak memory stays one chunk's records per worker."""
    workers = _value(_WORKERS, _default_workers() if workers is None else workers, "workers")
    head = trial_dataset_seed(seed, n, 0)[:2]  # the base seed and n, checked once
    seeds = [head + [t] for t in range(trials)]
    kind = _KINDS[noise.kind]
    states = [_stream_states(seeds, key) for key in kind.spawn_keys]
    if neighbours:
        picks = _stream_states(seeds, (9,))
        replacements = _draw_records(problem, noise, 1, trials,
                                     _record_streams(noise, [s + [1] for s in seeds]))
    record = (problem.dim,) * kind.axes
    means = np.empty(((2 if neighbours else 1) * trials, *record))
    size = n * math.prod(record)  # the floats of records one trial holds
    chunk = max(1, _CHUNK_FLOATS // size)

    def block(lo: int, hi: int):
        streams = [_stream(s[lo:hi]) for s in states]
        swaps = _stream(picks[lo:hi]) if neighbours else None
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            X = _draw_records(problem, noise, n, b - a, streams).reshape(b - a, n, *record)
            X.mean(axis=1, out=means[a:b])
            if neighbours:
                swap = [int(next(swaps).integers(n)) for _ in range(a, b)]
                X[np.arange(b - a), swap] = replacements[a:b]
                X.mean(axis=1, out=means[trials + a:trials + b])
            del X  # not held while the next chunk is drawn

    k = 1 if size < _SERIAL_FLOATS else min(workers, trials)
    if k == 1:
        block(0, trials)
    else:
        from concurrent.futures import ThreadPoolExecutor  # serial runs skip it
        edges = [trials * i // k for i in range(k + 1)]
        with ThreadPoolExecutor(max_workers=k - 1) as pool:
            helpers = pool.map(block, edges[1:-1], edges[2:])  # submitted at once
            block(edges[0], edges[1])
            list(helpers)  # re-raises a helper's error
    return _mean_operator(problem, means, kind.axes)


# ---------------------------------------------------------------------------
# stability experiment
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class StabilityResult:
    divergences: np.ndarray
    bound: Optional[float]         # None: the run certifies no ceiling
    bound_base_K: Optional[float]


def stability_experiment(problem, domain: Domain, config: SolverConfig, n: int,
                         trials: int, seed: int, noise: NoiseModel,
                         workers: Optional[int] = None) -> StabilityResult:
    """Train on X and on X-with-one-record-replaced from the same start and
    record ||z_T - z_T'|| per trial.

    The eta gate and the bound use the constants (mu_w, L_w, K_w) that the
    sampled operators satisfy (solvers.check_gd_eta); bound_base_K is the
    same stability_bound at the plain constants, for reference. The datasets
    are drawn on up to `workers` threads (None: the CPUs this process may
    use); training runs in the calling thread.
    """
    _section(_STABILITY, {"n": n, "trials": trials}, "")
    _value(_SEED, seed, "seed")
    consts = constants(problem, domain)
    w = check_gd_eta(config, consts, noise, domain)
    Z = run(_trial_operators(problem, noise, n, seed, trials, neighbours=True, workers=workers),
            domain, config).final
    div = np.linalg.norm(Z[:trials] - Z[trials:], axis=-1)

    return StabilityResult(divergences=div, bound=stability_bound(config, w, n),
                           bound_base_K=stability_bound(config, consts, n))


# ---------------------------------------------------------------------------
# generalization sweeps
# ---------------------------------------------------------------------------

_TRAIN_TOL = 1e-8


@dataclass(eq=False)
class SweepResult:
    fit_on: str            # the fitted aggregate: "mean", or "q<1 - delta>" for a quantile
    per_n: list            # one row per n (generalization_sweep)
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]
    failures: list = field(default_factory=list)
    fit_error: Optional[str] = None


def _training_horizon(config, consts, noise, domain) -> int:
    """First horizon of the doubling loop, from the per-step contraction of
    the sampled operators (solvers.check_gd_eta); ConfigError when eta does
    not contract them."""
    w = check_gd_eta(config, consts, noise, domain)
    xi = contraction_bound(config.method, w.mu, w.L, config.eta)
    if xi >= 1.0:
        raise ConfigError(f"training eta {config.eta} not contractive for {config.method}")
    R0 = w.D + noise.magnitude / w.mu
    target = 0.5 * _TRAIN_TOL / max(w.L * w.D * max(R0, 1e-12), 1e-300)
    return max(1, int(math.ceil(math.log(target) / math.log(max(xi, 1e-12)))))


def _iterate_to_tol(F: QuadraticOperator, domain: Domain, config: SolverConfig, T: int):
    """Batched gd/eg from the domain center, T steps and then doubling T, until
    every row's empirical gap is <= 1e-8 (at most 8 rounds). Returns the
    iterates, the steps run and the rows that missed the tolerance."""
    Z = None
    steps = 0
    for _ in range(8):
        Z = run(F, domain, replace(config, T=T), Z).final
        steps += T
        gaps = _strong_gap(F, domain, Z)
        if float(np.max(gaps)) <= _TRAIN_TOL:
            return Z, steps, []
        T *= 2
    return Z, steps, np.nonzero(gaps > _TRAIN_TOL)[0].tolist()


def _empirical_roots(F: QuadraticOperator) -> np.ndarray:
    """Each row's root -M^{-1} b, C-ordered so later row sums keep their bits."""
    if F.matrix.ndim == 2:
        R = np.linalg.solve(F.matrix, F.offset.T).T  # one LU, B right-hand sides
    else:
        R = np.linalg.solve(F.matrix, F.offset[..., None])[..., 0]
    R = np.ascontiguousarray(R)
    return np.negative(R, out=R)


def _empirical_solutions(F: QuadraticOperator, domain, config, T: int):
    """Every trial's empirical VI solution to a 1e-8 empirical gap, for the
    stacked empirical operators F (_trial_operators), as (Z, training steps,
    failed trials, trials solved directly).

    A projected config solves for every trial's root first. When every root
    lies in the domain (`contains_interior` at margin 0: exact for balls and
    boxes, within the plane tolerance for simplices) and passes the gap
    check, the roots are the projected-VI solutions. Otherwise, and for
    unprojected configs, every trial trains (_iterate_to_tol) from horizon T.
    """
    if config.projected:
        Z = _empirical_roots(F)
        if np.all(domain.contains_interior(Z, 0.0)
                  & (_strong_gap(F, domain, Z) <= _TRAIN_TOL)):
            return Z, 0, [], len(Z)
    return (*_iterate_to_tol(F, domain, config, T), 0)


def _check_mode(mode: str, trials: int, delta: float) -> None:
    """Estimating the (1 - delta) quantile (mode "quantile") needs >= 10/delta trials."""
    if mode == "quantile" and trials < (needed := math.ceil(10.0 / delta)):
        raise ValueError(f"quantile sweep at delta={delta} needs >= {needed} trials, got {trials}")


def _evaluate_kind(problem, domain, kind: str, Z: np.ndarray) -> np.ndarray:
    if kind == "gap":
        return np.atleast_1d(gap(problem, domain, Z))
    if kind == "weak_gap":
        return np.atleast_1d(weak_gap(problem, Z))
    return np.atleast_1d(potential_gap(problem, Z))


def generalization_sweep(problem, domain: Domain, config: SolverConfig,
                         noise: NoiseModel, n_grid, trials: int, seed: int,
                         kind: str = "gap", delta: float = 0.1,
                         mode: str = "mean", workers: Optional[int] = None) -> SweepResult:
    """For each dataset size n: sample `trials` datasets of size n (drawn on
    up to `workers` threads, None: the CPUs this process may use), find each
    one's empirical VI solution, and evaluate the true `kind` there.
    Projected configs solve for it directly when every trial's root lies in
    the domain; otherwise, and for unprojected configs, every trial trains.
    Each row holds n, mean, std, quantiles (0.5, 0.9, 1-delta), values,
    `direct` (trials taken from the solve: all or none), `train_steps`
    (steps every trial trained, 0 when solved) and `failed`: the trials
    whose training missed the tolerance. Then a log-log fit against n of
    the rows' mean (mode "mean") or their (1 - delta) quantile (mode
    "quantile", which needs >= 10/delta trials); when it fails, e.g. on a
    single n, its numbers are None and fit_error holds the reason. Every
    argument is checked before anything is sampled."""
    _section(_SWEEP, {"trials": trials, "kind": kind, "mode": mode, "delta": delta}, "")
    _value(_SEED, seed, "seed")
    if _SWEEP_KINDS[kind] and not isinstance(problem, QuadraticGame):
        raise ValueError(f"kind {kind!r} needs a game")
    _check_mode(mode, trials, delta)
    level = f"{1 - delta:g}"
    levels = {"0.5": 0.5, "0.9": 0.9, level: 1.0 - delta}
    n_grid = tuple(int(_value(_DATASET_SIZE, n, f"n_grid[{i}]")) for i, n in enumerate(n_grid))
    T = _training_horizon(config, constants(problem, domain), noise, domain)
    per_n = []
    for n in n_grid:
        Z, steps, failed, direct = _empirical_solutions(
            _trial_operators(problem, noise, n, seed, trials, workers=workers),
            domain, config, T)
        values = _evaluate_kind(problem, domain, kind, Z)
        del Z  # not held while the next n's datasets are drawn
        qs = {key: float(np.quantile(values, level)) for key, level in levels.items()}
        per_n.append({"n": n, "mean": float(values.mean()), "std": float(values.std()),
                      "quantiles": qs, "values": values, "direct": direct,
                      "train_steps": steps, "failed": failed})
    agg = [row["mean"] if mode == "mean" else row["quantiles"][level] for row in per_n]
    slope = intercept = r2 = fit_error = None
    try:
        slope, intercept, r2 = fit_loglog_slope(n_grid, agg)
    except ValueError as exc:
        fit_error = str(exc)
    failures = [{"n": row["n"], "trials": row["failed"]} for row in per_n if row["failed"]]
    return SweepResult(fit_on="mean" if mode == "mean" else f"q{level}", per_n=per_n,
                       slope=slope, intercept=intercept, r_squared=r2, failures=failures,
                       fit_error=fit_error)


# ---------------------------------------------------------------------------
# Bernstein-condition check
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BernsteinResult:
    B: float
    rows: list  # dicts: index, lhs, rhs, se, violated
    violations: int


def bernstein_check(game: QuadraticGame, noise: NoiseModel, z_samples: int,
                    mc_samples: int, seed: int) -> BernsteinResult:
    """Estimate E[(g(z) - g(z*))^2] and B * E[g(z) - g(z*)] over fresh noise,
    where g(z, zeta) = <Xi(z, zeta), z - w*(z)>. Row 0 is z* itself (both
    sides vanish). A row is violated when the 1.05-slack inequality fails by
    more than 3 Monte-Carlo standard errors. B is taken at the plain
    constants; matrix noise of magnitude >= mu raises ConfigError, as in
    sampled_constants."""
    _section(_BERNSTEIN, {"z_samples": z_samples, "mc_samples": mc_samples}, "")
    _value(_SEED, seed, "seed")
    consts = constants(game)
    sampled_constants(consts, noise, game.domain)
    B = bernstein_constant(consts)
    zs = [exact_solution(game)]
    rng, = _stream(_stream_states([int(seed)], (11,)))
    if z_samples > 1:
        zs.extend(game.domain.sample(rng, z_samples - 1))
    zs = np.asarray(zs)
    R = _draw_records(game, noise, mc_samples, 1, _record_streams(noise, [[int(seed), 13]]))

    def g(z, w):
        """g(z, zeta) over the noise draws, with w = w*(z)."""
        noisy = R if R.ndim == 2 else np.einsum("nij,j->ni", R, z)
        return (game(z) + noisy) @ (z - w)

    W = best_response(game, zs)
    gstar = g(zs[0], W[0])
    rows = []
    violations = 0
    for idx in range(zs.shape[0]):
        diff = g(zs[idx], W[idx]) - gstar
        lhs = float(np.mean(diff ** 2))
        rhs = float(B * np.mean(diff))
        t = diff ** 2 - 1.05 * B * diff
        se = float(np.std(t, ddof=1) / math.sqrt(mc_samples))
        violated = bool(np.mean(t) > 3.0 * se)
        violations += int(violated)
        rows.append({"index": idx, "lhs": lhs, "rhs": rhs, "se": se,
                     "violated": violated})
    return BernsteinResult(B=B, rows=rows, violations=violations)
