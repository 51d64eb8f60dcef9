"""Stability experiments, generalization-rate sweeps, and closed-form bounds.

The measurement side runs neighbouring-dataset divergence experiments and
train-then-evaluate sweeps over dataset sizes; the closed-form side
evaluates the uniform-stability ceiling

    gd:  ||z_T - z_T'|| <= 2K / (n (2 mu - eta L^2)),   0 < eta < 2 mu/L^2,

and the order-level generalization bounds driven by a stability constant
gamma: a covering-number bound min_r [K r + (L D + K) gamma log N(r)], the
simplex bound (L + K) gamma log d, the game bound gamma (2 D L +
K sum_i L_i/mu_i), and the Bernstein constant B = (L D + K (1 +
sum_i L_i/mu_i))^2. Hidden constants are set to 1 and every bound is labeled
order-level; these are comparison curves, not certificates.

All randomness is keyed by (base_seed, n, trial), so a trial's outcome does
not depend on execution order and parallel scheduling cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .domains import Domain, Simplex
from .errors import ConfigError, NumericalError
from .gaps import best_response, gap, potential_gap, weak_gap
from .problems import (NoiseModel, ProblemConstants, QuadraticGame,
                       QuadraticOperator, _draw_records, constants, exact_solution,
                       noisy_operator_ceiling, replace_record, sample_dataset)
from .solvers import (SolverConfig, eg_contraction_bound, gd_contraction_bound,
                      in_gd_stability_range, run)

BOUND_NOTE = "order-level: hidden constants set to 1"


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def gd_stability_bound(K: float, n: int, mu: float, L: float, eta: float) -> float:
    """Divergence ceiling for gd on neighbouring datasets of size n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not in_gd_stability_range(eta, mu, L):
        raise ValueError(
            f"eta={eta} outside the gd stability range (0, {2.0 * mu / L ** 2})"
        )
    return 2.0 * K / (n * (2.0 * mu - eta * L ** 2))


def eg_stability_closed_form(K: float, n: int, mu: float, L: float, eta: float) -> float:
    """Literal evaluation of the extragradient stability expression.

    Informational only: the factor (1 - eta L - (1 + eta L)) equals
    -2 eta L < 0, so the expression is negative and cannot ceiling a
    divergence. It is reported, never asserted.
    """
    inner = 1.0 + eta - eta * L ** 2 * (1.0 - eta) * (1.0 - 2.0 * eta * mu + eta ** 2 * L ** 2)
    outer = 1.0 - eta * L - (1.0 + eta * L)
    denom = n * inner * outer
    if denom == 0.0:
        raise NumericalError("degenerate denominator in the eg stability expression")
    return 2.0 * K / denom


def stability_gamma(consts: ProblemConstants, n: int, eta: float,
                    noise: Optional[NoiseModel] = None,
                    domain: Optional[Domain] = None) -> dict:
    """The stability constant at the configured eta and in the eta -> 0 limit
    K/(n mu). Uses the noise-inflated K when a noise model is given (that is
    the K the sampled operators actually obey)."""
    K = consts.K if noise is None else noisy_operator_ceiling(consts, noise, domain)
    at_eta = None
    if in_gd_stability_range(eta, consts.mu, consts.L):
        at_eta = gd_stability_bound(K, n, consts.mu, consts.L, eta)
    return {"eta": at_eta, "limit": K / (n * consts.mu)}


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


@dataclass(frozen=True)
class BoundSet:
    covering: Optional[float]
    simplex: Optional[float]
    game: Optional[float]
    bernstein_B: float
    gamma: dict
    note: str = BOUND_NOTE


def evaluate_bounds(consts: ProblemConstants, gamma_values: dict, domain: Domain,
                    problem=None, r_grid=None) -> BoundSet:
    """Assemble every applicable bound at gamma = gamma_values['eta'] (falls
    back to the eta -> 0 value when the configured eta is out of range)."""
    gamma = gamma_values.get("eta")
    if gamma is None:
        gamma = gamma_values["limit"]
    if r_grid is None:
        D = domain.diameter()
        r_grid = D * np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5])
    cov = covering_bound(consts, gamma, domain, r_grid)
    simp = (simplex_bound(consts, gamma, domain.d)
            if isinstance(domain, Simplex) and domain.d > 1 else None)
    gm = game_bound(consts, gamma) if isinstance(problem, QuadraticGame) else None
    return BoundSet(covering=cov, simplex=simp, game=gm,
                    bernstein_B=bernstein_constant(consts), gamma=gamma_values)


# ---------------------------------------------------------------------------
# log-log fitting
# ---------------------------------------------------------------------------


def fit_loglog_slope(ns, values):
    """Least-squares slope/intercept/r^2 of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape or ns.size < 2:
        raise ValueError("need at least two (n, value) pairs of matching shape")
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
    """Entropy for trial t at dataset size n; order-independent by design."""
    return [int(base_seed), int(n), int(t)]


def _stacked_empirical(problem, datasets):
    """(matrix stack or shared matrix, offset stack) for an iterable of
    datasets. Each dataset is reduced to its mean matrix and mean offset as
    it arrives, so a generator keeps only one dataset's records alive and
    peak memory does not grow with the number of trials."""
    op = problem.as_operator()
    mats, offs = [], []
    for X in datasets:
        offs.append(op.offset + X.mean_offset())
        if X.matrices is not None:
            mats.append(op.matrix + X.mean_matrix())
        del X
    return (np.stack(mats) if mats else op.matrix), np.stack(offs)


def _batched_gap(domain: Domain, F: QuadraticOperator, Z: np.ndarray) -> np.ndarray:
    G = F(Z)
    U = domain.lmo(G)
    return np.einsum("bi,bi->b", G, Z - U)


# ---------------------------------------------------------------------------
# stability experiment
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class StabilityResult:
    method: str
    eta: float
    n: int
    trials: int
    divergences: np.ndarray
    bound: Optional[float]
    bound_informational: bool
    bound_base_K: Optional[float] = None


def _neighbour_pairs(problem, noise: NoiseModel, n: int, trials: int, seed: int):
    """Yield each trial's dataset X, then X with one record replaced."""
    for t in range(trials):
        ds_seed = trial_dataset_seed(seed, n, t)
        X = sample_dataset(problem, noise, n, ds_seed)
        j = int(np.random.default_rng(
            np.random.SeedSequence(ds_seed, spawn_key=(9,))).integers(n))
        yield X
        yield replace_record(problem, X, j, ds_seed + [1])


def check_gd_eta(config: SolverConfig, consts: ProblemConstants) -> None:
    """ConfigError when gd's eta lies outside the stability range (0, 2 mu / L^2)."""
    if config.method == "gd" and not in_gd_stability_range(config.eta, consts.mu, consts.L):
        raise ConfigError(
            f"eta exceeds 2*mu/L^2: eta={config.eta}, limit={2 * consts.mu / consts.L ** 2:.6g}"
        )


def stability_experiment(problem, domain: Domain, config: SolverConfig, n: int,
                         trials: int, seed: int, noise: NoiseModel,
                         consts: Optional[ProblemConstants] = None) -> StabilityResult:
    """Train on X and on X-with-one-record-replaced from the same start and
    record ||z_T - z_T'|| per trial.

    The reported gd bound uses the noise-inflated K (what the sampled
    operators actually satisfy); bound_base_K keeps the plain-constants
    version for reference. For eg the closed form is informational only.
    """
    if consts is None:
        consts = constants(problem, domain)
    check_gd_eta(config, consts)
    # pairs arrive interleaved (X_0, X'_0, X_1, ...); the batch is laid out
    # as all originals, then all neighbours
    mats, offs = _stacked_empirical(problem, _neighbour_pairs(problem, noise, n, trials, seed))
    if mats.ndim == 3:
        mats = np.concatenate([mats[0::2], mats[1::2]])
    F = QuadraticOperator(mats, np.concatenate([offs[0::2], offs[1::2]]))
    Z = run(F, domain, config).final
    div = np.linalg.norm(Z[:trials] - Z[trials:], axis=-1)

    if config.method == "gd":
        K_noisy = noisy_operator_ceiling(consts, noise, domain)
        bound = gd_stability_bound(K_noisy, n, consts.mu, consts.L, config.eta)
        base = gd_stability_bound(consts.K, n, consts.mu, consts.L, config.eta)
        informational = False
    else:
        bound = eg_stability_closed_form(consts.K, n, consts.mu, consts.L, config.eta)
        base = None
        informational = True
    return StabilityResult(method=config.method, eta=config.eta, n=n, trials=trials,
                           divergences=div, bound=bound,
                           bound_informational=informational, bound_base_K=base)


# ---------------------------------------------------------------------------
# generalization sweeps
# ---------------------------------------------------------------------------

_TRAIN_TOL = 1e-8


@dataclass(eq=False)
class SweepResult:
    kind: str
    fit_on: str
    n_grid: tuple
    per_n: list            # sweep_point rows
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]
    delta: float
    trials: int
    seed: int
    failures: list = field(default_factory=list)
    fit_error: Optional[str] = None


def _train_to_empirical_opt(problem, domain, config, datasets, noise, consts):
    """Batched gd/eg until every trial's empirical gap is <= 1e-8. `datasets`
    is any iterable; only its means are kept (see _stacked_empirical).

    The horizon comes from the per-step contraction of the noisy operators
    (their certificates degrade to mu/2, L + magnitude under matrix noise),
    then is verified and doubled as needed.
    """
    if noise.kind == "offset":
        mu_eff, L_eff = consts.mu, consts.L
    else:
        mu_eff, L_eff = 0.5 * consts.mu, consts.L + noise.magnitude
    if config.method == "gd":
        if not in_gd_stability_range(config.eta, mu_eff, L_eff):
            raise ConfigError(
                f"training eta {config.eta} not contractive for the noisy operators "
                f"(limit {2 * mu_eff / L_eff ** 2:.6g})"
            )
        xi = gd_contraction_bound(mu_eff, L_eff, config.eta)
    else:
        xi = eg_contraction_bound(mu_eff, L_eff, config.eta)
        if xi >= 1.0:
            raise ConfigError(f"training eta {config.eta} not contractive for eg")
    R0 = consts.D + noise.magnitude / mu_eff
    target = 0.5 * _TRAIN_TOL / max(L_eff * consts.D * max(R0, 1e-12), 1e-300)
    T = max(1, int(math.ceil(math.log(target) / math.log(max(xi, 1e-12)))))

    mats, offs = _stacked_empirical(problem, datasets)
    F = QuadraticOperator(mats, offs)
    Z = None  # run starts every trial at the domain center
    steps = 0
    for _ in range(8):
        Z = run(F, domain, replace(config, T=T), Z).final
        steps += T
        gaps = _batched_gap(domain, F, Z)
        if float(np.max(gaps)) <= _TRAIN_TOL:
            return Z, steps, []
        T *= 2
    failed = np.nonzero(gaps > _TRAIN_TOL)[0].tolist()
    return Z, steps, failed


def _evaluate_kind(problem, domain, kind: str, Z: np.ndarray) -> np.ndarray:
    if kind == "gap":
        return np.atleast_1d(gap(problem, domain, Z))
    if kind == "weak_gap":
        return np.atleast_1d(weak_gap(problem, problem, Z))
    return np.atleast_1d(potential_gap(problem, Z))


def _quantile_levels(delta: float) -> dict:
    """Quantile levels a sweep row stores, keyed as in row["quantiles"]."""
    return {"0.5": 0.5, "0.9": 0.9, f"{1 - delta:g}": 1.0 - delta}


def _check_sweep(problem, kind: str, trials: int, delta: float,
                 fit_on: str = "mean") -> None:
    """Validate a sweep's arguments before anything is sampled."""
    if kind not in ("gap", "weak_gap", "potential_gap"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    if kind != "gap" and not isinstance(problem, QuadraticGame):
        raise ValueError(f"kind {kind!r} needs a game")
    if trials < 2:
        raise ValueError("sweeps need at least 2 trials per n")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    levels = _quantile_levels(delta)
    if fit_on != "mean" and not (fit_on.startswith("q") and fit_on[1:] in levels):
        raise ValueError(
            f"fit_on must be 'mean' or 'q<level>' for a stored level "
            f"({', '.join(levels)}), got {fit_on!r}"
        )


def sweep_point(problem, domain: Domain, config: SolverConfig, noise: NoiseModel,
                n: int, trials: int, seed: int, kind: str = "gap",
                delta: float = 0.1, consts: Optional[ProblemConstants] = None) -> dict:
    """One dataset size of a sweep: sample `trials` datasets of size n, train
    each to empirical optimality, and evaluate the true `kind` at the trained
    points. The row holds n, mean, std, quantiles (0.5, 0.9, 1-delta),
    values, train_steps, and `failed`: the trials whose training missed the
    tolerance."""
    _check_sweep(problem, kind, trials, delta)
    if consts is None:
        consts = constants(problem, domain)
    datasets = (sample_dataset(problem, noise, n, trial_dataset_seed(seed, n, t))
                for t in range(trials))
    Z, steps, failed = _train_to_empirical_opt(problem, domain, config,
                                               datasets, noise, consts)
    values = _evaluate_kind(problem, domain, kind, Z)
    qs = {key: float(np.quantile(values, level))
          for key, level in _quantile_levels(delta).items()}
    return {"n": n, "mean": float(values.mean()), "std": float(values.std()),
            "quantiles": qs, "values": values, "train_steps": steps,
            "failed": failed}


def fit_sweep(per_n, fit_on: str = "mean"):
    """Log-log fit of the sweep rows' aggregate (the mean, or the quantile
    named by fit_on="q<level>") against n, as (slope, intercept, r^2,
    error). When the fit fails, e.g. on a single n, the numbers are None and
    error holds the reason."""
    agg = [row["mean"] if fit_on == "mean" else row["quantiles"][fit_on[1:]]
           for row in per_n]
    try:
        return (*fit_loglog_slope([row["n"] for row in per_n], agg), None)
    except ValueError as exc:
        return None, None, None, str(exc)


def generalization_sweep(problem, domain: Domain, config: SolverConfig,
                         noise: NoiseModel, n_grid, trials: int, seed: int,
                         kind: str = "gap", delta: float = 0.1,
                         fit_on: str = "mean") -> SweepResult:
    """sweep_point for each n, then fit_sweep through the chosen aggregate
    (the mean, or a stored quantile via fit_on="q0.9")."""
    _check_sweep(problem, kind, trials, delta, fit_on)
    n_grid = tuple(int(n) for n in n_grid)
    if any(n < 1 for n in n_grid):
        raise ValueError("dataset sizes must be >= 1")
    consts = constants(problem, domain)
    per_n = [sweep_point(problem, domain, config, noise, n, trials, seed, kind,
                         delta, consts) for n in n_grid]
    slope, intercept, r2, fit_error = fit_sweep(per_n, fit_on)
    failures = [{"n": row["n"], "trials": row["failed"]} for row in per_n if row["failed"]]
    return SweepResult(kind=kind, fit_on=fit_on, n_grid=n_grid, per_n=per_n,
                       slope=slope, intercept=intercept, r_squared=r2,
                       delta=delta, trials=trials, seed=seed,
                       failures=failures, fit_error=fit_error)


def quantile_fit_on(trials: int, delta: float) -> str:
    """fit_on for the high-probability (1-delta)-quantile trace. Estimating
    that quantile needs >= 10/delta trials."""
    needed = int(math.ceil(10.0 / delta))
    if trials < needed:
        raise ValueError(
            f"quantile sweep at delta={delta} needs >= {needed} trials, got {trials}"
        )
    return f"q{1 - delta:g}"


# ---------------------------------------------------------------------------
# Bernstein-condition check
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BernsteinResult:
    B: float
    mc_samples: int
    rows: list  # dicts: index, lhs, rhs, se, violated
    violations: int


def bernstein_check(game: QuadraticGame, noise: NoiseModel, z_samples: int,
                    mc_samples: int, seed: int) -> BernsteinResult:
    """Estimate E[(g(z) - g(z*))^2] and B * E[g(z) - g(z*)] over fresh noise,
    where g(z, zeta) = <Xi(z, zeta), z - w*(z)>. Row 0 is z* itself (both
    sides vanish). A row is violated when the 1.05-slack inequality fails by
    more than 3 Monte-Carlo standard errors."""
    if z_samples < 1 or mc_samples < 2:
        raise ValueError("need z_samples >= 1 and mc_samples >= 2")
    consts = constants(game)
    B = bernstein_constant(consts)
    op = game.as_operator()
    zs = [exact_solution(game)]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)], spawn_key=(11,)))
    if z_samples > 1:
        zs.extend(game.domain.sample(rng, z_samples - 1))
    zs = np.asarray(zs)
    e, E = _draw_records(game, noise, mc_samples, [int(seed), 13])

    def g(z, w):
        """g(z, zeta) over the noise draws, with w = w*(z)."""
        noisy = e if E is None else np.einsum("nij,j->ni", E, z)
        return (op.evaluate(z) + noisy) @ (z - w)

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
    return BernsteinResult(B=B, mc_samples=mc_samples, rows=rows,
                           violations=violations)
