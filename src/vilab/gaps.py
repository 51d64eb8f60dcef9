"""Solution-quality measures for monotone operators and quadratic games.

* strong (dual) gap:      Err(z)  = max_{u in Z} <F(z), z - u>, computed
  exactly through the domain's linear minimization oracle;
* weak gap:               <F(z), z - w*(z)> with w*(z) stacking each
  player's best response to z_{-i};
* potential gap:          sum_i [f_i(z) - f_i(w_i(z), z_{-i})].

For per-player-convex games these nest:  potential <= weak <= strong gap
pointwise (exactly, for quadratics). Empirical variants replace F by the
dataset average; best responses always come from the true game.

All evaluators accept batches (..., dim) and return (...) arrays (floats for
single points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domains import Domain
from .errors import InfeasiblePointError, NumericalError
from .problems import QuadraticGame, SampledDataset, empirical_operator

_FEAS_TOL = 1e-6


def _values(F: Callable, z) -> np.ndarray:
    return np.asarray(F(z), dtype=float)


def _maybe_float(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def _check_feasible(domain: Domain, z, tol: float = _FEAS_TOL) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    dist = domain.distance(z)
    if np.any(dist > tol):
        raise InfeasiblePointError(
            f"point outside domain: distance {float(np.max(dist)):.3e} > tol {tol:.1e}"
        )
    return z


def gap(F: Callable, domain: Domain, z):
    """max_u <F(z), z - u> via the LMO; nonnegative on feasible points."""
    z = _check_feasible(domain, z)
    g = _values(F, z)
    u = domain.lmo(g)
    return _maybe_float(np.einsum("...i,...i->...", g, z - u))


def best_response(game: QuadraticGame, z) -> np.ndarray:
    """w*(z): block i minimizes f_i(., z_{-i}) over Z_i.

    The unconstrained minimizer -Q_i^{-1}(C_i z_{-i} + b_i) is used whenever
    it is feasible; otherwise projected gradient descent with step
    1/lambda_max(Q_i) runs until the projected-gradient norm is <= 1e-10
    (at most 1e5 inner steps).
    """
    domain = game.domain
    z = _check_feasible(domain, z)
    parts = []
    for i in range(game.k):
        Q = game.block(i)
        if float(np.linalg.eigvalsh(Q)[0]) <= 0.0:
            raise NumericalError(f"player {i} quadratic block is not positive definite")
        lin = game.others(z, i) @ game.coupling(i).T + game.offset_block(i)
        w = -lin @ np.linalg.inv(Q)  # rows solve Q w = -lin (Q symmetric)
        sub = domain.factors[i]
        if not np.all(sub.contains(w, 1e-9)):
            w = _projected_best_response(Q, lin, sub, w)
        parts.append(w)
    return domain.join(parts)


def _projected_best_response(Q: np.ndarray, lin: np.ndarray, sub: Domain,
                             w0: np.ndarray) -> np.ndarray:
    step = 1.0 / float(np.linalg.eigvalsh(Q)[-1])
    w = sub.project(w0)
    for _ in range(100_000):
        grad = w @ Q.T + lin
        nxt = sub.project(w - step * grad)
        residual = np.linalg.norm(w - nxt, axis=-1) / step
        w = nxt
        if float(np.max(residual)) <= 1e-10:
            return w
    raise NumericalError(
        f"best-response inner solve stalled: projected-gradient norm "
        f"{float(np.max(residual)):.3e} after 100000 steps"
    )


def weak_gap(F: Callable, game: QuadraticGame, z):
    """<F(z), z - w*(z)> with true-game best responses; F may be empirical."""
    z = _check_feasible(game.domain, z)
    w = best_response(game, z)
    g = _values(F, z)
    return _maybe_float(np.einsum("...i,...i->...", g, z - w))


def potential_gap(game: QuadraticGame, z):
    """sum_i [f_i(z) - min_{w in Z_i} f_i(w, z_{-i})]; nonnegative."""
    z = _check_feasible(game.domain, z)
    w = best_response(game, z)
    total = 0.0
    for i, s in enumerate(game.slices):
        zw = z.copy()
        zw[..., s] = w[..., s]
        total = total + (game.potential(i, z) - game.potential(i, zw))
    return _maybe_float(np.asarray(total))


@dataclass(frozen=True)
class GapReport:
    kind: str
    gap_true: float
    gap_empirical: float
    weak_gap_true: Optional[float]
    weak_gap_empirical: Optional[float]
    potential_gap: Optional[float]
    generalization_gap: float


def gap_report(problem, X: SampledDataset, domain: Domain, z,
               kind: Optional[str] = None) -> GapReport:
    """All gap measures at a single point, plus true-minus-empirical for the
    selected kind (default: weak_gap for games, strong gap otherwise)."""
    is_game = isinstance(problem, QuadraticGame)
    if kind is None:
        kind = "weak_gap" if is_game else "gap"
    if kind not in ("gap", "weak_gap") or (kind == "weak_gap" and not is_game):
        raise ValueError(f"unsupported report kind {kind!r} for this problem")
    emp = empirical_operator(problem, X)
    g_true, g_emp = gap(problem, domain, z), gap(emp, domain, z)
    w_true = w_emp = p_gap = None
    if is_game:
        w_true, w_emp = weak_gap(problem, problem, z), weak_gap(emp, problem, z)
        p_gap = potential_gap(problem, z)
    gen = g_true - g_emp if kind == "gap" else w_true - w_emp
    return GapReport(kind=kind, gap_true=float(g_true), gap_empirical=float(g_emp),
                     weak_gap_true=w_true, weak_gap_empirical=w_emp,
                     potential_gap=p_gap, generalization_gap=float(gen))
