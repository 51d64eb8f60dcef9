"""Solution-quality measures for monotone operators and quadratic games.

* strong (dual) gap:      Err(z)  = max_{u in Z} <F(z), z - u>, computed
  exactly through the domain's linear minimization oracle;
* weak gap:               <F(z), z - w*(z)> with w*(z) stacking each
  player's best response to z_{-i} (weak_gap takes the game's own F);
* potential gap:          sum_i [f_i(z) - f_i(w_i(z), z_{-i})].

For per-player-convex games these nest:  potential <= weak <= strong gap
pointwise (exactly, for quadratics). gap_report's empirical variants
replace F by the dataset average; best responses always come from the true
game.

All evaluators accept batches (..., dim) and return (...) arrays (floats for
single points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domains import _FEAS_TOL, Domain, _row_norms
from .errors import InfeasiblePointError, NumericalError
from .problems import QuadraticGame


def _values(F: Callable, z) -> np.ndarray:
    return np.asarray(F(z), dtype=float)


def _maybe_float(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def _check_feasible(domain: Domain, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    dist = domain.distance(z)
    if np.any(dist > _FEAS_TOL):
        raise InfeasiblePointError(
            f"point outside domain: distance {float(np.max(dist)):.3e} > tol {_FEAS_TOL:.1e}"
        )
    return z


def gap(F: Callable, domain: Domain, z):
    """max_u <F(z), z - u> via the LMO; nonnegative on feasible points."""
    return _maybe_float(_strong_gap(F, domain, _check_feasible(domain, z)))


def _strong_gap(F: Callable, domain: Domain, z) -> np.ndarray:
    """<F(z), z - lmo(F(z))> per row, with no feasibility check: training
    iterates may lie outside the set."""
    g = _values(F, z)
    return np.einsum("...i,...i->...", g, z - domain.lmo(g))


def best_response(game: QuadraticGame, z) -> np.ndarray:
    """w*(z): block i minimizes f_i(., z_{-i}) over Z_i.

    The unconstrained minimizer -Q_i^{-1}(C_i z_{-i} + b_i) is used whenever
    it is feasible; otherwise projected gradient descent with step
    1/lambda_max(Q_i) runs until the projected-gradient norm is <= 1e-10
    (at most 1e5 inner steps).
    """
    return _best_response(game, _check_feasible(game.domain, z))


def _best_response(game: QuadraticGame, z: np.ndarray) -> np.ndarray:
    """best_response past its feasibility check; one eigvalsh per block."""
    parts = []
    for i in range(game.k):
        Q = game.block(i)
        eigs = np.linalg.eigvalsh(Q)
        if float(eigs[0]) <= 0.0:
            raise NumericalError(f"player {i} quadratic block is not positive definite")
        lin = game.others(z, i) @ game.coupling(i).T + game.offset_block(i)
        w = -lin @ np.linalg.inv(Q)  # rows solve Q w = -lin (Q symmetric)
        sub = game.domain.factors[i]
        if not np.all(sub.contains(w, 1e-9)):
            w = _projected_best_response(Q, lin, sub, w, 1.0 / float(eigs[-1]))
        parts.append(w)
    return game.domain.join(parts)


def _projected_best_response(Q: np.ndarray, lin: np.ndarray, sub: Domain,
                             w0: np.ndarray, step: float) -> np.ndarray:
    w = sub.project(w0)
    for _ in range(100_000):
        grad = w @ Q.T + lin
        nxt = sub.project(w - step * grad)
        residual = _row_norms(w - nxt) / step
        w = nxt
        if float(np.max(residual)) <= 1e-10:
            return w
    raise NumericalError(
        f"best-response inner solve stalled: projected-gradient norm "
        f"{float(np.max(residual)):.3e} after 100000 steps"
    )


def weak_gap(game: QuadraticGame, z):
    """<F(z), z - w*(z)> of the game's own operator F, best_response checking z."""
    z = np.asarray(z, dtype=float)
    return _weak_gap_at(game, z, best_response(game, z))


def _weak_gap_at(F: Callable, z: np.ndarray, w: np.ndarray):
    g = _values(F, z)
    return _maybe_float(np.einsum("...i,...i->...", g, z - w))


def potential_gap(game: QuadraticGame, z):
    """sum_i [f_i(z) - min_{w in Z_i} f_i(w, z_{-i})] (best_response checks z); nonnegative."""
    z = np.asarray(z, dtype=float)
    return _potential_gap_at(game, z, best_response(game, z))


def _potential_gap_at(game: QuadraticGame, z: np.ndarray, w: np.ndarray):
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


def gap_report(problem, emp: Callable, domain: Domain, z) -> GapReport:
    """All gap measures of `problem` and its empirical operator `emp` at one
    point, plus true-minus-empirical for the report's kind: the weak gap for
    games, the strong gap otherwise."""
    is_game = isinstance(problem, QuadraticGame)
    z = _check_feasible(domain, z)  # the one check; every measure below skips it
    g_true, g_emp = _strong_gap(problem, domain, z), _strong_gap(emp, domain, z)
    w_true = w_emp = p_gap = None
    if is_game:
        w = _best_response(problem, z)  # w*(z) once
        w_true, w_emp = _weak_gap_at(problem, z, w), _weak_gap_at(emp, z, w)
        p_gap = _potential_gap_at(problem, z, w)
    gen = w_true - w_emp if is_game else g_true - g_emp
    return GapReport(kind="weak_gap" if is_game else "gap", gap_true=float(g_true), gap_empirical=float(g_emp),
                     weak_gap_true=w_true, weak_gap_empirical=w_emp,
                     potential_gap=p_gap, generalization_gap=float(gen))
