"""Brute-force oracles shared by the tests: dense domain grids, vertex lists,
explicit l-inf covers, greedy packings, per-record operators, one-step runs,
one written-out contraction ceiling per method, and small combinatorial
utilities.
Intentionally slow and simple. Also the `pool_sizes` fixture, a spy on the
thread pools the experiments build, and `counted_steps`, a spy on the steps
`solvers.run` computes."""

import concurrent.futures
import contextlib
import itertools
import math

import numpy as np
import pytest

from vilab import (Ball, Box, Product, QuadraticOperator, SampledDataset, Simplex,
                   SolverConfig, run, solvers)
from vilab.problems import _draw_records, _record_streams

_ORD = {"l1": 1, "l2": 2, "linf": np.inf}


def dense_grid(domain, step):
    """Points covering the domain with spacing <= step (low dims only)."""
    if isinstance(domain, Box):
        axes = []
        for lo, hi in zip(domain.lower, domain.upper):
            k = max(2, int(np.ceil((hi - lo) / step)) + 1)
            axes.append(np.linspace(lo, hi, k))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)
    if isinstance(domain, Ball):
        lo = domain.center_point - domain.radius
        hi = domain.center_point + domain.radius
        box = Box(lo, hi)
        pts = dense_grid(box, step)
        return domain.project(pts)
    if isinstance(domain, Simplex):
        m = max(1, int(np.ceil(domain.dim / step)))
        pts = []
        for comb in itertools.product(range(m + 1), repeat=domain.dim - 1):
            last = m - sum(comb)
            if last >= 0:
                pts.append(list(comb) + [last])
        return np.array(pts, dtype=float) / m
    if isinstance(domain, Product):
        grids = [dense_grid(f, step) for f in domain.factors]
        out = []
        for combo in itertools.product(*[range(len(g)) for g in grids]):
            out.append(np.concatenate([g[i] for g, i in zip(grids, combo)]))
        return np.array(out)
    raise TypeError(f"no dense grid for {type(domain)}")


def vertices(domain):
    """Every vertex of a simplex or box, or None for a set without finitely
    many vertices."""
    if isinstance(domain, Simplex):
        return list(np.eye(domain.dim))
    if isinstance(domain, Box):
        return [np.where(upper, domain.upper, domain.lower)
                for upper in itertools.product((False, True), repeat=domain.dim)]
    return None


def linf_cover(domain, r):
    """An explicit l-inf cover of radius r: the centres of cells of side <= 2r
    on a box, ceil(1 + 2R/r) evenly spaced points per axis across a ball's
    bounding box, and the barycentric grid of pitch 1/ceil(dim/r) on a
    simplex (its l1 radius is <= r)."""
    if isinstance(domain, Simplex):
        return dense_grid(domain, r)
    if isinstance(domain, Box):
        counts = np.maximum(1, np.ceil((domain.upper - domain.lower) / (2.0 * r)).astype(int))
        step = (domain.upper - domain.lower) / counts
        axes = [lo + h * (0.5 + np.arange(k)) for lo, h, k in zip(domain.lower, step, counts)]
    else:
        k = int(np.ceil(1.0 + 2.0 * domain.radius / r))
        axes = [np.linspace(c - domain.radius, c + domain.radius, k) for c in domain.center_point]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def greedy_packing_count(points, separation, norm="l2"):
    """Size of a greedy packing with pairwise distance strictly > separation.

    Any packing at separation 2r lower-bounds the covering number at r, so
    this validates covering upper bounds without computing true coverings.
    """
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q, ord=_ORD[norm]) > separation for q in kept):
            kept.append(p)
    return len(kept)


def min_dist_to_set(points, anchors, norm="l2"):
    """Per-point distance to the nearest anchor: every pair, 1024 points at a time."""
    out = np.empty(len(points))
    for s in range(0, len(points), 1024):
        diffs = points[s:s + 1024, None, :] - anchors[None, :, :]
        out[s:s + 1024] = np.linalg.norm(diffs, ord=_ORD[norm], axis=-1).min(axis=-1)
    return out


def record_operator(problem, X, j):
    """Record j's sampled operator (M + E_j) z + b or M z + b + e_j, built from scratch."""
    if X.records.ndim == 2:
        return QuadraticOperator(problem.matrix, problem.offset + X.records[j])
    return QuadraticOperator(problem.matrix + X.records[j], problem.offset)


def neighbour(problem, X, noise, j, seed):
    """A copy of X with record j redrawn from `seed`; X is left as it is."""
    records = X.records.copy()
    records[j] = _draw_records(problem, noise, 1, 1, _record_streams(noise, [seed]))[0]
    return SampledDataset(records)


def one_step(method, op, z, eta):
    """One unprojected gd or eg step from each row of z: a one-step run, whose
    domain only fixes the dimension."""
    return run(op, Ball(np.zeros(op.dim), 1.0), SolverConfig(method, eta, 1), z).final


def gd_ratio_ceiling(mu, L, eta):
    """gd's per-step ratio ceiling sqrt(max(0, 1 - 2 eta mu + eta^2 L^2)),
    written out on its own."""
    return math.sqrt(max(0.0, 1.0 - 2.0 * eta * mu + eta ** 2 * L ** 2))


def eg_squared_ceiling(mu, L, eta):
    """eg's c(eta) = 2 - 2 eta mu + eta^4 L^4 - (2 eta mu + 1)(1 - 2 eta L +
    eta^2 mu^2), written out on its own over a float64 array of etas (0-d for
    one eta), term by term in the library's order, so the two agree bit for
    bit."""
    e = np.asarray(eta, dtype=float)
    return (2.0 - 2.0 * e * mu + e ** 4 * L ** 4
            - (2.0 * e * mu + 1.0) * (1.0 - 2.0 * e * L + e ** 2 * mu ** 2))


def eg_ratio_ceiling(mu, L, eta):
    """eg's per-step ratio ceiling sqrt(max(0, c(eta))) at one eta."""
    return math.sqrt(max(0.0, float(eg_squared_ceiling(mu, L, eta))))


def bisection_monotone_matrix(rng, d, mu, L):
    """`problems._random_monotone_matrix` for mu < L, d >= 2, with a norm-2
    SVD at every bisection midpoint: the same draws, bracket and stop."""
    L_sym = mu + 0.7 * (L - mu)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.sort(rng.uniform(mu, L_sym, size=d))
    eigs[0], eigs[-1] = mu, L_sym
    S = (Q * eigs) @ Q.T
    S = 0.5 * (S + S.T)
    G = rng.standard_normal((d, d))
    A = 0.5 * (G - G.T)
    A /= np.linalg.norm(A, 2)

    def smax(beta):
        return float(np.linalg.norm(S + beta * A, 2))

    hi = 1.0
    while smax(hi) < L:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if smax(mid) >= L:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, L):
            break
    return S + hi * A


def blockwise_game_matrix(seed, k, dims, mu, coupling):
    """`problems.generate_game`'s M for its default domain, assembled block by
    block from a dict of coupling blocks in every halving round: the same
    draws, floor and stop."""
    dims = (dims,) * k if isinstance(dims, int) else tuple(dims)
    d = sum(dims)
    starts = np.cumsum((0,) + dims).tolist()
    slices = [slice(a, b) for a, b in zip(starts, starts[1:])]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    blocks = []
    for di in dims:
        Q, _ = np.linalg.qr(rng.standard_normal((di, di)))
        eigs = rng.uniform(1.5 * mu, 3.0 * mu, size=di)
        B = (Q * eigs) @ Q.T
        blocks.append(0.5 * (B + B.T))
    raw = {}
    for i in range(k):
        for j in range(k):
            if i != j:
                raw[i, j] = rng.standard_normal((dims[i], dims[j])) / math.sqrt(d)
    scale = float(coupling)
    for _ in range(60):
        M = np.zeros((d, d))
        for i in range(k):
            M[slices[i], slices[i]] = blocks[i]
            for j in range(k):
                if i != j:
                    M[slices[i], slices[j]] = scale * raw[i, j]
        if np.linalg.eigvalsh(0.5 * (M + M.T))[0] >= mu or scale == 0.0:
            return M
        scale *= 0.5
    raise AssertionError("the floor was not reached in 60 halvings")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every ThreadPoolExecutor built while the test runs."""
    sizes = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    return sizes


@contextlib.contextmanager
def counted_steps():
    """A one-element list holding the number of steps `solvers.run` computes
    (calls of solvers._step_into) while the block runs."""
    count = [0]
    step = solvers._step_into

    def spy(*args):
        count[0] += 1
        return step(*args)

    solvers._step_into = spy
    try:
        yield count
    finally:
        solvers._step_into = step
