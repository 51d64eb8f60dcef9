"""Brute-force oracles shared by the tests: dense domain grids, greedy
packings, per-record operators, and small combinatorial utilities.
Intentionally slow and simple."""

import itertools

import numpy as np

from vilab import Ball, Box, Product, QuadraticOperator, Simplex

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
    """Record j's sampled operator (M + E_j) z + b + e_j, built from scratch."""
    op = problem.as_operator()
    M = op.matrix if X.matrices is None else op.matrix + X.matrices[j]
    return QuadraticOperator(M, op.offset + X.offsets[j])
