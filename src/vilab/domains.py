"""Feasible sets: probability simplex, Euclidean ball, box, and products.

Every domain is a compact convex subset of R^dim and offers the same small
toolkit: membership, Euclidean projection, diameter, a linear minimization
oracle (LMO), covering-number upper bounds, and uniform sampling. All
point-valued operations accept batches: arrays of shape (..., dim) are
handled along the last axis.

Conventions
-----------
* Simplex(d) is the standard d-simplex embedded in R^{d+1}:
  {z : z >= 0, sum z = 1}, vertices e_1 .. e_{d+1}.
* contains(z, tol) means Euclidean distance from z to the set is <= tol.
* LMO(g) returns argmin_{u in Z} <g, u> with deterministic tie-breaking
  (lowest vertex index on the simplex, lower corner on boxes, center for
  g = 0 on balls).
* diameter() is the l2 diameter max ||z - z'||_2 over the set.
* covering_number_upper(r) never underestimates the l-inf covering number
  N(Z, r, l-inf). It is an exact Python int at any dimension; on boxes and
  balls an explicit grid cover attains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import _COUNT, _POSITIVE, _checked


def _as_points(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (dim,):
        raise ValueError(f"dimension mismatch: point has shape {z.shape}, domain dim is {dim}")
    return z


def _finite_array(a, name: str) -> np.ndarray:
    """a as a float array, at least 1-d; ValueError unless it holds finite ints or floats."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf" or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must hold finite integers or floats, got {a!r}")
    return np.atleast_1d(np.asarray(a, dtype=float))


def _row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), with the squares in one C-ordered scratch
    array so the row sums' order (and last bits) ignore the layout of x."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, order="C"), axis=-1,
                                 keepdims=keepdims))


def _simplex_project(v: np.ndarray, out=None) -> np.ndarray:
    # Euclidean projection onto {x >= 0, sum x = 1}, batched on the last axis.
    # Sort descending, find the largest k with u_k > (cumsum_k - 1)/k, clip.
    m = v.shape[-1]
    u = -np.sort(-v, axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    ks = np.arange(1, m + 1, dtype=float)
    cond = u - css / ks > 0.0
    rho = np.count_nonzero(cond, axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0, out=out)


class Domain:
    """Common interface; concrete variants carry the geometry."""

    dim: int

    # membership / projection -------------------------------------------------

    def distance(self, z) -> np.ndarray:
        """Euclidean distance from z (batched) to the set."""
        z = _as_points(z, self.dim)
        return _row_norms(z - self.project(z))

    def contains(self, z, tol: float = 1e-9):
        """True where z is within tol of the set in the Euclidean norm."""
        return self.distance(z) <= tol

    def project(self, z, out=None) -> np.ndarray:
        """Euclidean projection, batched. With `out` (z's shape, may be z) the
        result is written there and returned, with the same bits."""
        raise NotImplementedError

    def contains_interior(self, z, margin: float):
        """True where z sits at least margin inside the boundary."""
        raise NotImplementedError

    # geometry ----------------------------------------------------------------

    def diameter(self) -> float:
        """max ||z - z'||_2 over the set."""
        raise NotImplementedError

    def center(self) -> np.ndarray:
        raise NotImplementedError

    def max_point_norm(self) -> float:
        """Exact max_{z in Z} ||z||_2 (vertices where finite, else closed form)."""
        raise NotImplementedError

    def lmo(self, g) -> np.ndarray:
        """Linear minimization oracle: argmin_{u in Z} <g, u>, batched."""
        raise NotImplementedError

    # covering ----------------------------------------------------------------

    def covering_number_upper(self, r: float) -> int:
        """Upper bound on the number of l-inf balls of radius r covering the set."""
        raise NotImplementedError

    # sampling ----------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        raise NotImplementedError


@dataclass(eq=False)
class Simplex(Domain):
    """Standard d-simplex in R^{d+1}."""

    d: int

    def __post_init__(self):
        _checked(self.d, "d", int, _COUNT)
        self.dim = self.d + 1

    def project(self, z, out=None) -> np.ndarray:
        return _simplex_project(_as_points(z, self.dim), out)

    def contains_interior(self, z, margin: float):
        z = _as_points(z, self.dim)
        on_plane = np.abs(z.sum(axis=-1) - 1.0) <= 1e-9
        return on_plane & np.all(z >= margin, axis=-1)

    def diameter(self) -> float:
        return math.sqrt(2.0)  # ||e_i - e_j||_2

    def center(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)

    def max_point_norm(self) -> float:
        return 1.0

    def lmo(self, g) -> np.ndarray:
        g = _as_points(g, self.dim)
        idx = np.argmin(g, axis=-1)  # lowest index on ties
        out = np.zeros(g.shape, dtype=float)
        np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
        return out

    def tangent_basis(self) -> np.ndarray:
        """Rows: an orthonormal basis of the sum-zero subspace, shape (d, d+1)."""
        ones = np.ones((1, self.dim))
        _, _, vh = np.linalg.svd(ones, full_matrices=True)
        return vh[1:]

    def covering_number_upper(self, r: float) -> int:
        r = _checked(r, "r", float, _POSITIVE)
        # l2 volumetric bound inside the d-dimensional affine hull, whose ball
        # has circumradius sqrt(d/(d+1)); an l-inf ball of radius r contains
        # the l2 ball of radius r, so l-inf covering is no harder.
        radius = math.sqrt(self.d / (self.d + 1))
        return int(math.ceil(1.0 + 2.0 * radius / r)) ** self.d

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        shape = (self.dim,) if size is None else (size, self.dim)
        e = rng.exponential(size=shape)
        return e / e.sum(axis=-1, keepdims=True)


@dataclass(eq=False)
class Ball(Domain):
    """Euclidean ball {z : ||z - center|| <= radius}."""

    center_point: np.ndarray
    radius: float

    def __post_init__(self):
        self.center_point = _finite_array(self.center_point, "ball center")
        self.radius = float(_checked(self.radius, "radius", float, _POSITIVE))
        self.dim = self.center_point.shape[0]

    def project(self, z, out=None) -> np.ndarray:
        z = _as_points(z, self.dim)
        delta = np.subtract(z, self.center_point, out=out)
        dist = _row_norms(delta, keepdims=True)
        scale = np.where(dist > self.radius, self.radius / np.maximum(dist, 1e-300), 1.0)
        delta *= scale
        return np.add(self.center_point, delta, out=delta)

    def contains_interior(self, z, margin: float):
        z = _as_points(z, self.dim)
        return _row_norms(z - self.center_point) <= self.radius - margin

    def diameter(self) -> float:
        return 2.0 * self.radius

    def center(self) -> np.ndarray:
        return self.center_point.copy()

    def max_point_norm(self) -> float:
        return float(np.linalg.norm(self.center_point)) + self.radius

    def lmo(self, g) -> np.ndarray:
        g = _as_points(g, self.dim)
        nrm = _row_norms(g, keepdims=True)
        safe = np.maximum(nrm, 1e-300)
        step = np.where(nrm > 0.0, -self.radius * g / safe, 0.0)
        return self.center_point + step

    def covering_number_upper(self, r: float) -> int:
        # the l2 volumetric count per axis: ceil(1 + 2R/r) points spaced at
        # most r apart across [c-R, c+R] leave every point of the ball within
        # l-inf r/2 of the grid
        r = _checked(r, "r", float, _POSITIVE)
        return int(math.ceil(1.0 + 2.0 * self.radius / r)) ** self.dim

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        n = 1 if size is None else size
        x = rng.standard_normal((n, self.dim))
        x /= np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-300)
        u = rng.random(n) ** (1.0 / self.dim)
        pts = self.center_point + self.radius * u[:, None] * x
        return pts[0] if size is None else pts


@dataclass(eq=False)
class Box(Domain):
    """Axis-aligned box {z : lower <= z <= upper}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _finite_array(self.lower, "box lower bound")
        self.upper = _finite_array(self.upper, "box upper bound")
        if self.lower.shape != self.upper.shape:
            raise ValueError("box bounds must share a shape")
        if not np.all(self.lower < self.upper):
            raise ValueError("box requires finite bounds with lower < upper coordinatewise")
        self.dim = self.lower.shape[0]

    def project(self, z, out=None) -> np.ndarray:
        return np.clip(_as_points(z, self.dim), self.lower, self.upper, out=out)

    def contains_interior(self, z, margin: float):
        z = _as_points(z, self.dim)
        return np.all((z >= self.lower + margin) & (z <= self.upper - margin), axis=-1)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def max_point_norm(self) -> float:
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def lmo(self, g) -> np.ndarray:
        g = _as_points(g, self.dim)
        # negative coefficients push to the upper face, ties go to lower
        return np.where(g < 0.0, self.upper, self.lower * np.ones_like(g))

    def covering_number_upper(self, r: float) -> int:
        # cells of side <= 2r per axis; their centres cover within l-inf r.
        # Python ints: a product of per-axis counts overflows int64 by d = 19.
        cell = 2.0 * _checked(r, "r", float, _POSITIVE)
        return math.prod(max(1, math.ceil(s / cell)) for s in (self.upper - self.lower).tolist())

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        shape = (self.dim,) if size is None else (size, self.dim)
        return self.lower + rng.random(shape) * (self.upper - self.lower)


@dataclass(eq=False)
class Product(Domain):
    """Cartesian product of factor domains, concatenated coordinates."""

    factors: tuple

    def __post_init__(self):
        self.factors = tuple(self.factors)
        if not self.factors:
            raise ValueError("product needs at least one factor")
        dims = [f.dim for f in self.factors]
        self.dim = int(sum(dims))
        offs = np.concatenate([[0], np.cumsum(dims)])
        self.slices = tuple(slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:]))

    def split(self, z) -> list:
        z = _as_points(z, self.dim)
        return [z[..., s] for s in self.slices]

    def join(self, parts) -> np.ndarray:
        return np.concatenate([np.asarray(p, dtype=float) for p in parts], axis=-1)

    def project(self, z, out=None) -> np.ndarray:
        out = np.empty(np.shape(z)) if out is None else out
        for f, p, s in zip(self.factors, self.split(z), self.slices):
            f.project(p, out=out[..., s])  # factor by factor, in place when out is z
        return out

    def contains_interior(self, z, margin: float):
        parts = self.split(z)
        ok = self.factors[0].contains_interior(parts[0], margin)
        for f, p in zip(self.factors[1:], parts[1:]):
            ok = ok & f.contains_interior(p, margin)
        return ok

    def diameter(self) -> float:
        ds = [f.diameter() for f in self.factors]
        return math.sqrt(sum(d * d for d in ds))

    def center(self) -> np.ndarray:
        return self.join([f.center() for f in self.factors])

    def max_point_norm(self) -> float:
        return math.sqrt(sum(f.max_point_norm() ** 2 for f in self.factors))

    def lmo(self, g) -> np.ndarray:
        return self.join([f.lmo(p) for f, p in zip(self.factors, self.split(g))])

    def covering_number_upper(self, r: float) -> int:
        # an l-inf ball is the product of the factors' l-inf balls
        return math.prod(f.covering_number_upper(r) for f in self.factors)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        parts = [f.sample(rng, size) for f in self.factors]
        return self.join(parts)
