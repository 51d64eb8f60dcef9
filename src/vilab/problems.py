"""Affine monotone operators, quadratic games, and sampled noisy datasets.

An instance is F(z) = M z + b with mu = lambda_min((M + M^T)/2) > 0 and
L = sigma_max(M). Games stack per-player gradients F_i(z) = Q_i z_i +
C_i z_{-i} + b_i into one operator; the per-player potentials
f_i(z) = 1/2 z_i^T Q_i z_i + z_i^T (C_i z_{-i} + b_i) make the stack
conservative player by player.

Noisy samples come in two unbiased flavours:

* offset:  Xi(z, zeta_i) = F(z) + e_i, e_i uniform in a centered ball of
  radius `magnitude` (monotonicity and smoothness of each sample are exact);
* matrix:  Xi(z, zeta_i) = (M + E_i) z + b, ||E_i||_2 = magnitude with
  lambda_min(sym(M + E_i)) kept >= mu/2 by per-record rejection. E_i is a
  Gaussian G_i scaled by magnitude / ||G_i||_2, and ||G_i||_2 is computed as
  sqrt(lambda_max(G_i^T G_i)) from one batched eigvalsh of the Gram stack
  (about 1e-15 relative to the SVD value, at a fraction of its cost).

Record i of a dataset is a deterministic function of (seed, i), so two
datasets from the same seed agree record by record and neighbouring datasets
(one record replaced) can be formed without touching the others.

Operators built on a simplex keep its tangent subspace invariant and the
noise is drawn inside that subspace, so every sampled operator still has its
root on the simplex hyperplane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import Ball, Box, Domain, Product, Simplex
from .errors import GenerationError, InfeasiblePointError, NumericalError

_REJECTION_BUDGET = 1000


def spectral_norm(M: np.ndarray, rel_tol: float = 1e-10, max_iter: int = 50_000) -> float:
    """Largest singular value via power iteration on M^T M.

    The starting vector is a fixed pseudo-random draw, so results are
    deterministic. Tested against numpy's SVD.
    """
    M = np.asarray(M, dtype=float)
    B = M.T @ M
    d = B.shape[0]
    v = np.random.default_rng(0).standard_normal(d)
    v /= np.linalg.norm(v)
    lam = float(v @ B @ v)
    for _ in range(max_iter):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ B @ v)
        if abs(lam_new - lam) <= rel_tol * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(max(lam, 0.0))


def monotonicity_modulus(M: np.ndarray) -> float:
    """lambda_min of the symmetric part."""
    M = np.asarray(M, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def _apply_affine(matrix, offset, z, out=None) -> np.ndarray:
    """matrix @ z + offset over (..., dim); a (B, d, d) stack acts row by row."""
    if matrix.ndim == 2:
        product = np.matmul(z, matrix.T, out=out)
    else:
        product = np.einsum("bij,bj->bi", matrix, z, out=out)
    return np.add(product, offset, out=out)


@dataclass(eq=False)
class QuadraticOperator:
    """F(z) = matrix @ z + offset, batched over (..., dim); a (B, d, d) matrix
    stack or (B, d) offsets make B operators, one per row of (B, d) points."""

    matrix: np.ndarray
    offset: np.ndarray
    tangent_basis: Optional[np.ndarray] = None  # rows orthonormal; noise subspace

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.offset = np.atleast_1d(np.asarray(self.offset, dtype=float))
        m, o = self.matrix, self.offset
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"matrix must be square or a stack of squares, got shape {m.shape}")
        if o.ndim > 2 or o.shape[-1] != m.shape[-1] or (m.ndim == 3 and o.shape != m.shape[:2]):
            raise ValueError("offset length must match matrix size")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def evaluate(self, z) -> np.ndarray:
        return _apply_affine(self.matrix, self.offset, np.asarray(z, dtype=float))

    __call__ = evaluate

    def as_operator(self) -> "QuadraticOperator":
        return self


@dataclass(eq=False)
class QuadraticGame:
    """k-player quadratic game; block row i of `matrix` is [.. Q_i .. C_i ..]."""

    dims: tuple
    matrix: np.ndarray
    offset: np.ndarray
    domain: Product

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        d = sum(self.dims)
        if self.matrix.shape != (d, d) or self.offset.shape != (d,):
            raise ValueError("matrix/offset shapes do not match player dims")
        if not isinstance(self.domain, Product) or \
                [f.dim for f in self.domain.factors] != list(self.dims):
            raise ValueError("a game's domain must be a product of one factor per player "
                             "with the player's dimension")
        self.slices = self.domain.slices
        self._others_idx = tuple(
            np.array([j for j in range(d) if j < s.start or j >= s.stop], dtype=int)
            for s in self.slices
        )
        for i, s in enumerate(self.slices):
            Q = self.matrix[s, s]
            if not np.allclose(Q, Q.T, atol=1e-10):
                raise ValueError(f"player {i} quadratic block is not symmetric")

    @property
    def k(self) -> int:
        return len(self.dims)

    dim = QuadraticOperator.dim
    evaluate = __call__ = QuadraticOperator.evaluate

    def block(self, i: int) -> np.ndarray:
        s = self.slices[i]
        return self.matrix[s, s]

    def coupling(self, i: int) -> np.ndarray:
        return self.matrix[self.slices[i]][:, self._others_idx[i]]

    def offset_block(self, i: int) -> np.ndarray:
        return self.offset[self.slices[i]]

    def others(self, z, i: int) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z[..., self._others_idx[i]]

    def as_operator(self) -> QuadraticOperator:
        return QuadraticOperator(self.matrix, self.offset)

    def potential(self, i: int, z) -> np.ndarray:
        """f_i(z) = 1/2 z_i^T Q_i z_i + z_i^T (C_i z_{-i} + b_i), batched."""
        z = np.asarray(z, dtype=float)
        zi = z[..., self.slices[i]]
        lin = self.others(z, i) @ self.coupling(i).T + self.offset_block(i)
        quad = 0.5 * np.einsum("...i,...i->...", zi, zi @ self.block(i).T)
        return quad + np.einsum("...i,...i->...", zi, lin)


@dataclass(eq=False)
class NoiseModel:
    kind: str
    magnitude: float

    def __post_init__(self):
        if self.kind not in ("offset", "matrix"):
            raise ValueError(f"noise kind must be 'offset' or 'matrix', got {self.kind!r}")
        self.magnitude = float(self.magnitude)
        if self.magnitude < 0.0:
            raise ValueError(f"noise magnitude must be >= 0, got {self.magnitude}")


@dataclass(frozen=True)
class ProblemConstants:
    """Certified instance constants used by every closed-form bound."""

    mu: float
    L: float
    K: float
    D: float
    per_player: tuple  # ((mu_i, L_i), ...)

    @property
    def smoothness_ratio_sum(self) -> float:
        return float(sum(Li / mi for mi, Li in self.per_player))


def constants(problem, domain: Optional[Domain] = None) -> ProblemConstants:
    """mu, L, K, D for an operator or game on a domain.

    K = sigma_max(M) * max_{z in Z} ||z|| + ||b|| is a certified upper bound
    on sup_Z ||F||; the point-norm max is vertex-exact for boxes/simplexes
    and closed-form for balls.
    """
    if domain is None:
        domain = getattr(problem, "domain", None)
    if domain is None:
        raise ValueError("constants() needs a domain for plain operators")
    op = problem.as_operator()
    if domain.dim != op.dim:
        raise ValueError("domain dimension does not match the operator")
    mu = monotonicity_modulus(op.matrix)
    L = spectral_norm(op.matrix)
    K = L * domain.max_point_norm() + float(np.linalg.norm(op.offset))
    D = domain.diameter()
    if isinstance(problem, QuadraticGame):
        per = []
        for i in range(problem.k):
            mi = float(np.linalg.eigvalsh(problem.block(i))[0])
            Li = spectral_norm(problem.matrix[problem.slices[i], :])
            per.append((mi, Li))
        per_player = tuple(per)
    else:
        per_player = ((mu, L),)
    return ProblemConstants(mu=mu, L=L, K=K, D=D, per_player=per_player)


def exact_solution(problem, domain: Optional[Domain] = None, tol: float = 1e-6) -> np.ndarray:
    """Root of the affine operator, checked against the domain when given."""
    op = problem.as_operator()
    try:
        z = np.linalg.solve(op.matrix, -op.offset)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"operator matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(z)):
        raise NumericalError("operator root is not finite")
    if domain is None:
        domain = getattr(problem, "domain", None)
    if domain is not None and not bool(domain.contains(z, tol)):
        raise InfeasiblePointError(
            f"operator root lies outside the domain (distance {float(domain.distance(z)):.3e})"
        )
    return z


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _random_monotone_matrix(rng: np.random.Generator, d: int, mu: float, L: float) -> np.ndarray:
    """Square matrix with lambda_min(sym) = mu and sigma_max = L (both 1e-9)."""
    if not 0.0 < mu <= L:
        raise GenerationError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if math.isclose(mu, L, rel_tol=1e-12, abs_tol=0.0):
        return mu * np.eye(d)
    if d == 1:
        raise GenerationError("a 1x1 matrix forces mu == L; cannot hit distinct targets")
    # symmetric part pins mu; the skew magnitude is then tuned so the full
    # matrix hits sigma_max = L. sigma_max(S + beta*A) is convex in beta and
    # grows without bound, so a single bisection bracket suffices.
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
    for _ in range(200):
        if smax(hi) >= L:
            break
        hi *= 2.0
    else:
        raise GenerationError("could not bracket the skew scale")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if smax(mid) >= L:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, L):
            break
    M = S + hi * A
    if abs(monotonicity_modulus(M) - mu) > 1e-9 or abs(np.linalg.norm(M, 2) - L) > 1e-9:
        raise GenerationError("generated matrix missed its mu/L certificates")
    return M


def _place_interior_root(
    rng: np.random.Generator, domain: Domain, margin: float
) -> np.ndarray:
    for _ in range(_REJECTION_BUDGET):
        z = domain.sample(rng)
        if bool(domain.contains_interior(z, margin)):
            return z
    raise GenerationError(
        f"could not place an interior root within {_REJECTION_BUDGET} draws "
        f"(margin {margin:.3g} too large for this domain?)"
    )


def generate_operator(
    seed: int,
    d: int,
    mu_target: float,
    L_target: float,
    domain: Optional[Domain] = None,
    interior_margin: Optional[float] = None,
) -> QuadraticOperator:
    """Random certified instance with its root inside `domain`.

    On a simplex the matrix keeps the sum-zero tangent subspace invariant:
    the tangent block carries the mu/L targets and the normal direction gets
    an eigenvalue inside [mu, L], so certificates hold in the full space while
    the dynamics restricted to the simplex hyperplane stay there.
    """
    if domain is None:
        domain = Ball(np.zeros(d), 1.0)
    if domain.dim != d:
        raise ValueError(f"domain dim {domain.dim} != requested d {d}")
    if interior_margin is None:
        # simplex coordinates shrink like 1/dim, so a diameter-based margin
        # would starve the rejection sampler there
        if isinstance(domain, Simplex):
            interior_margin = 0.25 / domain.dim
        else:
            interior_margin = 0.05 * domain.diameter()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(domain, Simplex):
        B = domain.tangent_basis()  # (d-1, d) orthonormal rows
        t = B.shape[0]
        if t == 1:
            Mt = np.array([[mu_target]])
            c = L_target
        else:
            Mt = _random_monotone_matrix(rng, t, mu_target, L_target)
            c = 0.5 * (mu_target + L_target)
        M = B.T @ Mt @ B + c * np.full((d, d), 1.0 / d)
        basis = B
    else:
        M = _random_monotone_matrix(rng, d, mu_target, L_target)
        basis = None
    root = _place_interior_root(rng, domain, interior_margin)
    op = QuadraticOperator(M, -M @ root, tangent_basis=basis)
    if abs(monotonicity_modulus(M) - mu_target) > 1e-9:
        raise GenerationError("mu certificate missed")
    if abs(np.linalg.norm(M, 2) - L_target) > 1e-9:
        raise GenerationError("L certificate missed")
    return op


def generate_game(
    seed: int,
    k: int,
    dims,
    mu_target: float,
    coupling_strength: float,
    domain: Optional[Product] = None,
    interior_margin: Optional[float] = None,
) -> QuadraticGame:
    """Random k-player quadratic game with lambda_min(sym(M)) >= mu_target.

    Per-player blocks are SPD with eigenvalues in [1.5, 3] * mu_target;
    couplings start at `coupling_strength` scale and are halved (at most 60
    times) until the global monotonicity floor holds.
    """
    if isinstance(dims, int):
        dims = (dims,) * k
    dims = tuple(int(x) for x in dims)
    if len(dims) != k:
        raise ValueError(f"expected {k} player dims, got {len(dims)}")
    if mu_target <= 0.0:
        raise ValueError("mu_target must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = sum(dims)
    offs = np.concatenate([[0], np.cumsum(dims)])
    slices = [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]

    blocks = []
    for di in dims:
        Q, _ = np.linalg.qr(rng.standard_normal((di, di)))
        eigs = rng.uniform(1.5 * mu_target, 3.0 * mu_target, size=di)
        B = (Q * eigs) @ Q.T
        blocks.append(0.5 * (B + B.T))
    raw_couplings = {}
    for i in range(k):
        for j in range(k):
            if i != j:
                raw_couplings[(i, j)] = rng.standard_normal((dims[i], dims[j])) / math.sqrt(d)

    scale = float(coupling_strength)
    for _ in range(60):
        M = np.zeros((d, d))
        for i in range(k):
            M[slices[i], slices[i]] = blocks[i]
            for j in range(k):
                if i != j:
                    M[slices[i], slices[j]] = scale * raw_couplings[(i, j)]
        if monotonicity_modulus(M) >= mu_target or scale == 0.0:
            break
        scale *= 0.5
    else:
        raise GenerationError(
            f"could not reach mu >= {mu_target} by weakening couplings "
            f"(achieved {monotonicity_modulus(M):.3e})"
        )

    if domain is None:
        domain = Product(tuple(Box(-np.ones(di), np.ones(di)) for di in dims))
    if domain.dim != d:
        raise ValueError("domain dimension does not match player dims")
    if interior_margin is None:
        interior_margin = 0.05 * domain.diameter()
    root = _place_interior_root(rng, domain, interior_margin)
    return QuadraticGame(dims=dims, matrix=M, offset=-M @ root, domain=domain)


# ---------------------------------------------------------------------------
# noisy datasets
# ---------------------------------------------------------------------------


def _stream(seed, key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _draw_offsets(seed, count: int, dim: int, magnitude: float,
                  basis: Optional[np.ndarray]) -> np.ndarray:
    """Uniform draws from a centered ball (in the tangent subspace if given).

    Directions and radii come from separate substreams so record i is a fixed
    function of (seed, i) regardless of count.
    """
    t = dim if basis is None else basis.shape[0]
    dirs = _stream(seed, (0,)).standard_normal((count, t))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=-1, keepdims=True), 1e-300)
    radii = _stream(seed, (1,)).random(count) ** (1.0 / t)
    e = magnitude * radii[:, None] * dirs
    if basis is not None:
        e = e @ basis
    return e


def _below_floor(sym: np.ndarray, E: np.ndarray, mu_floor: float) -> np.ndarray:
    """Indices i with lambda_min(sym + sym(E_i)) < mu_floor, one batched eigvalsh."""
    lam = np.linalg.eigvalsh(sym + 0.5 * (E + np.transpose(E, (0, 2, 1))))[:, 0]
    return np.nonzero(lam < mu_floor)[0]


def _draw_matrices(seed, count: int, dim: int, magnitude: float,
                   basis: Optional[np.ndarray], base_matrix: np.ndarray,
                   mu_floor: float) -> np.ndarray:
    """Spectral-norm-normalized Gaussian perturbations with a monotonicity
    floor: lambda_min(sym(M + E_i)) >= mu_floor, enforced per record so
    rejections never disturb neighbouring records.

    ||G_i||_2 = sqrt(lambda_max(G_i^T G_i)), one batched eigvalsh of the
    Gram stack (about half the cost of a batched SVD), for the bulk draw and
    the single-record redraws alike, so record i depends on (seed, i) only.
    Its relative error is about 1e-15, so ||E_i||_2 equals magnitude to that
    precision; the Weyl skip below keeps a margin of
    1e-9 * ||sym M|| >= 1e-9 * magnitude there, far above that error.
    """
    t = dim if basis is None else basis.shape[0]
    G = _stream(seed, (0,)).standard_normal((count, t, t))

    def normalize(block):
        gram = np.matmul(np.swapaxes(block, -1, -2), block)
        s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
        return magnitude * block / np.maximum(s, 1e-300)[..., None, None]

    E = normalize(G)
    if basis is not None:
        E = np.einsum("ti,ntu,uj->nij", basis, E, basis)
    if magnitude == 0.0:
        return E
    sym = 0.5 * (base_matrix + base_matrix.T)
    # Weyl: lambda_min(sym(M + E_i)) >= lambda_min(sym M) - ||E_i||_2, and
    # ||E_i||_2 = magnitude. When that clears the floor by a margin far above
    # eigvalsh's rounding, no record can be rejected: skip the batched check.
    eigs = np.linalg.eigvalsh(sym)
    if magnitude < eigs[0] - mu_floor - 1e-9 * np.max(np.abs(eigs)):
        return E
    for i in _below_floor(sym, E, mu_floor):
        for attempt in range(200):
            g = _stream(seed, (2, int(i), attempt)).standard_normal((t, t))
            cand = normalize(g)
            if basis is not None:
                cand = basis.T @ cand @ basis
            lam_i = np.linalg.eigvalsh(sym + 0.5 * (cand + cand.T))[0]
            if lam_i >= mu_floor:
                E[i] = cand
                break
        else:
            raise GenerationError(
                f"matrix-noise record {i} could not satisfy the mu/2 floor; "
                f"magnitude {magnitude} is too large for mu {2 * mu_floor}"
            )
    return E


@dataclass(eq=False)
class SampledDataset:
    """n noisy operator samples: record i is (E_i, e_i) added to (M, b)."""

    noise: NoiseModel
    offsets: np.ndarray            # (n, d)
    matrices: Optional[np.ndarray]  # (n, d, d) for matrix noise, else None

    @property
    def n(self) -> int:
        return self.offsets.shape[0]

    @property
    def dim(self) -> int:
        return self.offsets.shape[1]

    def mean_offset(self) -> np.ndarray:
        if self.noise.kind == "matrix":  # offsets are a zero broadcast
            return np.zeros(self.dim)
        return self.offsets.mean(axis=0)

    def mean_matrix(self) -> Optional[np.ndarray]:
        return None if self.matrices is None else self.matrices.mean(axis=0)


def _draw_records(problem, noise: NoiseModel, count: int, seed):
    """(offsets, matrices) of `count` records drawn from `seed`."""
    op = problem.as_operator()
    if noise.kind == "offset":
        return _draw_offsets(seed, count, op.dim, noise.magnitude, op.tangent_basis), None
    mu_floor = 0.5 * monotonicity_modulus(op.matrix)
    E = _draw_matrices(seed, count, op.dim, noise.magnitude, op.tangent_basis,
                       op.matrix, mu_floor)
    # read-only zero offsets; no (n, d) buffer for a noise kind that has none
    return np.broadcast_to(np.zeros(op.dim), (count, op.dim)), E


def sample_dataset(problem, noise: NoiseModel, n: int, seed: int) -> SampledDataset:
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    return SampledDataset(noise, *_draw_records(problem, noise, n, seed))


def replace_record(problem, X: SampledDataset, j: int, seed: int) -> SampledDataset:
    """Neighbouring dataset: record j redrawn from `seed`, others untouched."""
    if not 0 <= j < X.n:
        raise ValueError(f"record index {j} out of range for n={X.n}")
    new_offsets, new_matrices = _draw_records(problem, X.noise, 1, seed)
    if X.matrices is None:
        offsets = X.offsets.copy()
        offsets[j] = new_offsets[0]
        return SampledDataset(X.noise, offsets, None)
    matrices = X.matrices.copy()
    matrices[j] = new_matrices[0]
    return SampledDataset(X.noise, X.offsets, matrices)


def empirical_operator(problem, X: SampledDataset) -> QuadraticOperator:
    """Average of the dataset's sampled operators. Each record is affine, so
    the average is too: evaluating it equals averaging record evaluations."""
    op = problem.as_operator()
    if X.dim != op.dim:
        raise ValueError("dataset dimension does not match the operator")
    M = op.matrix if X.matrices is None else op.matrix + X.mean_matrix()
    return QuadraticOperator(M, op.offset + X.mean_offset(), op.tangent_basis)


def noisy_operator_ceiling(consts: ProblemConstants, noise: NoiseModel,
                           domain: Domain) -> float:
    """Upper bound on sup_{z,zeta} ||Xi(z, zeta)||: the K that per-sample
    operators actually satisfy."""
    if noise.kind == "offset":
        return consts.K + noise.magnitude
    return consts.K + noise.magnitude * domain.max_point_norm()
