"""Affine monotone operators, quadratic games, and sampled noisy datasets.

An instance is F(z) = M z + b with mu = lambda_min((M + M^T)/2) > 0 and
L = sigma_max(M). Games stack per-player gradients F_i(z) = Q_i z_i +
C_i z_{-i} + b_i into one operator; the per-player potentials
f_i(z) = 1/2 z_i^T Q_i z_i + z_i^T (C_i z_{-i} + b_i) make the stack
conservative player by player.

Noisy samples come in two unbiased kinds (`_NOISE`'s kind):

* offset:  Xi(z, zeta_i) = F(z) + e_i, e_i uniform in a centered ball of
  radius `magnitude` (monotonicity and smoothness of each sample are exact);
* matrix:  Xi(z, zeta_i) = (M + E_i) z + b, E_i a Gaussian G_i scaled by
  magnitude / ||G_i||_2 and drawn once, so by Weyl's inequality
  lambda_min(sym(M + E_i)) >= mu - magnitude (`sampled_constants`, which
  refuses magnitude >= mu). ||G_i||_2 is computed as
  sqrt(lambda_max(G_i^T G_i)): for t x t blocks with t <= 4 as the largest
  root of the Gram's characteristic quartic, elementwise over all records
  (within about 3.3 eps kappa of the SVD value, kappa <= 30; worse-conditioned
  records are recomputed), and for t > 4 from one batched eigvalsh of the
  Gram stack (about 1e-15).

A dataset is one array of records, (n, d) offsets e_i or (n, d, d) matrices
E_i. Record i is a deterministic function of (seed, i), so datasets from one
seed agree record by record and a neighbour redraws one record, leaving the
others. Offset records on a simplex are the exception: the BLAS product into
its tangent subspace has last bits that depend on the record count.

Operators built on a simplex keep its tangent subspace invariant and the
noise is drawn inside that subspace, so every sampled operator still has its
root on the simplex hyperplane.

Every draw is keyed by a seed (a nonnegative int or a list of them) and a
spawn key, and draws what default_rng(SeedSequence(seed, spawn_key=key))
draws. `_stream_states` seeds a whole list of seeds in one numpy pass that
redoes numpy's integer seeding, and `_stream`, the library's one generator
constructor, sets one reused Generator to each seeded state in turn: a
dataset's records take key (0,) (offset radii (1,)), an instance key ().
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .domains import _FEAS_TOL, Ball, Box, Domain, Product, Simplex
from .errors import (_COUNT, _NONNEGATIVE, _POSITIVE, _REQUIRED, ConfigError, GenerationError,
                     InfeasiblePointError, NumericalError, _section, _value)

_REJECTION_BUDGET = 1000
# The inputs checked here, keyed as in the CLI's `problem` (mu_target is mu, L_target L,
# coupling_strength coupling); a base seed is the experiments' too, n a dataset's size.
_NOISE = {"kind": (("offset", "matrix"), None, _REQUIRED),
          "magnitude": (float, _NONNEGATIVE, _REQUIRED)}
_SEED = (int, _NONNEGATIVE, 0)
_OPERATOR = {"seed": _SEED, "d": (int, _COUNT, _REQUIRED), "mu": (float, _POSITIVE, _REQUIRED),
             "L": (float, _POSITIVE, _REQUIRED)}
_GAME = {"seed": _SEED, "k": (int, _COUNT, _REQUIRED), "mu": _OPERATOR["mu"],
         "coupling": (float, _NONNEGATIVE, _REQUIRED)}
_MARGIN = (float, _NONNEGATIVE, None)
_PLAYER_DIM = (int, _COUNT, _REQUIRED)
_DATASET_SIZE = (int, _COUNT, _REQUIRED)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's multiplier
_M32 = 0xFFFF_FFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _words(entropy) -> list:
    """numpy's uint32 coercion of a seed, a nonnegative int or a list of them:
    each part's 32-bit words, least significant first (0 is one word)."""
    words = []
    for part in entropy if isinstance(entropy, (list, tuple)) else [entropy]:
        part = operator.index(part)
        if part < 0:
            raise ValueError(f"seed parts must be nonnegative, got {part}")
        words.append(part & _M32)
        while part := part >> 32:
            words.append(part & _M32)
    return words


def _multipliers(start: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32: start * mult^i mod 2^32, the hash's running multiplier."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values, mult):
    """SeedSequence's hashmix of each row i of `values`, at mult[i] and mult[i + 1]."""
    values = (values ^ mult[:-1]) * mult[1:]
    return values ^ (values >> 16)


def _mix(x, y):
    """SeedSequence's mix of pool words x with hashed words y."""
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> 16)


def _mul_hi(a, b: int):
    """The high 64 bits of each a * b, for uint64 a and a 64-bit int b."""
    a0, a1, b0, b1 = a & _M32, a >> 32, np.uint64(b & _M32), np.uint64(b >> 32)
    low, cross = a0 * b1, a1 * b0
    carry = ((a0 * b0) >> 32) + (low & _M32) + (cross & _M32)
    return a1 * b1 + (low >> 32) + (cross >> 32) + (carry >> 32)


def _stream_states(seeds, key) -> np.ndarray:
    """The PCG64 state of default_rng(SeedSequence(seed, spawn_key=key)) for
    each seed in `seeds` (a nonnegative int or a list of them), as one
    (len(seeds), 4) uint64 array of state and increment, high word first.

    One numpy pass over every seed redoes numpy's own integer seeding: the
    uint32 word coercion, the zero padding to 4 words when a key is given,
    SeedSequence's pool mixing and generate_state(4, uint64), and PCG64's
    two-step srandom."""
    key_words = _words(key)
    rows = [_words(seed) for seed in seeds]
    if key_words:
        rows = [row + [0] * (4 - len(row)) + key_words for row in rows]
    lengths = np.array([len(row) for row in rows])
    width = max(4, int(lengths.max()))
    words = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.uint32).T
    mult = _multipliers(_INIT_A, _MULT_A, 16 + 4 * (width - 4))
    pool = _hashmix(words[:4], mult[:5])  # a missing word hashes as 0
    k = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], mult[k:k + 4]))
        k += 3
    for j in range(4, width):  # words past the pool, each into every pool word
        pool = np.where(lengths > j, _mix(pool, _hashmix(words[j], mult[k:k + 5])), pool)
        k += 4
    out = _hashmix(np.concatenate([pool, pool]), _multipliers(_INIT_B, _MULT_B, 8))
    out = out.astype(np.uint64)
    v0, v1, v2, v3 = out[0::2] | (out[1::2] << 32)  # generate_state(4, uint64)
    # srandom(initstate v0:v1, initseq v2:v3): inc = 2 initseq + 1, then
    # state = ((inc + initstate) * multiplier + inc) mod 2^128
    inc_hi, inc_lo = (v2 << 1) | (v3 >> 63), (v3 << 1) | np.uint64(1)
    s_lo = inc_lo + v1
    s_hi = inc_hi + v0 + (s_lo < v1)
    p_lo = s_lo * np.uint64(_PCG_LO)
    p_hi = _mul_hi(s_lo, _PCG_LO) + s_lo * np.uint64(_PCG_HI) + s_hi * np.uint64(_PCG_LO)
    state_lo = p_lo + inc_lo
    state_hi = p_hi + inc_hi + (state_lo < p_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


def _stream(states):
    """The one random-stream constructor: yields one PCG64 Generator, set in
    turn to each row of `states` (_stream_states(seeds, key)), so its i-th
    yield draws what default_rng(SeedSequence(seeds[i], spawn_key=key))
    draws, bit for bit (`tests/test_streams.py::
    test_bulk_streams_draw_what_numpy_draws`). Take each stream's draws
    before the next: setting a state costs about 2 us, where building a
    Generator costs about 14."""
    rng = np.random.Generator(np.random.PCG64(0))
    state = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    for state_hi, state_lo, inc_hi, inc_lo in states.tolist():
        state["state"], state["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        rng.bit_generator.state = full
        yield rng


def _prescaled(a) -> tuple:
    """(a / 2^scale, scale) with max |a / 2^scale| in [0.5, 1): an exact
    scaling, after which squares cannot overflow or flush to zero."""
    a = np.asarray(a, dtype=float)
    _, scale = math.frexp(max(float(a.max()), -float(a.min())))
    return np.ldexp(a, -scale), scale


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value via power iteration on M^T M, run until the
    Rayleigh quotient moves by <= 1e-10 relative (at most 50,000 steps) from
    a fixed pseudo-random start, so results are deterministic. M is first
    prescaled (_prescaled) and the result scaled back. Tested against
    numpy's SVD."""
    M, scale = _prescaled(M)
    B = M.T @ M
    d = B.shape[0]
    v = next(_stream(_stream_states([0], ()))).standard_normal(d)
    v /= np.linalg.norm(v)
    lam = float(v @ B @ v)
    for _ in range(50_000):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ B @ v)
        if abs(lam_new - lam) <= 1e-10 * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return math.ldexp(math.sqrt(max(lam, 0.0)), scale)


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

    def __call__(self, z) -> np.ndarray:
        return _apply_affine(self.matrix, self.offset, np.asarray(z, dtype=float))

    def as_operator(self) -> "QuadraticOperator":
        return self


@dataclass(eq=False, kw_only=True)
class QuadraticGame(QuadraticOperator):
    """k-player quadratic game on a product of one factor per player; block
    row i of `matrix` is [.. Q_i .. C_i ..]."""

    domain: Product

    def __post_init__(self):
        super().__post_init__()
        d = self.dim
        if self.matrix.shape != (d, d) or self.offset.shape != (d,):
            raise ValueError("a game needs one (d, d) matrix and one (d,) offset")
        if not isinstance(self.domain, Product) or self.domain.dim != d:
            raise ValueError(f"a game's domain must be a Product of dim {d}")
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
        return len(self.slices)

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
        self.magnitude = float(_section(_NOISE, vars(self), "")["magnitude"])


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
    and closed-form for balls, and ||b|| is taken prescaled (_prescaled).
    """
    if domain is None:
        domain = getattr(problem, "domain", None)
    if domain is None:
        raise ValueError("constants() needs a domain for plain operators")
    if domain.dim != problem.dim:
        raise ValueError("domain dimension does not match the operator")
    mu = monotonicity_modulus(problem.matrix)
    L = max(spectral_norm(problem.matrix), mu)  # sigma_max >= mu; the iteration may end ulps low
    b, scale = _prescaled(problem.offset)
    K = L * domain.max_point_norm() + math.ldexp(float(np.linalg.norm(b)), scale)
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


def exact_solution(problem, domain: Optional[Domain] = None) -> np.ndarray:
    """Root of the affine operator, checked to lie within _FEAS_TOL of the domain when given."""
    try:
        z = np.linalg.solve(problem.matrix, -problem.offset)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"operator matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(z)):
        raise NumericalError("operator root is not finite")
    if domain is None:
        domain = getattr(problem, "domain", None)
    if domain is not None and not bool(domain.contains(z, _FEAS_TOL)):
        raise InfeasiblePointError(
            f"operator root lies outside the domain (distance {float(domain.distance(z)):.3e})"
        )
    return z


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _skew_window(smax, f0: float, hi: float, f_hi: float, L: float, err: float) -> tuple:
    """Skew scales (below, above) around the root of smax(beta) = L such that
    every computed smax(beta) is < L for 0 <= beta <= below and >= L for
    beta >= above, so the bisection need not compute those.

    smax(beta) = sigma_max(S + beta*A) with A skew is convex and even in beta
    (S - beta*A is the transpose of S + beta*A), hence nondecreasing on
    [0, inf). With each computed value within `err` of the exact one, a
    computed smax(below) < L - 2*err and smax(above) >= L + 2*err settle those
    comparisons. A secant in (beta^2, smax^2), a nearly straight curve both
    near 0 and for large beta, runs from (0, f0 ~ smax(0)) and (hi, f_hi) until
    it lands within err of L; two probes 4*err/slope either side close the
    window. Every probed beta is >= 0, where the monotonicity holds.
    """
    lo, up = 0.0, hi  # smax(lo) < L <= smax(up)
    (a, fa), (b, fb) = (0.0, f0), (hi, f_hi)
    seen = [(b, fb)]
    for _ in range(12):
        den = fb * fb - fa * fa
        u = b * b - (fb * fb - L * L) * (b * b - a * a) / den if den else -1.0
        x = math.sqrt(u) if lo * lo < u < up * up else 0.5 * (lo + up)
        fx = smax(x)
        if fx < L:
            lo = x
        else:
            up = x
        (a, fa), (b, fb) = (b, fb), (x, fx)
        seen.append((x, fx))
        if abs(fx - L) <= err:
            break
    if (fb - fa) * (b - a) > 0.0:
        step = 4.0 * err * (b - a) / (fb - fa)
        seen += [(x, smax(x)) for x in (max(b - step, 0.0), b + step)]
    below = max((x for x, f in seen if f < L - 2.0 * err), default=0.0)
    above = min((x for x, f in seen if f >= L + 2.0 * err), default=math.inf)
    return below, above


def _random_monotone_matrix(rng: np.random.Generator, d: int, mu: float, L: float) -> np.ndarray:
    """Square matrix with lambda_min(sym) = mu and sigma_max = L, for 0 < mu <= L."""
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
        f_hi = smax(hi)
        if f_hi >= L:
            break
        hi *= 2.0
    else:
        raise GenerationError("could not bracket the skew scale")
    # 16 d eps L bounds the error of each computed smax with a wide margin
    below, above = _skew_window(smax, L_sym, hi, f_hi, L, 16 * d * np.finfo(float).eps * L)
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid >= above or (mid > below and smax(mid) >= L):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, L):
            break
    return S + hi * A


def _place_interior_root(rng: np.random.Generator, domain: Domain, margin=None) -> np.ndarray:
    """A draw of `domain.sample` at least `margin` inside the domain, by default
    0.25/dim on a simplex (its coordinates shrink like 1/dim, which would starve
    a diameter-based margin) and 0.05 * diameter elsewhere, games included."""
    if margin is None:
        margin = 0.25 / domain.dim if isinstance(domain, Simplex) else 0.05 * domain.diameter()
    _value(_MARGIN, margin, "interior_margin")
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
    """Random certified instance with its root inside `domain`; lambda_min(sym
    M) = mu and sigma_max(M) = L are checked once, on M, to 1e-9.

    On a simplex the matrix keeps the sum-zero tangent subspace invariant:
    the tangent block carries the mu/L targets and the normal direction gets
    an eigenvalue inside [mu, L], so checking M checks the block, and the
    dynamics restricted to the simplex hyperplane stay there.
    """
    _section(_OPERATOR, {"seed": seed, "d": d, "mu": mu_target, "L": L_target}, "")
    if domain is None:
        domain = Ball(np.zeros(d), 1.0)
    if domain.dim != d:
        raise ValueError(f"domain dim {domain.dim} != requested d {d}")
    if mu_target > L_target:
        raise GenerationError(f"need 0 < mu <= L < inf, got mu={mu_target}, L={L_target}")
    rng, = _stream(_stream_states([seed], ()))
    if isinstance(domain, Simplex):
        basis = domain.tangent_basis()  # (d-1, d) orthonormal rows
        t = basis.shape[0]
        if t == 1:
            Mt = np.array([[mu_target]])
            c = L_target
        else:
            Mt = _random_monotone_matrix(rng, t, mu_target, L_target)
            c = 0.5 * (mu_target + L_target)
        M = basis.T @ Mt @ basis + c * np.full((d, d), 1.0 / d)
    else:
        M = _random_monotone_matrix(rng, d, mu_target, L_target)
        basis = None
    if abs(monotonicity_modulus(M) - mu_target) > 1e-9 or \
            abs(np.linalg.norm(M, 2) - L_target) > 1e-9:
        raise GenerationError("generated matrix missed its mu/L certificates")
    root = _place_interior_root(rng, domain, interior_margin)
    return QuadraticOperator(M, -M @ root, tangent_basis=basis)


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
    couplings start at `coupling_strength` (>= 0) scale and are halved (at
    most 60 times) until the global monotonicity floor holds.
    """
    _section(_GAME, {"seed": seed, "k": k, "mu": mu_target, "coupling": coupling_strength}, "")
    dims = (dims,) * k if np.ndim(dims) == 0 else dims  # one size for every player
    dims = tuple(int(_value(_PLAYER_DIM, x, f"dims[{i}]")) for i, x in enumerate(dims))
    if len(dims) != k:
        raise ValueError(f"expected {k} player dims, got {len(dims)}")
    if domain is None:
        domain = Product(tuple(Box(-np.ones(di), np.ones(di)) for di in dims))
    if not isinstance(domain, Product) or [f.dim for f in domain.factors] != list(dims):
        raise ValueError("a game's domain must be a product of one factor per player "
                         "with the player's dimension")
    rng, = _stream(_stream_states([seed], ()))
    d, slices = domain.dim, domain.slices

    blocks = []
    for di in dims:
        Q, _ = np.linalg.qr(rng.standard_normal((di, di)))
        eigs = rng.uniform(1.5 * mu_target, 3.0 * mu_target, size=di)
        B = (Q * eigs) @ Q.T
        blocks.append(0.5 * (B + B.T))
    C = np.zeros((d, d))  # unscaled couplings; the diagonal blocks stay zero
    for i in range(k):
        for j in range(k):
            if i != j:
                C[slices[i], slices[j]] = rng.standard_normal((dims[i], dims[j])) / math.sqrt(d)

    scale = float(coupling_strength)
    for _ in range(60):
        M = scale * C  # blocks written over, not added: 0.0 + -0.0 is +0.0
        for s, block in zip(slices, blocks):
            M[s, s] = block
        if monotonicity_modulus(M) >= mu_target or scale == 0.0:
            break
        scale *= 0.5
    else:
        raise GenerationError(
            f"could not reach mu >= {mu_target} by weakening couplings "
            f"(achieved {monotonicity_modulus(M):.3e})"
        )

    root = _place_interior_root(rng, domain, interior_margin)
    return QuadraticGame(M, -M @ root, domain=domain)


# ---------------------------------------------------------------------------
# noisy datasets
# ---------------------------------------------------------------------------


def _draw_offsets(rows: int, streams, count: int, dim: int, magnitude: float,
                  basis: Optional[np.ndarray]) -> np.ndarray:
    """Uniform draws from a centered ball (in the tangent subspace if given),
    `count` for each of `rows` seeds in order, in one buffer: directions from
    the seeds' key (0,) streams, radii from their key (1,) streams (`streams`).

    Every pass works row by row (squared norms per seed, the scaling in
    place), so record i of a seed is a fixed function of (seed, i) regardless
    of count, except in a tangent subspace: each seed's `e @ basis` product
    has count-dependent bits.
    """
    t = dim if basis is None else basis.shape[0]
    total = rows * count
    e, norms, radii = np.empty((total, t)), np.empty(total), np.empty(total)
    parts = [slice(k * count, (k + 1) * count) for k in range(rows)]
    for part, e_rng, r_rng in zip(parts, *streams):
        e_rng.standard_normal(out=e[part])
        np.add.reduce(np.square(e[part]), axis=-1, out=norms[part])
        r_rng.random(out=radii[part])
    e /= np.maximum(np.sqrt(norms, out=norms), 1e-300, out=norms)[:, None]
    e *= (magnitude * radii ** (1.0 / t))[:, None]
    if basis is None:
        return e
    del norms, radii  # not held beside the tangent images
    out = np.empty((total, dim))
    for part in parts:
        np.matmul(e[part], basis, out=out[part])
    return out


def _gram_lambda_max(G: np.ndarray) -> np.ndarray:
    """lambda_max(G_i^T G_i) for a (count, t, t) stack, from one batched
    eigvalsh of the Gram stack."""
    return np.linalg.eigvalsh(np.matmul(np.swapaxes(G, -1, -2), G))[:, -1]


_UPPER = tuple((j, k) for j in range(4) for k in range(j, 4))  # (0, 0), (0, 1), ..., (3, 3)
_ROW_STARTS = (0, 4, 7, 9)  # where row j's entries begin in _UPPER
_PAIRS = tuple((j, k) for j, k in _UPPER if j < k)
_LAGUERRE_STEPS = 50
_KAPPA_MAX = 30.0


def _gram_charpoly(G: np.ndarray) -> tuple:
    """(||G_i||_F^2, c1, c2, c3, c4) for a (count, t, t) stack with t <= 4:
    det(x I - a_i) = x^4 - c1 x^3 + c2 x^2 - c3 x + c4 for the Gram
    a_i = G_i^T G_i / ||G_i||_F^2, each c_k the sum of a_i's k x k principal
    minors. Every op is elementwise over the records (no reduction whose
    order could depend on their number), and a_i has trace 1, so no c_k
    over- or underflows."""
    count, t = G.shape[:2]
    g = np.zeros((4, 4, count))  # component-major, zero-padded to 4 x 4
    g[:t, :t] = np.moveaxis(G, 0, -1)
    upper = np.empty((10, count))  # G^T G, entries in _UPPER order
    for j, lo in enumerate(_ROW_STARTS):  # entries (j, j), ..., (j, 3)
        part = upper[lo:lo + 4 - j]
        np.multiply(g[0, j:], g[0, j], out=part)
        for row in g[1:]:
            part += row[j:] * row[j]
    scale = (upper[0] + upper[4]) + (upper[7] + upper[9])  # the trace
    upper /= scale
    a = {}
    for (j, k), entry in zip(_UPPER, upper):
        a[j, k] = a[k, j] = entry

    def minor(r, s, j, k):
        return a[r, j] * a[s, k] - a[r, k] * a[s, j]

    top = {(j, k): minor(0, 1, j, k) for j, k in _PAIRS}      # rows 0, 1
    bottom = {(j, k): minor(2, 3, j, k) for j, k in _PAIRS}   # rows 2, 3
    c1 = (a[0, 0] + a[1, 1]) + (a[2, 2] + a[3, 3])
    c2 = ((top[0, 1] + bottom[2, 3]) + (minor(0, 2, 0, 2) + minor(0, 3, 0, 3))
          + (minor(1, 2, 1, 2) + minor(1, 3, 1, 3)))
    # the 3 x 3 principal minors leaving out index 0, 1, 2, 3, each expanded
    # along one of its rows into 2 x 2 minors of rows (2, 3) or (0, 1)
    c3 = ((a[1, 1] * bottom[2, 3] - a[1, 2] * bottom[1, 3] + a[1, 3] * bottom[1, 2])
          + (a[0, 0] * bottom[2, 3] - a[0, 2] * bottom[0, 3] + a[0, 3] * bottom[0, 2])
          + (a[3, 0] * top[1, 3] - a[3, 1] * top[0, 3] + a[3, 3] * top[0, 1])
          + (a[2, 0] * top[1, 2] - a[2, 1] * top[0, 2] + a[2, 2] * top[0, 1]))
    # Laplace expansion along rows (0, 1)
    c4 = ((top[0, 1] * bottom[2, 3] - top[0, 2] * bottom[1, 3] + top[0, 3] * bottom[1, 2])
          + (top[1, 2] * bottom[0, 3] - top[1, 3] * bottom[0, 2] + top[2, 3] * bottom[0, 1]))
    return scale, c1, c2, c3, c4


def _charpoly_slope(x, c):
    """p'(x) for p(x) = x^4 - c[0] x^3 + c[1] x^2 - c[2] x + c[3], where
    c[4] = 3 c[0] and c[5] = 2 c[1]."""
    return ((4.0 * x - c[4]) * x + c[5]) * x - c[2]


def _charpoly_half_curvature(x, c):
    """p''(x) / 2 for the p of `_charpoly_slope`."""
    return (6.0 * x - c[4]) * x + c[1]


def _quartic_lambda_max(G: np.ndarray) -> np.ndarray:
    """lambda_max(G_i^T G_i) for a (count, t, t) stack with t <= 4, as the
    largest root of the Gram's characteristic polynomial p (`_gram_charpoly`).

    Laguerre's method runs down from ||a_i||_F = sqrt(c1^2 - 2 c2) >= lambda.
    p has only real roots, so each step lands between the root and the
    current point and convergence is cubic. A record stops at its first step
    that does not decrease; only the records still moving are carried on, so
    a record's bits depend on its own draw, not on the batch. The root's
    relative error is at most about 6.5 eps kappa (3.3 eps kappa in
    ||G_i||_2), kappa = lambda^3 / p'(lambda). A record is recomputed by
    `_gram_lambda_max` when its kappa is above 30 (the top two singular
    values within about 2%), its root is not a number (a zero record's, or
    a Laguerre step's at a multiple root), it is still moving after 50
    steps, or its root is not certified the largest: rounding near a double
    top root can throw a step past it, and the descent then ends on a lower
    root. That is 0.29% of Gaussian 4 x 4 records.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        scale, c1, c2, c3, c4 = _gram_charpoly(G)
        coef = np.stack([c1, c2, c3, c4, 3.0 * c1, 2.0 * c2])
        x_live = np.sqrt(c1 * c1 - 2.0 * c2)
        x, live, c_live = x_live.copy(), np.arange(len(x_live)), coef
        for _ in range(_LAGUERRE_STEPS):
            k1, k2, k3, k4 = c_live[:4]
            p = (((x_live - k1) * x_live + k2) * x_live - k3) * x_live + k4
            dp = _charpoly_slope(x_live, c_live)
            half_ddp = _charpoly_half_curvature(x_live, c_live)
            step = 4.0 * p / (dp + np.sqrt(9.0 * dp * dp - 24.0 * p * half_ddp))
            x[live] = x_next = np.minimum(x_live, x_live - step)  # a NaN step stops at NaN
            moved = np.flatnonzero(x_next < x_live)
            if moved.size < live.size:
                live, x_next, c_live = live[moved], x_next[moved], c_live.take(moved, axis=1)
            x_live = x_next
            if not live.size:
                break
        # x is the largest root when p(x + s) has no root s > 0, which for a
        # real-rooted p (Descartes' rule) holds when its Taylor coefficients
        # at x, p', p''/2 and p'''/6 = 4 x - c1, are all positive
        redo = ~((x * x * x <= _KAPPA_MAX * _charpoly_slope(x, coef))
                 & (_charpoly_half_curvature(x, coef) > 0.0) & (4.0 * x > c1))
    redo[live] = True
    lam = scale * x
    if redo.any():
        lam[redo] = _gram_lambda_max(G[redo])
    return lam


def _draw_matrices(rows: int, streams, count: int, dim: int, magnitude: float,
                   basis: Optional[np.ndarray]) -> np.ndarray:
    """Spectral-norm-normalized Gaussian perturbations E_i = magnitude *
    G_i / ||G_i||_2, `count` for each of `rows` seeds in order, G_i from the
    seeds' key (0,) streams (`streams`). Each record is drawn
    once and kept, so the records are independent and centred (rejecting the
    records below a monotonicity floor would bias their mean); Weyl's
    inequality certifies what every M + E_i satisfies (sampled_constants).

    ||G_i||_2 = sqrt(lambda_max(G_i^T G_i)). For t <= 4 it comes from
    `_quartic_lambda_max`: 4x faster than the Gram + eigvalsh route on
    4,096 4 x 4 records (1.3 against 5.5 ms, one 2-vCPU host), 20x slower on
    one (210 against 9 us), since its op count is fixed, so all seeds'
    records fill one buffer, scaled in place, and take one call. Larger t
    keeps the eigvalsh route, the only one there. Both routes work record by
    record, so record i of a seed depends on (seed, i) only. The kernel's
    relative error in ||G_i||_2 is about 3.3 eps kappa <= 100 eps at most
    (the eigvalsh route's is about 1e-15), so ||E_i||_2 equals magnitude to
    that precision.
    """
    t = dim if basis is None else basis.shape[0]
    G = np.empty((rows * count, t, t))
    for k, rng in zip(range(rows), *streams):  # one (count, t, t) draw per seed
        rng.standard_normal(out=G[k * count:(k + 1) * count])
    lam = _quartic_lambda_max(G) if t <= 4 else _gram_lambda_max(G)
    G *= magnitude
    G /= np.maximum(np.sqrt(np.maximum(lam, 0.0)), 1e-300)[:, None, None]
    return G if basis is None else np.einsum("ti,ntu,uj->nij", basis, G, basis)


@dataclass(eq=False)
class SampledDataset:
    """n noisy operator samples: record i is e_i added to b, or E_i added to M."""

    records: np.ndarray  # (n, d) offsets or (n, d, d) matrix perturbations

    @property
    def n(self) -> int:
        return self.records.shape[0]

    @property
    def dim(self) -> int:
        return self.records.shape[-1]


# The spawn keys each noise kind's records draw from: directions and radii, or Gaussians.
_RECORD_KEYS = {"offset": ((0,), (1,)), "matrix": ((0,),)}


def _record_streams(noise: NoiseModel, seeds) -> list:
    """One _stream over `seeds` per key in _RECORD_KEYS[noise.kind]."""
    return [_stream(_stream_states(seeds, key)) for key in _RECORD_KEYS[noise.kind]]


def _draw_records(problem, noise: NoiseModel, count: int, rows: int, streams) -> np.ndarray:
    """The `count` records of each of the next `rows` seeds of `streams`
    (_record_streams), in order."""
    d, basis = problem.dim, problem.tangent_basis
    draw = _draw_offsets if noise.kind == "offset" else _draw_matrices
    return draw(rows, streams, count, d, noise.magnitude, basis)


def sample_dataset(problem, noise: NoiseModel, n: int, seed) -> SampledDataset:
    """n records drawn from `seed`, a nonnegative int or a list of them (the
    entropy trial_dataset_seed gives)."""
    _value(_DATASET_SIZE, n, "n")
    seed = _value(([_SEED], None) if isinstance(seed, list) else _SEED, seed, "seed")
    return SampledDataset(_draw_records(problem, noise, n, 1, _record_streams(noise, [seed])))


def empirical_operator(problem, X: SampledDataset) -> QuadraticOperator:
    """Average of the dataset's sampled operators. Each record is affine, so
    the average is too: evaluating it equals averaging record evaluations."""
    if X.dim != problem.dim:
        raise ValueError("dataset dimension does not match the operator")
    mean = X.records.mean(axis=0)  # b + 0.0 is a fresh array where a -0.0 of b reads +0.0
    M, e = (problem.matrix, mean) if mean.ndim == 1 else (problem.matrix + mean, 0.0)
    return QuadraticOperator(M, problem.offset + e, problem.tangent_basis)


def sampled_constants(consts: ProblemConstants, noise: NoiseModel,
                      domain: Domain) -> ProblemConstants:
    """The constants that every sampled operator, and so every dataset
    average, satisfies. Offset noise moves only K, by the magnitude m.
    Matrix noise has ||E_i||_2 = m, so by Weyl's inequality lambda_min(sym)
    >= mu - m, sigma_max <= L + m and sup_Z ||Xi|| <= K + m * max_Z ||z||;
    ConfigError when m >= mu, where Weyl certifies no strong monotonicity."""
    m = noise.magnitude
    if noise.kind == "offset":
        return replace(consts, K=consts.K + m)
    if m >= consts.mu:
        raise ConfigError(f"matrix noise of magnitude {m} certifies no strong monotonicity: "
                          f"it must be below mu = {consts.mu:.6g}")
    return replace(consts, mu=consts.mu - m, L=consts.L + m,
                   K=consts.K + m * domain.max_point_norm())
