import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vilab import problems
from vilab.analysis import _trial_operators
from vilab import (
    Ball,
    Box,
    GenerationError,
    InfeasiblePointError,
    NoiseModel,
    NumericalError,
    Product,
    QuadraticGame,
    QuadraticOperator,
    Simplex,
    SolverConfig,
    constants,
    empirical_operator,
    exact_solution,
    generate_game,
    generate_operator,
    monotonicity_modulus,
    run,
    sample_dataset,
    sampled_constants,
    spectral_norm,
)

from helpers import bisection_monotone_matrix, blockwise_game_matrix, record_operator


def small_game(seed=0, k=3, dims=2, mu=0.5, coupling=0.4):
    return generate_game(seed, k, dims, mu, coupling)


class TestOperators:
    def test_evaluate_example(self):
        op = QuadraticOperator(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([1.0, -1.0]))
        assert np.allclose(op(np.array([1.0, 1.0])), [3.0, 1.0])

    def test_batched_evaluate(self):
        rng = np.random.default_rng(0)
        op = QuadraticOperator(rng.normal(size=(3, 3)), rng.normal(size=3))
        z = rng.normal(size=(4, 5, 3))
        vals = op(z)
        assert vals.shape == z.shape
        for i in range(4):
            for j in range(5):
                assert np.allclose(vals[i, j], op.matrix @ z[i, j] + op.offset)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QuadraticOperator(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            QuadraticOperator(np.eye(2), np.zeros(3))

    def test_stacked_operator_matches_per_batch_formulas(self):
        # a (B, d, d) stack or a shared matrix with (B, d) offsets evaluates
        # row b of Z with operator b, with the bits of the plain formulas
        rng = np.random.default_rng(5)
        B, d = 6, 4
        shared, stack = rng.normal(size=(d, d)), rng.normal(size=(B, d, d))
        offs, Z = rng.normal(size=(B, d)), rng.normal(size=(B, d))
        for op, expected in ((QuadraticOperator(shared, offs), Z @ shared.T + offs),
                             (QuadraticOperator(stack, offs),
                              np.einsum("bij,bj->bi", stack, Z) + offs)):
            assert op.dim == d
            assert np.array_equal(op(Z), expected)
        for b in range(B):
            assert np.allclose(QuadraticOperator(stack, offs)(Z)[b],
                               QuadraticOperator(stack[b], offs[b])(Z[b]))

    def test_stack_shape_validation(self):
        stack, offs = np.zeros((3, 2, 2)), np.zeros((3, 2))
        for matrix, offset in ((stack, offs[:2]), (stack, np.zeros(2)),
                               (np.zeros((3, 2, 3)), offs), (np.zeros((1, 3, 2, 2)), offs),
                               (np.eye(2), np.zeros((1, 3, 2)))):
            with pytest.raises(ValueError):
                QuadraticOperator(matrix, offset)


class TestSpectralNorm:
    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            scale = 10.0 ** rng.uniform(-3, 3)
            M = scale * rng.normal(size=(d, d))
            want = np.linalg.norm(M, 2)
            got = spectral_norm(M)
            assert abs(got - want) <= 1e-7 * max(want, 1e-12)

    def test_structured_cases(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0
        assert np.isclose(spectral_norm(np.diag([3.0, -5.0, 1.0])), 5.0)
        A = np.array([[0.0, 2.0], [-2.0, 0.0]])  # skew
        assert np.isclose(spectral_norm(A), 2.0, rtol=1e-9)
        v = np.array([[1.0], [2.0], [2.0]])
        assert np.isclose(spectral_norm(v @ v.T), 9.0, rtol=1e-9)

    def test_modulus(self):
        M = np.array([[1.0, 4.0], [0.0, 1.0]])  # sym part eigs 1 -/+ 2
        assert np.isclose(monotonicity_modulus(M), -1.0)
        assert np.isclose(monotonicity_modulus(np.diag([2.0, 7.0])), 2.0)


class TestGamePotentials:
    def test_single_player_example(self):
        dom = Product((Box(np.array([-5.0]), np.array([5.0])),))
        g = QuadraticGame(np.array([[2.0]]), np.array([-2.0]), domain=dom)
        assert np.isclose(g.potential(0, np.array([1.0])), -1.0)
        assert np.isclose(g.potential(0, np.array([0.0])), 0.0)

    def test_gradient_matches_operator(self):
        # F_i is the z_i-gradient of f_i: central differences, h = 1e-5
        g = small_game(seed=2)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(20):
            z = g.domain.sample(rng)
            F = g(z)
            for i in range(g.k):
                s = g.slices[i]
                for loc, j in enumerate(range(s.start, s.stop)):
                    zp, zm = z.copy(), z.copy()
                    zp[j] += h
                    zm[j] -= h
                    fd = (g.potential(i, zp) - g.potential(i, zm)) / (2.0 * h)
                    assert abs(fd - F[j]) <= 1e-6

    def test_blocks_assemble_operator(self):
        g = small_game(seed=4)
        rng = np.random.default_rng(5)
        z = g.domain.sample(rng)
        F = g(z)
        for i in range(g.k):
            want = g.block(i) @ z[g.slices[i]] + g.coupling(i) @ g.others(z, i) + g.offset_block(i)
            assert np.allclose(F[g.slices[i]], want)

    def test_potential_depends_on_own_block_quadratically(self):
        # f_i is linear in z_{-i}: second difference in opponents vanishes
        g = small_game(seed=6)
        rng = np.random.default_rng(7)
        z = g.domain.sample(rng)
        i = 1
        direction = np.zeros(g.dim)
        other_idx = g._others_idx[i]
        direction[other_idx] = rng.normal(size=len(other_idx))
        f0 = g.potential(i, z - direction)
        f1 = g.potential(i, z)
        f2 = g.potential(i, z + direction)
        assert abs(f2 - 2.0 * f1 + f0) <= 1e-9

    def test_validation(self):
        dom = Product((Box(-np.ones(2), np.ones(2)),))
        M = np.array([[1.0, 0.5], [0.0, 1.0]])  # asymmetric own-block
        with pytest.raises(ValueError, match="not symmetric"):
            QuadraticGame(M, np.zeros(2), domain=dom)
        with pytest.raises(ValueError):
            QuadraticGame(np.eye(3), np.zeros(3), domain=dom)


class TestConstants:
    def test_identity_on_unit_ball(self):
        op = QuadraticOperator(np.eye(2), np.zeros(2))
        c = constants(op, Ball(np.zeros(2), 1.0))
        assert np.isclose(c.mu, 1.0)
        assert np.isclose(c.L, 1.0)
        assert np.isclose(c.K, 1.0)
        assert np.isclose(c.D, 2.0)
        assert c.per_player == ((c.mu, c.L),)

    def test_operator_norm_never_exceeds_k(self):
        rng = np.random.default_rng(8)
        dom = Box(np.array([-1.0, 0.5]), np.array([2.0, 3.0]))
        op = generate_operator(9, 2, 0.5, 2.0, domain=dom)
        c = constants(op, dom)
        pts = dom.sample(rng, 20000)
        assert np.linalg.norm(op(pts), axis=-1).max() <= c.K + 1e-9

    def test_game_per_player_constants(self):
        for seed in range(5):
            g = small_game(seed=seed)
            c = constants(g)
            assert c.mu >= 0.5 - 1e-12
            for mi, Li in c.per_player:
                assert mi >= c.mu - 1e-9  # own blocks interlace the sym part
                assert Li <= c.L + 1e-9   # block rows are submatrices
            assert np.isclose(
                c.smoothness_ratio_sum, sum(Li / mi for mi, Li in c.per_player)
            )

    @pytest.mark.parametrize("s", [1e-170, 1e155, 1e160])
    def test_K_at_extreme_scales(self, s):
        # ||b|| squares b's entries: unscaled, they overflow at 1e155 (K = inf)
        # or flush to zero at 1e-170 (K < ||b||); prescaled, K reads 1.3797 s
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(1, 2, s, s, domain=dom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = constants(op, dom)
        assert math.isfinite(c.K)
        assert c.K >= math.hypot(*op.offset.tolist())
        assert abs(c.K - 1.3797 * s) <= 1e-4 * s

    @pytest.mark.parametrize("s", [1e-170, 1e-150, 1e150, 1e160])
    def test_L_at_extreme_scales(self, s):
        # M = s I: M^T M flushes to zero or overflows unless M is first
        # scaled by a power of two; L, never below mu, then reads s to rounding
        dom = Ball(np.zeros(2), 1.0)
        c = constants(generate_operator(1, 2, s, s, domain=dom), dom)
        assert c.L >= c.mu
        assert abs(c.L - s) <= 3e-16 * s

    def test_needs_domain(self):
        op = QuadraticOperator(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            constants(op)
        with pytest.raises(ValueError):
            constants(op, Ball(np.zeros(3), 1.0))


class TestExactSolution:
    def test_example(self):
        op = QuadraticOperator(2.0 * np.eye(2), np.array([-2.0, 0.0]))
        z = exact_solution(op)
        assert np.allclose(z, [1.0, 0.0])
        assert np.allclose(op(z), 0.0)

    def test_domain_check(self):
        op = QuadraticOperator(np.eye(2), np.array([-3.0, 0.0]))  # root (3, 0)
        with pytest.raises(InfeasiblePointError):
            exact_solution(op, Ball(np.zeros(2), 1.0))

    def test_singular(self):
        op = QuadraticOperator(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(NumericalError):
            exact_solution(op)


class TestGenerateOperator:
    def test_certificates(self):
        # independent oracle: numpy eigvalsh / SVD rather than power iteration
        for seed in range(8):
            op = generate_operator(seed, 5, 0.7, 2.5)
            sym = 0.5 * (op.matrix + op.matrix.T)
            assert abs(np.linalg.eigvalsh(sym)[0] - 0.7) <= 1e-9
            assert abs(np.linalg.svd(op.matrix, compute_uv=False)[0] - 2.5) <= 1e-9

    def test_root_is_interior(self):
        dom = Ball(np.zeros(4), 2.0)
        op = generate_operator(10, 4, 1.0, 3.0, domain=dom)
        z = exact_solution(op, dom)
        assert bool(dom.contains_interior(z, 0.04 * dom.diameter()))

    def test_monotone_and_lipschitz_along_samples(self):
        rng = np.random.default_rng(11)
        dom = Ball(np.zeros(3), 1.5)
        op = generate_operator(12, 3, 0.6, 2.0, domain=dom)
        z = dom.sample(rng, 1000)
        w = dom.sample(rng, 1000)
        dz = z - w
        dF = op(z) - op(w)
        inner = np.einsum("ij,ij->i", dF, dz)
        sq = np.einsum("ij,ij->i", dz, dz)
        assert np.all(inner >= 0.6 * sq * (1.0 - 1e-9))
        assert np.all(np.linalg.norm(dF, axis=-1) <= 2.0 * np.sqrt(sq) * (1.0 + 1e-9))

    def test_deterministic(self):
        a = generate_operator(13, 4, 0.5, 1.5)
        b = generate_operator(13, 4, 0.5, 1.5)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.offset, b.offset)

    def test_equal_targets_give_scaled_identity(self):
        op = generate_operator(14, 3, 1.2, 1.2)
        assert np.allclose(op.matrix, 1.2 * np.eye(3))
        # targets equal to 1e-12 relative but 5e-9 apart: mu * I misses L
        with pytest.raises(GenerationError):
            generate_operator(14, 3, 1e4, 1e4 * (1.0 + 5e-13))

    def test_one_dim_distinct_targets_rejected(self):
        with pytest.raises(GenerationError):
            generate_operator(15, 1, 0.5, 1.0, domain=Box(np.array([-1.0]), np.array([1.0])))

    def test_bad_targets(self):
        with pytest.raises(GenerationError):
            generate_operator(16, 3, 0.0, 1.0)
        with pytest.raises(GenerationError):
            generate_operator(16, 3, 2.0, 1.0)

    @pytest.mark.parametrize("mu, L", [(0.5, math.inf), (0.5, math.nan), (math.nan, 1.0),
                                       (math.inf, math.inf)])
    def test_non_finite_targets_rejected(self, mu, L):
        # refused before any draw, where an infinite L would end in numpy's
        # uniform() with OverflowError
        with pytest.raises(GenerationError, match="L < inf"):
            generate_operator(0, 2, mu, L)

    def test_simplex_structure(self):
        dom = Simplex(3)
        op = generate_operator(17, dom.dim, 0.8, 2.0, domain=dom)
        ones = np.ones(dom.dim)
        # the all-ones direction is an eigenvector, eigenvalue in [mu, L]
        img = op.matrix @ ones
        lam = img[0] / ones[0]
        assert np.allclose(img, lam * ones, atol=1e-12)
        assert 0.8 - 1e-9 <= lam <= 2.0 + 1e-9
        # sum-zero vectors stay sum-zero, so simplex dynamics stay on the hull
        rng = np.random.default_rng(18)
        v = rng.normal(size=dom.dim)
        v -= v.mean()
        assert abs((op.matrix @ v).sum()) <= 1e-12
        # certificates hold in the full space
        sym = 0.5 * (op.matrix + op.matrix.T)
        assert abs(np.linalg.eigvalsh(sym)[0] - 0.8) <= 1e-9
        assert abs(np.linalg.svd(op.matrix, compute_uv=False)[0] - 2.0) <= 1e-9
        # the root lies on the simplex
        z = exact_solution(op, dom)
        assert bool(dom.contains(z, tol=1e-9))

    def test_simplex_order_one(self):
        dom = Simplex(1)
        op = generate_operator(19, 2, 0.5, 1.5, domain=dom)
        sym = 0.5 * (op.matrix + op.matrix.T)
        assert abs(np.linalg.eigvalsh(sym)[0] - 0.5) <= 1e-9
        assert abs(np.linalg.svd(op.matrix, compute_uv=False)[0] - 1.5) <= 1e-9


class TestDefaultMargin:
    """interior_margin=None takes the documented margin: 0.25/dim on a
    simplex, 0.05 * diameter elsewhere, a game's product domain included."""

    @staticmethod
    def assert_same_bits(a, b):
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.offset.tobytes() == b.offset.tobytes()

    @pytest.mark.parametrize("dom", [Ball(np.full(4, 0.5), 2.0), Box(-np.ones(4), 2 * np.ones(4)),
                                     Simplex(3)], ids=["ball", "box", "simplex"])
    def test_operator(self, dom):
        margin = 0.25 / dom.dim if isinstance(dom, Simplex) else 0.05 * dom.diameter()
        for seed in range(20):
            self.assert_same_bits(generate_operator(seed, 4, 0.6, 1.8, dom),
                                  generate_operator(seed, 4, 0.6, 1.8, dom, margin))

    def test_game(self):
        dom = Product((Ball(np.zeros(2), 1.5), Box(-np.ones(1), np.ones(1)), Simplex(2)))
        for seed in range(20):
            self.assert_same_bits(
                generate_game(seed, 3, (2, 1, 3), 0.5, 0.4, dom),
                generate_game(seed, 3, (2, 1, 3), 0.5, 0.4, dom, 0.05 * dom.diameter()))


class TestSkewScale:
    """The skew-scale bisection skips only comparisons that convexity decides,
    so every matrix equals the plain bisection's bit for bit."""

    @staticmethod
    def assert_same_bits(seed, d, mu, L):
        ss = np.random.SeedSequence(seed)
        got = problems._random_monotone_matrix(np.random.default_rng(ss), d, mu, L)
        want = bisection_monotone_matrix(np.random.default_rng(ss), d, mu, L)
        assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 24),
           mu=st.floats(1e-3, 10.0),
           ratio=st.one_of(st.floats(1.0 + 1e-9, 1.0 + 1e-4), st.floats(1.0 + 1e-4, 1e4)))
    def test_matches_plain_bisection(self, seed, d, mu, ratio):
        self.assert_same_bits(seed, d, mu, mu * ratio)

    @pytest.mark.parametrize("seed, d, mu, L", [
        (1, 6, 0.7, 1.0),    # configs/contraction_ball.json
        (0, 4, 0.8, 1.6),    # configs/solve_ball.json
        (2, 4, 0.8, 1.6),    # configs/stability_ball.json
        (5, 4, 1.0, 2.0),    # configs/sweep_simplex.json: the tangent block of d=5
        (0, 200, 0.5, 2.0),  # the d=200 benchmark instance
        (1, 200, 0.5, 2.0),
    ])
    def test_sample_instances_match_plain_bisection(self, seed, d, mu, L):
        self.assert_same_bits(seed, d, mu, L)

    def test_d200_takes_at_most_25_spectral_norms(self, monkeypatch):
        norm = np.linalg.norm
        calls = []

        def counting(x, ord=None, *args, **kwargs):
            calls.append(ord)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        problems._random_monotone_matrix(np.random.default_rng(0), 200, 0.5, 2.0)
        assert calls.count(2) == len(calls)
        assert len(calls) <= 25  # the plain bisection takes 51


class TestGameIsOperator:
    """A game is a QuadraticOperator on its product domain: each operator
    call gives the bits of the same call on the plain operator."""

    game = generate_game(31, 3, (1, 2, 2), 0.5, 0.4)

    def test_is_an_operator(self):
        assert isinstance(self.game, QuadraticOperator)
        assert self.game.as_operator() is self.game
        assert self.game.tangent_basis is None

    def test_shape_and_domain_rejections(self):
        pair = Product((Box(-np.ones(1), np.ones(1)), Box(-np.ones(1), np.ones(1))))
        with pytest.raises(ValueError, match=r"\(d, d\) matrix"):
            QuadraticGame(np.stack([np.eye(2)] * 3), np.zeros((3, 2)), domain=pair)
        with pytest.raises(ValueError, match=r"\(d,\) offset"):
            QuadraticGame(np.eye(2), np.zeros((3, 2)), domain=pair)
        with pytest.raises(ValueError, match="Product of dim 2"):
            QuadraticGame(np.eye(2), np.zeros(2), domain=Box(-np.ones(2), np.ones(2)))
        with pytest.raises(ValueError, match="Product of dim 3"):
            QuadraticGame(np.eye(3), np.zeros(3), domain=pair)
        with pytest.raises(ValueError, match="offset length"):
            QuadraticGame(np.eye(2), np.zeros(3), domain=pair)

    def test_same_bits_as_plain_operator(self):
        g = self.game
        op = QuadraticOperator(g.matrix, g.offset)
        dom = g.domain
        cg, co = constants(g), constants(op, dom)
        assert (cg.mu, cg.L, cg.K, cg.D) == (co.mu, co.L, co.K, co.D)
        z = dom.sample(np.random.default_rng(1), 9)
        assert np.array_equal(g(z), op(z))
        for kind in ("offset", "matrix"):
            Xg, Xo = (sample_dataset(p, NoiseModel(kind, 0.2), 50, 3) for p in (g, op))
            assert np.array_equal(Xg.records, Xo.records)
        for method in ("gd", "eg"):
            for projected in (False, True):
                cfg = SolverConfig(method, 0.1, 30, projected=projected)
                assert np.array_equal(run(g, dom, cfg, z).final, run(op, dom, cfg, z).final)


class TestGenerateGame:
    def test_monotonicity_floor(self):
        for seed in range(4):
            g = generate_game(seed, 3, 2, 0.5, 0.4)
            assert monotonicity_modulus(g.matrix) >= 0.5 - 1e-12

    def test_strong_coupling_is_tamed(self):
        g = generate_game(20, 3, 2, 1.0, 100.0)
        assert monotonicity_modulus(g.matrix) >= 1.0 - 1e-12

    def test_zero_coupling_block_diagonal(self):
        g = generate_game(21, 3, 2, 0.5, 0.0)
        M = g.matrix.copy()
        lam_blocks = []
        for i in range(g.k):
            lam_blocks.append(np.linalg.eigvalsh(g.block(i))[0])
            M[g.slices[i], g.slices[i]] = 0.0
        assert np.allclose(M, 0.0)
        assert np.isclose(monotonicity_modulus(g.matrix), min(lam_blocks))

    def test_nash_point_is_interior(self):
        g = small_game(seed=22)
        z = exact_solution(g)
        assert bool(g.domain.contains_interior(z, 0.04 * g.domain.diameter()))

    def test_scalar_dims_expand(self):
        g = generate_game(23, 3, 2, 0.5, 0.3)
        assert [f.dim for f in g.domain.factors] == [2, 2, 2]
        assert (g.k, g.dim) == (3, 6)

    def test_heterogeneous_dims(self):
        g = generate_game(24, 3, (1, 2, 3), 0.5, 0.3)
        assert [f.dim for f in g.domain.factors] == [1, 2, 3]
        assert (g.k, g.dim) == (3, 6)
        assert [s.stop - s.start for s in g.slices] == [1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_game(25, 3, (2, 2), 0.5, 0.3)
        with pytest.raises(ValueError):
            generate_game(25, 2, 2, -1.0, 0.3)

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_non_finite_mu_rejected(self, mu):
        # refused before any draw, where an infinite mu would end in numpy's
        # uniform() with OverflowError
        with pytest.raises(ValueError, match="'mu_target' must be a finite number"):
            generate_game(0, 2, 1, mu, 0.3)

    @pytest.mark.parametrize("coupling", [math.inf, -math.inf, math.nan])
    def test_non_finite_coupling_rejected(self, coupling):
        # refused up front, where an infinite coupling would run the halving
        # loop on nan entries and end in GenerationError (achieved nan)
        with pytest.raises(ValueError, match="'coupling_strength' must be a finite number"):
            generate_game(0, 2, 1, 0.5, coupling)

    @pytest.mark.parametrize("seed, k, dims, coupling", [
        (0, 2, 1, 0.3), (1, 3, 2, 0.4), (2, 3, (1, 2, 3), 0.4), (3, 4, (3, 1, 2, 1), 5.0),
        (4, 3, (2, 1, 3), 100.0), (5, 3, (1, 2, 3), 0.0), (6, 2, (2, 3), -0.7),
    ])
    def test_matrix_matches_blockwise_assembly(self, seed, k, dims, coupling):
        # one unscaled coupling matrix, scaled per halving round, gives the
        # bits of the block-by-block assembly, the signs of zeros included
        got = generate_game(seed, k, dims, 0.5, coupling).matrix
        want = blockwise_game_matrix(seed, k, dims, 0.5, coupling)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_domain_has_one_factor_per_player(self, monkeypatch):
        # the right total dimension is not enough: the domain is rejected
        # before any coupling is built, not later when a gap splits it per player
        square, segment = Box(-np.ones(2), np.ones(2)), Box(-np.ones(1), np.ones(1))
        with monkeypatch.context() as m:
            m.setattr(problems, "monotonicity_modulus", lambda M: pytest.fail("built M"))
            for dims, dom in (((1, 1), Product((Simplex(1),))), ((1, 1), square),
                              ((1, 1), Product((square,))),
                              ((1, 2), Product((square, segment)))):
                with pytest.raises(ValueError, match="one factor per player"):
                    generate_game(3, len(dims), dims, 0.5, 0.3, domain=dom)
        g = generate_game(3, 2, (1, 2), 0.5, 0.3, domain=Product((segment, square)))
        assert g.domain.dim == 3


class TestDatasets:
    def test_offset_records(self):
        op = generate_operator(30, 3, 0.5, 1.5)
        noise = NoiseModel("offset", 0.2)
        X = sample_dataset(op, noise, 500, seed=7)
        assert X.records.shape == (500, 3)
        norms = np.linalg.norm(X.records, axis=-1)
        assert norms.max() <= 0.2 + 1e-12
        assert norms.min() > 0.0

    def test_deterministic_and_prefix_stable(self):
        # record i depends only on (seed, i), not on the dataset size
        op = generate_operator(31, 3, 0.5, 1.5)
        for noise in (NoiseModel("offset", 0.3), NoiseModel("matrix", 0.2)):
            a = sample_dataset(op, noise, 40, seed=9)
            b = sample_dataset(op, noise, 40, seed=9)
            big = sample_dataset(op, noise, 80, seed=9)
            assert np.array_equal(a.records, b.records)
            assert np.array_equal(a.records, big.records[:40])

    @pytest.mark.xfail(strict=True, reason="offset records on a simplex go through "
                       "`e @ basis`, a BLAS product whose bits depend on the record count")
    def test_simplex_offsets_prefix_stable(self):
        noise = NoiseModel("offset", 0.3)
        for dom in (Simplex(4), Simplex(19)):
            op = generate_operator(31, dom.dim, 0.5, 1.5, dom)
            for seed in range(20):
                many = sample_dataset(op, noise, 4096, seed=seed).records
                for n in (1, 17):
                    assert np.array_equal(sample_dataset(op, noise, n, seed=seed).records,
                                          many[:n])

    def test_mean_offset_concentrates(self):
        op = generate_operator(32, 4, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 1.0), 100_000, seed=10)
        # E||mean|| ~ magnitude * sqrt(d/n); 5x that is a comfortable ceiling
        assert np.linalg.norm(X.records.mean(axis=0)) <= 5.0 * np.sqrt(4.0 / 100_000)

    def test_matrix_records_certified(self):
        op = generate_operator(33, 3, 1.0, 2.0)
        X = sample_dataset(op, NoiseModel("matrix", 0.9), 300, seed=11)
        norms = np.linalg.norm(X.records, ord=2, axis=(1, 2))
        assert np.allclose(norms, 0.9, atol=1e-12)
        # the mu/2 floor held for every record even though rejections fired
        for i in range(X.n):
            lam = monotonicity_modulus(op.matrix + X.records[i])
            assert lam >= 0.5 - 1e-12

    def test_matrix_floor_check_skipped_below_half_mu(self, monkeypatch):
        # Weyl certifies the mu/2 floor when magnitude < mu/2, so the batched
        # floor check is skipped and the records are the normalised draws
        op = generate_operator(40, 3, 1.0, 2.0)
        mu = monotonicity_modulus(op.matrix)
        batched = []
        below_floor = problems._below_floor

        def counting(sym, E, mu_floor):
            batched.append(E.shape[0])
            return below_floor(sym, E, mu_floor)

        monkeypatch.setattr(problems, "_below_floor", counting)
        magnitude = 0.45 * mu
        X = sample_dataset(op, NoiseModel("matrix", magnitude), 300, seed=18)
        assert batched == []
        G = np.random.default_rng(
            np.random.SeedSequence(18, spawn_key=(0,))).standard_normal((300, 3, 3))
        # a replaced record would differ by O(magnitude)
        assert np.allclose(X.records, self._svd_normalised(G, magnitude),
                           rtol=0.0, atol=1e-13 * magnitude)
        for E in X.records:
            assert monotonicity_modulus(op.matrix + E) >= 0.5 * mu
        # at mu/2 Weyl no longer clears the floor, so every record is checked
        sample_dataset(op, NoiseModel("matrix", 0.5 * mu), 300, seed=18)
        assert batched == [300]

    @staticmethod
    def _svd_normalised(G, magnitude):
        s = np.linalg.norm(G, 2, axis=(-2, -1))
        return magnitude * G / s[..., None, None]

    def _assert_svd_agrees(self, X, magnitude, G=None, basis=None):
        # oracle: numpy's SVD, independent of the Gram route the sampler uses
        norms = np.linalg.norm(X.records, 2, axis=(-2, -1))
        assert np.allclose(norms, magnitude, rtol=1e-12, atol=0.0)
        if G is not None:
            want = self._svd_normalised(G, magnitude)
            if basis is not None:
                want = np.einsum("ti,ntu,uj->nij", basis, want, basis)
            assert np.allclose(X.records, want, rtol=0.0, atol=1e-13 * magnitude)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 32])
    def test_matrix_normalisation_matches_svd(self, d):
        op = generate_operator(41, d, 1.0, 2.0)
        n = 64 if d == 32 else 300
        X = sample_dataset(op, NoiseModel("matrix", 0.3), n, seed=19)
        G = np.random.default_rng(
            np.random.SeedSequence(19, spawn_key=(0,))).standard_normal((n, d, d))
        self._assert_svd_agrees(X, 0.3, G)

    def test_matrix_normalisation_matches_svd_on_simplex(self):
        dom = Simplex(3)
        op = generate_operator(42, dom.dim, 0.8, 1.6, dom)
        X = sample_dataset(op, NoiseModel("matrix", 0.3), 300, seed=20)
        B = op.tangent_basis
        G = np.random.default_rng(
            np.random.SeedSequence(20, spawn_key=(0,))).standard_normal((300, 3, 3))
        self._assert_svd_agrees(X, 0.3, G, B)

    def test_matrix_normalisation_matches_svd_through_rejections(self):
        # same instance as test_matrix_records_certified, where rejections
        # fire; the oracle replays the redraw substreams with SVD norms
        op = generate_operator(33, 3, 1.0, 2.0)
        floor = 0.5 * monotonicity_modulus(op.matrix)
        X = sample_dataset(op, NoiseModel("matrix", 0.9), 300, seed=11)
        G = np.random.default_rng(
            np.random.SeedSequence(11, spawn_key=(0,))).standard_normal((300, 3, 3))
        want = self._svd_normalised(G, 0.9)
        redrawn = 0
        for i in range(300):
            attempt = 0
            while monotonicity_modulus(op.matrix + want[i]) < floor:
                g = np.random.default_rng(np.random.SeedSequence(
                    11, spawn_key=(2, i, attempt))).standard_normal((3, 3))
                want[i] = self._svd_normalised(g, 0.9)
                attempt += 1
            redrawn += attempt > 0
        assert redrawn > 0
        self._assert_svd_agrees(X, 0.9)
        assert np.allclose(X.records, want, rtol=0.0, atol=1e-13 * 0.9)

    @pytest.mark.parametrize("seed, d, mu, magnitude, n", [
        (33, 3, 1.0, 0.9, 300),   # the instance of test_matrix_records_certified
        (48, 4, 0.8, 0.7, 1024),  # magnitude 7/8 mu on a d = 4 ball
    ])
    def test_matrix_redraws_take_one_norm_call_per_round(self, monkeypatch, seed, d, mu,
                                                         magnitude, n):
        # the kernel sees the bulk draw, then one call per redraw round on
        # every record still rejected; the rounds are replayed with SVD norms
        op = generate_operator(seed, d, mu, 2.0)
        floor = 0.5 * monotonicity_modulus(op.matrix)
        calls = []
        route = problems._quartic_lambda_max
        monkeypatch.setattr(problems, "_quartic_lambda_max",
                            lambda G: (calls.append(len(G)), route(G))[1])
        sample_dataset(op, NoiseModel("matrix", magnitude), n, seed=11)
        E = self._svd_normalised(np.random.default_rng(
            np.random.SeedSequence(11, spawn_key=(0,))).standard_normal((n, d, d)), magnitude)
        attempts = np.zeros(n, dtype=int)  # per record, before the floor holds
        for i in range(n):
            while monotonicity_modulus(op.matrix + E[i]) < floor:
                g = np.random.default_rng(np.random.SeedSequence(
                    11, spawn_key=(2, i, int(attempts[i])))).standard_normal((1, d, d))
                E[i] = self._svd_normalised(g, magnitude)[0]
                attempts[i] += 1
        assert attempts.max() > 1
        assert calls == [n] + [int(np.sum(attempts > a)) for a in range(attempts.max())]

    def test_simplex_matrix_redraws_keep_floor_and_prefix(self, monkeypatch):
        # redrawn simplex records are embedded by the bulk einsum, record by
        # record: every record clears the floor and keeps its bits at any count
        op = generate_operator(49, 5, 1.0, 2.0, Simplex(4))
        sym = 0.5 * (op.matrix + op.matrix.T)
        floor = 0.5 * np.linalg.eigvalsh(sym)[0]
        noise = NoiseModel("matrix", 0.9)
        rounds = []
        below_floor = problems._below_floor
        monkeypatch.setattr(problems, "_below_floor",
                            lambda *args: (rounds.append(1), below_floor(*args))[1])
        many = sample_dataset(op, noise, 4096, seed=25).records
        assert len(rounds) > 2
        lam = np.linalg.eigvalsh(sym + 0.5 * (many + np.transpose(many, (0, 2, 1))))[:, 0]
        assert lam.min() >= floor
        for n in (1, 2, 3, 17, 64, 1000):
            assert np.array_equal(sample_dataset(op, noise, n, seed=25).records, many[:n])

    def test_matrix_record_zero_independent_of_n(self):
        # the quartic kernel's records at t = 4 (a d = 4 ball) and t = 3 (the
        # tangent space of Simplex(3)) keep their bits whatever the count
        noise = NoiseModel("matrix", 0.2)
        ball_op = generate_operator(43, 4, 0.8, 1.6)
        for op in (ball_op, generate_operator(43, 4, 0.8, 1.6, Simplex(3))):
            for seed in range(21, 41):
                many = sample_dataset(op, noise, 4096, seed=seed).records
                for n in (1, 17):
                    assert np.array_equal(sample_dataset(op, noise, n, seed=seed).records,
                                          many[:n])

    def test_matrix_redraw_is_normalised_as_inside_a_batch(self):
        # same instance as test_matrix_records_certified, where rejections
        # fire: a redrawn record is its raw draw normalised among the round's
        # redraws, and equals that draw normalised alone and in place of the
        # record inside the bulk
        op = generate_operator(33, 3, 1.0, 2.0)
        sym = 0.5 * (op.matrix + op.matrix.T)
        floor = 0.5 * np.linalg.eigvalsh(sym)[0]
        X = sample_dataset(op, NoiseModel("matrix", 0.9), 300, seed=11)
        G = np.random.default_rng(
            np.random.SeedSequence(11, spawn_key=(0,))).standard_normal((300, 3, 3))

        def normalised(block):
            s = np.sqrt(np.maximum(problems._quartic_lambda_max(block), 0.0))
            return 0.9 * block / np.maximum(s, 1e-300)[:, None, None]

        redrawn = np.flatnonzero(np.any(X.records != normalised(G), axis=(1, 2)))
        assert redrawn.size > 0
        for i in redrawn:
            for attempt in range(200):
                G[i] = np.random.default_rng(np.random.SeedSequence(
                    11, spawn_key=(2, int(i), attempt))).standard_normal((3, 3))
                cand = normalised(G)[i]
                if np.linalg.eigvalsh(sym + 0.5 * (cand + cand.T))[0] >= floor:
                    break
            assert np.array_equal(X.records[i], cand)
            assert np.array_equal(normalised(G[i:i + 1])[0], cand)

    def test_matrix_noise_makes_no_svd_call(self, monkeypatch):
        # counts both the public svd and the one np.linalg.norm calls
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        op = generate_operator(44, 3, 1.0, 2.0)
        simplex_op = generate_operator(45, 4, 0.8, 1.6, Simplex(3))
        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(sys.modules[np.linalg.norm.__wrapped__.__module__],
                            "svd", counting)
        X = sample_dataset(op, NoiseModel("matrix", 0.9), 300, seed=11)
        problems._draw_records(op, NoiseModel("matrix", 0.9), 1, [99])
        sample_dataset(simplex_op, NoiseModel("matrix", 0.3), 50, seed=22)
        assert calls == []
        # the counter does see the SVD route the sampler used to take
        np.linalg.norm(X.records, 2, axis=(-2, -1))
        assert calls == [1]

    def test_matrix_norm_route_by_block_size(self, monkeypatch):
        # t <= 4 blocks take the quartic kernel at every count, larger ones
        # the Gram + eigvalsh route
        calls = []
        for name in ("_quartic_lambda_max", "_gram_lambda_max"):
            route = getattr(problems, name)
            monkeypatch.setattr(problems, name, lambda G, name=name, route=route: (
                calls.append((name, G.shape)), route(G))[1])
        noise = NoiseModel("matrix", 0.2)
        for n in (1, 50):
            sample_dataset(generate_operator(47, 4, 0.8, 1.6), noise, n, seed=24)
            sample_dataset(generate_operator(47, 5, 0.8, 1.6, Simplex(4)), noise, n, seed=24)
        assert calls == [("_quartic_lambda_max", (n, 4, 4)) for n in (1, 1, 50, 50)]
        calls.clear()
        sample_dataset(generate_operator(47, 5, 0.8, 1.6), noise, 1, seed=24)
        assert calls == [("_gram_lambda_max", (1, 5, 5))]

    def test_matrix_noise_has_no_offset_buffer(self, monkeypatch):
        op = generate_operator(46, 3, 1.0, 2.0)
        noise = NoiseModel("matrix", 0.2)
        X = sample_dataset(op, noise, 50, seed=23)
        # a matrix-noise dataset holds no offset array: its one array is the matrices
        assert [a.shape for a in vars(X).values()] == [(50, 3, 3)]
        # a stability neighbour swaps a matrix in place: the trials draw only
        # matrices, the replacement record and then the chunk's records
        drawn = []

        def keeping(*args):
            drawn.append(problems._draw_records(*args))
            return drawn[-1]

        monkeypatch.setattr("vilab.analysis._draw_records", keeping)
        F = _trial_operators(op, noise, 50, 23, 1, neighbours=True)
        assert [a.shape for a in drawn] == [(1, 3, 3), (50, 3, 3)]
        assert np.array_equal(empirical_operator(op, X).offset, op.offset)
        assert np.array_equal(F.offset, [op.offset, op.offset])

    def test_matrix_floor_unreachable(self):
        # at d=8 a norm-50 perturbation with near-PSD symmetric part is far
        # too rare for the 200-attempt budget; streams are seed-fixed
        op = generate_operator(34, 8, 1.0, 2.0)
        with pytest.raises(GenerationError):
            sample_dataset(op, NoiseModel("matrix", 50.0), 5, seed=12)

    def test_zero_magnitude(self):
        op = generate_operator(35, 3, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 0.0), 10, seed=13)
        assert np.all(X.records == 0.0)

    def test_simplex_noise_stays_tangent(self):
        dom = Simplex(3)
        op = generate_operator(38, dom.dim, 0.8, 2.0, domain=dom)
        X = sample_dataset(op, NoiseModel("offset", 0.3), 200, seed=16)
        assert np.abs(X.records.sum(axis=-1)).max() <= 1e-12
        Xm = sample_dataset(op, NoiseModel("matrix", 0.3), 50, seed=17)
        ones = np.ones(dom.dim)
        for E in Xm.records:
            assert np.abs(E @ ones).max() <= 1e-12
            assert np.abs(ones @ E).max() <= 1e-12

    def test_size_validation(self):
        op = generate_operator(39, 2, 0.5, 1.5)
        with pytest.raises(ValueError):
            sample_dataset(op, NoiseModel("offset", 0.1), 0, seed=0)
        with pytest.raises(ValueError):
            NoiseModel("offset", -0.1)
        with pytest.raises(ValueError):
            NoiseModel("gaussian", 0.1)

    @pytest.mark.parametrize("kind", ["offset", "matrix"])
    @pytest.mark.parametrize("magnitude", [np.nan, np.inf])
    def test_non_finite_magnitude_is_rejected(self, kind, magnitude):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(kind, magnitude)


class TestQuarticKernel:
    """problems._quartic_lambda_max against numpy's SVD, an independent route."""

    @staticmethod
    def _with_singular_values(rng, sigma):
        t = len(sigma)
        U, _ = np.linalg.qr(rng.standard_normal((t, t)))
        V, _ = np.linalg.qr(rng.standard_normal((t, t)))
        return (U * sigma) @ V.T

    @settings(max_examples=80, deadline=None)
    @given(t=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 12),
           rank=st.integers(1, 3), exponent=st.sampled_from([-100, 0, 100]))
    @example(t=4, seed=4, k=12, rank=1, exponent=-100)  # a step overshot the double root
    def test_matches_svd(self, t, seed, k, rank, exponent):
        rng = np.random.default_rng(seed)
        sigma = np.sort(rng.uniform(0.1, 1.0, t))[::-1]
        close = sigma.copy()
        close[1:2] = sigma[0] * (1.0 - 10.0 ** -k)   # top two within 1e-k
        deficient = np.where(np.arange(t) < rank, sigma, 0.0)
        flat = sigma[0] * (1.0 - 10.0 ** -k * np.arange(t))  # all within 3e-k
        constructed = [self._with_singular_values(rng, s) for s in (close, flat, deficient)]
        G = np.concatenate([rng.standard_normal((64, t, t)), constructed,
                            np.zeros((1, t, t))]) * 10.0 ** exponent
        redone = []
        eigvalsh_route = problems._gram_lambda_max

        def recording(block):
            redone.extend(block)
            return eigvalsh_route(block)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "_gram_lambda_max", recording)
            lam = problems._quartic_lambda_max(G)
        assert np.all(np.isfinite(lam))
        norms = np.sqrt(np.maximum(lam, 0.0))
        assert np.allclose(norms, np.linalg.norm(G, 2, axis=(-2, -1)), rtol=1e-13, atol=0.0)
        assert norms[-1] == 0.0
        assert any(not b.any() for b in redone)  # the zero record took the eigvalsh route
        if t > 1:  # kappa >= lambda / (lambda - lambda_2) > 30: recomputed
            assert all(any(np.array_equal(b, G[i]) for b in redone) for i in (64, 65))

    def test_zero_draw_gives_a_zero_record(self, monkeypatch):
        # probability zero, but the 1e-300 guard keeps every record finite
        stream = problems._stream

        def with_a_zero_record(seed, key):
            rng = stream(seed, key)

            class Draws:
                def standard_normal(self, shape=None, out=None):
                    out = rng.standard_normal(shape, out=out)
                    out[1] = 0.0
                    return out

            return Draws()

        op = generate_operator(43, 4, 0.8, 1.6)  # drawn before the patch: it needs uniform
        monkeypatch.setattr(problems, "_stream", with_a_zero_record)
        E = sample_dataset(op, NoiseModel("matrix", 0.2), 3, seed=21).records
        assert np.all(np.isfinite(E))
        assert not E[1].any()
        assert np.allclose(np.linalg.norm(E[[0, 2]], 2, axis=(-2, -1)), 0.2, rtol=1e-13, atol=0.0)


class TestEmpiricalOperator:
    def test_average_of_records(self):
        op = generate_operator(40, 3, 0.5, 1.5)
        rng = np.random.default_rng(41)
        for noise in (NoiseModel("offset", 0.3), NoiseModel("matrix", 0.2)):
            X = sample_dataset(op, noise, 50, seed=18)
            emp = empirical_operator(op, X)
            z = rng.normal(size=3)
            per_record = np.array([record_operator(op, X, i)(z) for i in range(X.n)])
            assert np.allclose(per_record.mean(axis=0), emp(z), atol=1e-12)

    def test_zero_noise_collapses_to_base(self):
        op = generate_operator(44, 3, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 0.0), 10, seed=20)
        emp = empirical_operator(op, X)
        rng = np.random.default_rng(45)
        z = rng.normal(size=3)
        assert np.allclose(emp(z), op(z), atol=0.0)

    def test_ceiling_bounds_sampled_operators(self):
        dom = Box(-np.ones(3), np.ones(3))
        op = generate_operator(46, 3, 0.5, 1.5, domain=dom)
        c = constants(op, dom)
        rng = np.random.default_rng(47)
        pts = dom.sample(rng, 400)
        for noise in (NoiseModel("offset", 0.4), NoiseModel("matrix", 0.2)):
            X = sample_dataset(op, noise, 60, seed=21)
            ceil = sampled_constants(c, noise, dom).K
            vals = np.array([record_operator(op, X, i)(pts) for i in range(X.n)])  # (60, 400, 3)
            assert np.linalg.norm(vals, axis=-1).max() <= ceil + 1e-9

    def test_dimension_check(self):
        op = generate_operator(48, 3, 0.5, 1.5)
        other = generate_operator(48, 2, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 0.1), 5, seed=22)
        with pytest.raises(ValueError):
            empirical_operator(other, X)
