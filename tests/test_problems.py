import sys

import numpy as np
import pytest

from vilab import problems
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
    constants,
    empirical_operator,
    exact_solution,
    generate_game,
    generate_operator,
    monotonicity_modulus,
    noisy_operator_ceiling,
    replace_record,
    sample_dataset,
    spectral_norm,
)

from helpers import record_operator


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
        g = QuadraticGame((1,), np.array([[2.0]]), np.array([-2.0]), dom)
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
        with pytest.raises(ValueError):
            QuadraticGame((2,), M, np.zeros(2), dom)
        with pytest.raises(ValueError):
            QuadraticGame((2,), np.eye(3), np.zeros(3), dom)


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

    def test_one_dim_distinct_targets_rejected(self):
        with pytest.raises(GenerationError):
            generate_operator(15, 1, 0.5, 1.0, domain=Box(np.array([-1.0]), np.array([1.0])))

    def test_bad_targets(self):
        with pytest.raises(GenerationError):
            generate_operator(16, 3, 0.0, 1.0)
        with pytest.raises(GenerationError):
            generate_operator(16, 3, 2.0, 1.0)

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
        assert g.dims == (2, 2, 2)
        assert g.dim == 6

    def test_heterogeneous_dims(self):
        g = generate_game(24, 3, (1, 2, 3), 0.5, 0.3)
        assert g.dims == (1, 2, 3)
        assert g.dim == 6
        assert [s.stop - s.start for s in g.slices] == [1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_game(25, 3, (2, 2), 0.5, 0.3)
        with pytest.raises(ValueError):
            generate_game(25, 2, 2, -1.0, 0.3)

    def test_domain_has_one_factor_per_player(self):
        # the right total dimension is not enough: the game is rejected when it
        # is built, not later when a gap splits the domain per player
        with pytest.raises(ValueError, match="one factor per player"):
            generate_game(3, 2, 1, 0.5, 0.3, domain=Product((Simplex(1),)))
        square, segment = Box(-np.ones(2), np.ones(2)), Box(-np.ones(1), np.ones(1))
        for dims, dom in (((1, 1), square), ((1, 1), Product((square,))),
                          ((1, 2), Product((square, segment)))):
            with pytest.raises(ValueError, match="one factor per player"):
                QuadraticGame(dims, np.eye(sum(dims)), np.zeros(sum(dims)), dom)
        g = QuadraticGame((1, 2), np.eye(3), np.zeros(3), Product((segment, square)))
        assert g.domain.dim == 3


class TestDatasets:
    def test_offset_records(self):
        op = generate_operator(30, 3, 0.5, 1.5)
        noise = NoiseModel("offset", 0.2)
        X = sample_dataset(op, noise, 500, seed=7)
        assert X.offsets.shape == (500, 3)
        assert X.matrices is None
        norms = np.linalg.norm(X.offsets, axis=-1)
        assert norms.max() <= 0.2 + 1e-12
        assert norms.min() > 0.0

    def test_deterministic_and_prefix_stable(self):
        # record i depends only on (seed, i), not on the dataset size
        op = generate_operator(31, 3, 0.5, 1.5)
        for noise in (NoiseModel("offset", 0.3), NoiseModel("matrix", 0.2)):
            a = sample_dataset(op, noise, 40, seed=9)
            b = sample_dataset(op, noise, 40, seed=9)
            big = sample_dataset(op, noise, 80, seed=9)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.offsets, big.offsets[:40])
            if noise.kind == "matrix":
                assert np.array_equal(a.matrices, b.matrices)
                assert np.array_equal(a.matrices, big.matrices[:40])

    def test_mean_offset_concentrates(self):
        op = generate_operator(32, 4, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 1.0), 100_000, seed=10)
        # E||mean|| ~ magnitude * sqrt(d/n); 5x that is a comfortable ceiling
        assert np.linalg.norm(X.mean_offset()) <= 5.0 * np.sqrt(4.0 / 100_000)

    def test_matrix_records_certified(self):
        op = generate_operator(33, 3, 1.0, 2.0)
        X = sample_dataset(op, NoiseModel("matrix", 0.9), 300, seed=11)
        norms = np.linalg.norm(X.matrices, ord=2, axis=(1, 2))
        assert np.allclose(norms, 0.9, atol=1e-12)
        # the mu/2 floor held for every record even though rejections fired
        for i in range(X.n):
            lam = monotonicity_modulus(op.matrix + X.matrices[i])
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
        gram = np.matmul(np.swapaxes(G, -1, -2), G)
        s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
        assert np.array_equal(X.matrices, magnitude * G / s[..., None, None])
        for E in X.matrices:
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
        norms = np.linalg.norm(X.matrices, 2, axis=(-2, -1))
        assert np.allclose(norms, magnitude, rtol=1e-12, atol=0.0)
        if G is not None:
            want = self._svd_normalised(G, magnitude)
            if basis is not None:
                want = np.einsum("ti,ntu,uj->nij", basis, want, basis)
            assert np.allclose(X.matrices, want, rtol=0.0, atol=1e-13 * magnitude)

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
        assert np.allclose(X.matrices, want, rtol=0.0, atol=1e-13 * 0.9)

    def test_matrix_record_zero_independent_of_n(self):
        op = generate_operator(43, 4, 0.8, 1.6)
        noise = NoiseModel("matrix", 0.2)
        one = sample_dataset(op, noise, 1, seed=21)
        many = sample_dataset(op, noise, 4096, seed=21)
        assert np.array_equal(one.matrices[0], many.matrices[0])

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
        replace_record(op, X, 5, seed=99)
        sample_dataset(simplex_op, NoiseModel("matrix", 0.3), 50, seed=22)
        assert calls == []
        # the counter does see the SVD route the sampler used to take
        np.linalg.norm(X.matrices, 2, axis=(-2, -1))
        assert calls == [1]

    def test_matrix_noise_has_no_offset_buffer(self):
        op = generate_operator(46, 3, 1.0, 2.0)
        X = sample_dataset(op, NoiseModel("matrix", 0.2), 50, seed=23)
        assert X.offsets.shape == (50, 3)
        assert np.all(X.offsets == 0.0)
        assert X.offsets.strides[0] == 0
        Y = replace_record(op, X, 7, seed=5)
        assert Y.offsets is X.offsets
        assert np.array_equal(X.mean_offset(), np.zeros(3))

    def test_matrix_floor_unreachable(self):
        # at d=8 a norm-50 perturbation with near-PSD symmetric part is far
        # too rare for the 200-attempt budget; streams are seed-fixed
        op = generate_operator(34, 8, 1.0, 2.0)
        with pytest.raises(GenerationError):
            sample_dataset(op, NoiseModel("matrix", 50.0), 5, seed=12)

    def test_zero_magnitude(self):
        op = generate_operator(35, 3, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 0.0), 10, seed=13)
        assert np.all(X.offsets == 0.0)

    def test_replace_record_touches_one_row(self):
        op = generate_operator(36, 3, 0.5, 1.5)
        for noise in (NoiseModel("offset", 0.3), NoiseModel("matrix", 0.2)):
            X = sample_dataset(op, noise, 50, seed=14)
            Y = replace_record(op, X, 17, seed=999)
            if noise.kind == "offset":
                diff = np.any(X.offsets != Y.offsets, axis=-1)
            else:
                diff = np.any(X.matrices != Y.matrices, axis=(1, 2))
            assert diff[17]
            assert diff.sum() == 1
            # redrawing with the same seed is reproducible
            Y2 = replace_record(op, X, 17, seed=999)
            assert np.array_equal(Y.offsets, Y2.offsets)

    def test_replace_record_bounds(self):
        op = generate_operator(37, 2, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 0.1), 5, seed=15)
        with pytest.raises(ValueError):
            replace_record(op, X, 5, seed=0)

    def test_simplex_noise_stays_tangent(self):
        dom = Simplex(3)
        op = generate_operator(38, dom.dim, 0.8, 2.0, domain=dom)
        X = sample_dataset(op, NoiseModel("offset", 0.3), 200, seed=16)
        assert np.abs(X.offsets.sum(axis=-1)).max() <= 1e-12
        Xm = sample_dataset(op, NoiseModel("matrix", 0.3), 50, seed=17)
        ones = np.ones(dom.dim)
        for E in Xm.matrices:
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
            ceil = noisy_operator_ceiling(c, noise, dom)
            vals = np.array([record_operator(op, X, i)(pts) for i in range(X.n)])  # (60, 400, 3)
            assert np.linalg.norm(vals, axis=-1).max() <= ceil + 1e-9

    def test_dimension_check(self):
        op = generate_operator(48, 3, 0.5, 1.5)
        other = generate_operator(48, 2, 0.5, 1.5)
        X = sample_dataset(op, NoiseModel("offset", 0.1), 5, seed=22)
        with pytest.raises(ValueError):
            empirical_operator(other, X)
