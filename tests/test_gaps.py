import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilab import gaps
from vilab import (
    Ball,
    Box,
    InfeasiblePointError,
    NoiseModel,
    Product,
    QuadraticGame,
    QuadraticOperator,
    Simplex,
    best_response,
    constants,
    empirical_operator,
    exact_solution,
    gap,
    gap_report,
    generate_game,
    generate_operator,
    monotonicity_modulus,
    potential_gap,
    sample_dataset,
    weak_gap,
)

from helpers import dense_grid, record_operator, vertices


class ConstantField:
    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(self.g, z.shape)


def empirical_weak_gap(emp, game, z):
    """<emp(z), z - w*(z)>, w* the true game's best responses: gap_report's
    empirical weak gap, with its einsum."""
    return np.einsum("...i,...i->...", emp(z), z - best_response(game, z))


class TestStrongGap:
    def test_zero_at_solution(self):
        dom = Ball(np.zeros(3), 2.0)
        op = generate_operator(0, 3, 0.5, 1.5, domain=dom)
        z = exact_solution(op, dom)
        assert abs(gap(op, dom, z)) <= 1e-12

    def test_constant_field_on_simplex(self):
        # F = (3, 1, 2) at z = e_1: best u is e_2, gap = 3 - 1
        dom = Simplex(2)
        F = ConstantField([3.0, 1.0, 2.0])
        assert np.isclose(gap(F, dom, np.eye(3)[0]), 2.0)

    def test_constant_field_on_ball(self):
        # max_u <g, z - u> = <g, z - c> + r ||g||
        dom = Ball(np.array([0.5, 0.0]), 2.0)
        g = np.array([3.0, 4.0])
        z = np.array([1.0, 1.0])
        want = g @ (z - dom.center_point) + 2.0 * 5.0
        assert np.isclose(gap(ConstantField(g), dom, z), want)

    def test_nonnegative_on_feasible_points(self):
        rng = np.random.default_rng(1)
        dom = Box(-np.ones(3), np.ones(3))
        op = generate_operator(2, 3, 0.5, 1.5, domain=dom)
        pts = dom.sample(rng, 500)
        assert np.min(gap(op, dom, pts)) >= 0.0

    def test_infeasible_point_rejected(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(3, 2, 0.5, 1.5, domain=dom)
        with pytest.raises(InfeasiblePointError):
            gap(op, dom, np.array([2.0, 0.0]))

    def test_matches_dense_grid(self):
        # the LMO maximum agrees with brute force over a fine grid
        rng = np.random.default_rng(4)
        cases = [
            Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
            Ball(np.zeros(2), 1.5),
            Simplex(2),
        ]
        for dom in cases:
            grid = dense_grid(dom, 0.01)
            op = generate_operator(5, dom.dim, 0.5, 1.5, domain=dom)
            for _ in range(20):
                z = dom.sample(rng)
                g = op(z)
                grid_val = np.max((z - grid) @ g)
                exact = gap(op, dom, z)
                assert exact >= grid_val - 1e-12
                assert exact <= grid_val + 0.02 * np.linalg.norm(g) + 1e-9

    def test_batched(self):
        dom = Box(-np.ones(2), np.ones(2))
        op = generate_operator(6, 2, 0.5, 1.5, domain=dom)
        rng = np.random.default_rng(7)
        pts = dom.sample(rng, 15)
        vals = gap(op, dom, pts)
        assert vals.shape == (15,)
        for i in range(15):
            assert np.isclose(vals[i], gap(op, dom, pts[i]))


class TestGapsAtTheSolvedRoot:
    """Under offset noise the empirical operator is F + e_bar, so its root
    z_hat has F(z_hat) = -e_bar; under matrix noise it is (M + E_bar) z + b,
    so F(z_hat) = -E_bar z_hat. Either way the strong gap there is the
    support function of the mean noise at z_hat, linear in it, and the weak
    gap is quadratic (the criterion-4 note in README.md)."""

    @pytest.mark.parametrize("n", [16, 256, 4096])
    @pytest.mark.parametrize("domain", [Ball(np.array([0.2, -0.1, 0.0]), 1.5),
                                        Box(-np.ones(3), 2.0 * np.ones(3)), Simplex(4)],
                             ids=["ball", "box", "simplex"])
    def test_strong_gap_is_the_support_function_of_the_mean_noise(self, domain, n):
        op = generate_operator(51, domain.dim, 1.0, 2.0, domain)
        corners = vertices(domain)
        for kind in ("offset", "matrix"):
            X = sample_dataset(op, NoiseModel(kind, 0.02), n, seed=52)
            z_hat = exact_solution(empirical_operator(op, X), domain)
            mean = X.records.mean(axis=0)
            e = mean if kind == "offset" else mean @ z_hat
            if corners is None:  # ball: max_u <e, u> = <e, c> + r ||e||
                support = e @ domain.center_point + domain.radius * np.linalg.norm(e)
            else:
                support = max(e @ v for v in corners)
            assert gap(op, domain, z_hat) > 0.0
            assert abs(gap(op, domain, z_hat) - (support - e @ z_hat)) <= 1e-12

    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_game_weak_gap_is_quadratic_in_the_residual(self, n):
        # <F_i, z_i - w_i> <= F_i^T Q_i^{-1} F_i (equal for interior best
        # responses) <= ||F_i||^2 / lambda_min(Q_i). The bound
        # ||F||^2 / (4 mu) holds for max_w <F(w), z - w>, not for this weak
        # gap: here it is exceeded 2.4x.
        game = generate_game(53, 3, 2, 0.5, 0.4)
        X = sample_dataset(game, NoiseModel("offset", 0.05), n, seed=54)
        z_hat = exact_solution(empirical_operator(game, X), game.domain)
        F = game(z_hat)
        energy = sum(F[s] @ np.linalg.solve(game.block(i), F[s])
                     for i, s in enumerate(game.slices))
        q_min = min(np.linalg.eigvalsh(game.block(i))[0] for i in range(game.k))
        weak = weak_gap(game, z_hat)
        assert np.isclose(weak, energy, rtol=1e-9, atol=0.0)
        assert energy <= F @ F / q_min
        assert weak > 2.0 * F @ F / (4.0 * monotonicity_modulus(game.matrix))


class TestBestResponse:
    def one_player_game(self, Q, b, lo, hi):
        dom = Product((Box(np.atleast_1d(lo), np.atleast_1d(hi)),))
        return QuadraticGame(np.atleast_2d(Q), np.atleast_1d(b), domain=dom)

    def test_unconstrained_minimizer(self):
        # f(x) = x^2 - 2x on [-5, 5] has its minimum at 1
        g = self.one_player_game(np.array([[2.0]]), np.array([-2.0]), [-5.0], [5.0])
        assert np.allclose(best_response(g, np.array([0.0])), [1.0])

    def test_boundary_minimizer_via_projected_solve(self):
        # unconstrained minimizer sits at 7, the box clips it to 5
        g = self.one_player_game(np.array([[2.0]]), np.array([-14.0]), [-5.0], [5.0])
        assert np.allclose(best_response(g, np.array([0.0])), [5.0], atol=1e-9)

    def test_ignores_own_block(self):
        game = generate_game(8, 3, 2, 0.5, 0.4)
        rng = np.random.default_rng(9)
        z = game.domain.sample(rng)
        w = best_response(game, z)
        z2 = z.copy()
        z2[game.slices[1]] = game.domain.factors[1].sample(rng)
        w2 = best_response(game, z2)
        assert np.allclose(w[game.slices[1]], w2[game.slices[1]])

    def test_first_order_optimality(self):
        game = generate_game(10, 3, 2, 0.5, 0.4)
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = game.domain.sample(rng)
            w = best_response(game, z)
            for i in range(game.k):
                wi = w[game.slices[i]]
                grad = game.block(i) @ wi + game.coupling(i) @ game.others(z, i) \
                    + game.offset_block(i)
                cand = game.domain.factors[i].sample(rng, 100)
                assert np.min((cand - wi) @ grad) >= -1e-8

    def test_lipschitz_in_opponents(self):
        # per player: ||w_i(z) - w_i(z')|| <= (L_i / mu_i) ||z_{-i} - z'_{-i}||
        game = generate_game(12, 3, 2, 0.5, 0.4)
        c = constants(game)
        rng = np.random.default_rng(13)
        for _ in range(50):
            z, zp = game.domain.sample(rng), game.domain.sample(rng)
            w, wp = best_response(game, z), best_response(game, zp)
            for i, (mi, Li) in enumerate(c.per_player):
                dw = np.linalg.norm(w[game.slices[i]] - wp[game.slices[i]])
                dz = np.linalg.norm(game.others(z, i) - game.others(zp, i))
                assert dw <= (Li / mi) * dz * (1.0 + 1e-6) + 1e-9

    def test_batched(self):
        game = generate_game(14, 2, 2, 0.5, 0.3)
        rng = np.random.default_rng(15)
        z = game.domain.sample(rng, 6)
        w = best_response(game, z)
        assert w.shape == z.shape
        for i in range(6):
            assert np.allclose(w[i], best_response(game, z[i]), atol=1e-9)

    def test_bits_ignore_memory_layout(self, monkeypatch):
        # C, Fortran and strided batches give the same best responses bit for
        # bit, through the projected solve (ball factors, opponents pushing
        # the unconstrained minimizers outside)
        projected = gaps._projected_best_response
        calls = []

        def counting(*args):
            calls.append(1)
            return projected(*args)

        monkeypatch.setattr(gaps, "_projected_best_response", counting)
        dom = Product((Ball(np.zeros(24), 1.0), Ball(np.zeros(24), 1.0)))
        game = generate_game(3, 2, (24, 24), 0.5, 3.0, domain=dom, interior_margin=0.01)
        z = dom.sample(np.random.default_rng(4), 40)
        wide = np.empty((40, 96))
        wide[:, ::2] = z
        outs = [best_response(game, v) for v in (z, np.asfortranarray(z), wide[:, ::2])]
        assert len(calls) == 6
        assert all(out.tobytes() == outs[0].tobytes() for out in outs[1:])


class TestOneCheckPerCall:
    """Each public gap evaluator checks its point once, and best_response
    takes one eigvalsh per player block."""

    def test_one_feasibility_check(self, monkeypatch):
        game = generate_game(25, 3, 2, 0.5, 0.3)
        emp = empirical_operator(game, sample_dataset(game, NoiseModel("offset", 0.2), 20, seed=3))
        z = game.domain.sample(np.random.default_rng(26), 4)
        check, calls = gaps._check_feasible, []

        def counting(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(gaps, "_check_feasible", counting)
        for evaluate in (lambda: gap(game, game.domain, z), lambda: best_response(game, z),
                         lambda: weak_gap(game, z), lambda: potential_gap(game, z),
                         lambda: gap_report(game, emp, game.domain, z[0])):
            calls.clear()
            evaluate()
            assert len(calls) == 1

    def test_one_spectrum_per_block(self, monkeypatch):
        # ball factors with opponents pushing the unconstrained minimizers
        # outside, so every block also takes the projected fallback
        dom = Product((Ball(np.zeros(3), 1.0), Ball(np.zeros(3), 1.0)))
        game = generate_game(3, 2, (3, 3), 0.5, 3.0, domain=dom, interior_margin=0.01)
        z = dom.sample(np.random.default_rng(4), 40)
        eigvalsh, projected, calls = np.linalg.eigvalsh, gaps._projected_best_response, []

        def counting(*args):
            calls.append("eigvalsh")
            return eigvalsh(*args)

        def fallback(*args):
            calls.append("fallback")
            return projected(*args)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(gaps, "_projected_best_response", fallback)
        best_response(game, z)
        assert calls == ["eigvalsh", "fallback"] * 2


class TestWeakAndPotential:
    def frozen_game(self):
        # single player, f(z) = z^2 on [-1, 1]
        dom = Product((Box(np.array([-1.0]), np.array([1.0])),))
        return QuadraticGame(np.array([[2.0]]), np.array([0.0]), domain=dom)

    def test_frozen_values(self):
        g = self.frozen_game()
        z = np.array([0.5])
        # F(z) = 1, w* = 0: weak gap 0.5; f(0.5) - f(0) = 0.25
        assert np.isclose(weak_gap(g, z), 0.5)
        assert np.isclose(potential_gap(g, z), 0.25)
        assert np.isclose(gap(g, g.domain, z), 1.0 * (0.5 - (-1.0)))

    def test_sandwich(self):
        # potential <= weak <= strong on every sampled point
        rng = np.random.default_rng(16)
        for seed in range(3):
            game = generate_game(seed, 3, 2, 0.5, 0.4)
            pts = game.domain.sample(rng, 300)
            p = potential_gap(game, pts)
            w = weak_gap(game, pts)
            s = gap(game, game.domain, pts)
            assert np.all(p >= -1e-12)
            assert np.all(p <= w + 1e-9)
            assert np.all(w <= s + 1e-9)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(dims=st.integers(1, 3).flatmap(
               lambda k: st.lists(st.integers(1, 3), min_size=k, max_size=k)),
           seed=st.integers(0, 50))
    def test_sandwich_across_player_counts(self, dims, seed):
        # 1-3 players of dimension 1-3 each: the game reads its player blocks
        # off its own domain, and the gaps nest at sampled points
        game = generate_game(seed, len(dims), dims, 0.5, 0.4)
        assert game.slices == game.domain.slices
        assert [s.stop - s.start for s in game.slices] == dims
        pts = game.domain.sample(np.random.default_rng(seed), 50)
        p = potential_gap(game, pts)
        w = weak_gap(game, pts)
        s = gap(game, game.domain, pts)
        assert np.all(p >= -1e-12)
        assert np.all(p <= w + 1e-9)
        assert np.all(w <= s + 1e-9)

    def test_weak_minus_potential_is_quadratic_energy(self):
        # for quadratics: weak - potential = 1/2 sum_i ||z_i - w_i||^2_{Q_i}
        game = generate_game(17, 3, 2, 0.5, 0.4)
        rng = np.random.default_rng(18)
        for _ in range(20):
            z = game.domain.sample(rng)
            w = best_response(game, z)
            want = 0.0
            for i, s in enumerate(game.slices):
                diff = z[s] - w[s]
                want += 0.5 * diff @ game.block(i) @ diff
            got = weak_gap(game, z) - potential_gap(game, z)
            assert np.isclose(got, want, atol=1e-9)

    def test_zero_at_nash(self):
        game = generate_game(19, 3, 2, 0.5, 0.4)
        z = exact_solution(game)
        assert abs(weak_gap(game, z)) <= 1e-10
        assert abs(potential_gap(game, z)) <= 1e-10


class TestEmpiricalAndReports:
    def test_zero_noise_matches_true(self):
        dom = Ball(np.zeros(3), 2.0)
        op = generate_operator(21, 3, 0.5, 1.5, domain=dom)
        X = sample_dataset(op, NoiseModel("offset", 0.0), 10, seed=1)
        rng = np.random.default_rng(22)
        z = dom.sample(rng)
        assert np.isclose(gap(empirical_operator(op, X), dom, z), gap(op, dom, z), atol=0.0)
        assert gap_report(op, empirical_operator(op, X), dom, z).generalization_gap == 0.0

    def test_gap_of_average_below_average_of_gaps(self):
        # gap is a max of linear functionals of F, hence convex in F
        dom = Box(-np.ones(2), np.ones(2))
        op = generate_operator(23, 2, 0.5, 1.5, domain=dom)
        X = sample_dataset(op, NoiseModel("offset", 0.5), 50, seed=2)
        rng = np.random.default_rng(24)
        z = dom.sample(rng)
        per_record = [gap(record_operator(op, X, i), dom, z) for i in range(X.n)]
        assert gap(empirical_operator(op, X), dom, z) <= np.mean(per_record) + 1e-12

    def test_report_fields(self):
        game = generate_game(25, 2, 2, 0.5, 0.3)
        X = sample_dataset(game, NoiseModel("offset", 0.2), 20, seed=3)
        rng = np.random.default_rng(26)
        z = game.domain.sample(rng)
        rep = gap_report(game, empirical_operator(game, X), game.domain, z)
        assert rep.kind == "weak_gap"
        assert np.isclose(rep.generalization_gap, rep.weak_gap_true - rep.weak_gap_empirical)
        assert rep.potential_gap <= rep.weak_gap_true + 1e-9
        assert rep.weak_gap_true <= rep.gap_true + 1e-9

    def test_report_computes_one_best_response(self, monkeypatch):
        game = generate_game(25, 3, 2, 0.5, 0.3)
        X = sample_dataset(game, NoiseModel("offset", 0.2), 20, seed=3)
        z = game.domain.sample(np.random.default_rng(26))
        calls = []
        unchecked = gaps._best_response  # best_response past its feasibility check

        def counting(*args, **kwargs):
            calls.append(1)
            return unchecked(*args, **kwargs)

        emp = empirical_operator(game, X)
        monkeypatch.setattr(gaps, "_best_response", counting)
        rep = gap_report(game, emp, game.domain, z)
        assert len(calls) == 1
        # each field equals the public evaluator's value, bit for bit
        assert rep.weak_gap_true == weak_gap(game, z)
        assert rep.weak_gap_empirical == empirical_weak_gap(emp, game, z)
        assert rep.potential_gap == potential_gap(game, z)
        assert rep.generalization_gap == rep.weak_gap_true - rep.weak_gap_empirical

    def test_report_plain_operator(self):
        dom = Ball(np.zeros(2), 1.5)
        op = generate_operator(27, 2, 0.5, 1.5, domain=dom)
        X = sample_dataset(op, NoiseModel("offset", 0.2), 20, seed=4)
        rng = np.random.default_rng(28)
        z = dom.sample(rng)
        rep = gap_report(op, empirical_operator(op, X), dom, z)
        assert rep.kind == "gap"
        assert rep.weak_gap_true is None and rep.potential_gap is None
        assert np.isclose(rep.generalization_gap, rep.gap_true - rep.gap_empirical)

    @pytest.mark.parametrize("kind", ["offset", "matrix"])
    def test_report_on_the_empirical_operator(self, kind):
        # every field is the public evaluator's value on the dataset's
        # empirical operator, bit for bit, for an operator and for a game
        dom = Simplex(3)
        op = generate_operator(29, dom.dim, 0.8, 1.6, dom)
        game = generate_game(25, 2, 2, 0.5, 0.3)
        for problem, domain in ((op, dom), (game, game.domain)):
            X = sample_dataset(problem, NoiseModel(kind, 0.2), 30, seed=5)
            z = domain.sample(np.random.default_rng(30))
            emp = empirical_operator(problem, X)
            rep = gap_report(problem, emp, domain, z)
            assert rep.gap_true == gap(problem, domain, z)
            assert rep.gap_empirical == gap(emp, domain, z)
            if problem is game:
                assert rep.weak_gap_true == weak_gap(game, z)
                assert rep.weak_gap_empirical == empirical_weak_gap(emp, game, z)
                assert rep.potential_gap == potential_gap(game, z)
                assert rep.generalization_gap == rep.weak_gap_true - rep.weak_gap_empirical
            else:
                assert rep.generalization_gap == rep.gap_true - rep.gap_empirical
