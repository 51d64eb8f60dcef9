import tracemalloc

import numpy as np
import pytest

from vilab import (
    Ball,
    Box,
    NoiseModel,
    NumericalError,
    Product,
    QuadraticOperator,
    Simplex,
    SolverConfig,
    Trajectory,
    admissible_eta,
    constants,
    contraction_ratio,
    eg_contraction_bound,
    eg_contraction_coefficient,
    eg_step,
    empirical_operator,
    exact_solution,
    gd_contraction_bound,
    gd_step,
    generate_operator,
    in_gd_stability_range,
    replace_record,
    run,
    sample_dataset,
)

from helpers import record_operator

IDENTITY = QuadraticOperator(np.eye(1), np.zeros(1))


class TestSteps:
    def test_gd_example(self):
        # F(z) = z, eta = 1/2: 2 -> 1
        assert np.allclose(gd_step(IDENTITY, np.array([2.0]), 0.5), [1.0])

    def test_eg_example(self):
        # half point 0.5, full step 1 - 0.5*0.5 = 0.75
        assert np.allclose(eg_step(IDENTITY, np.array([1.0]), 0.5), [0.75])

    def test_projected_steps_stay_feasible(self):
        box = Box(np.array([0.0]), np.array([1.0]))
        op = QuadraticOperator(np.eye(1), np.array([5.0]))  # pushes hard left
        z = np.array([0.5])
        assert np.allclose(gd_step(op, z, 1.0, project_onto=box), [0.0])
        assert np.allclose(eg_step(op, z, 1.0, project_onto=box), [0.0])

    def test_batched_steps(self):
        rng = np.random.default_rng(0)
        op = QuadraticOperator(rng.normal(size=(3, 3)), rng.normal(size=3))
        z = rng.normal(size=(10, 3))
        g = gd_step(op, z, 0.1)
        e = eg_step(op, z, 0.1)
        for i in range(10):
            assert np.allclose(g[i], gd_step(op, z[i], 0.1))
            assert np.allclose(e[i], eg_step(op, z[i], 0.1))


class TestRun:
    def test_halving(self):
        dom = Box(np.array([-10.0]), np.array([10.0]))
        cfg = SolverConfig("gd", 0.5, 3)
        out = run(IDENTITY, dom, cfg, z0=np.array([8.0]))
        assert np.allclose(out.final, [1.0])
        assert out.steps == 3

    def test_zero_steps_returns_start(self):
        dom = Box(np.array([-10.0]), np.array([10.0]))
        out = run(IDENTITY, dom, SolverConfig("gd", 0.5, 0), z0=np.array([4.0]))
        assert np.allclose(out.final, [4.0])

    def test_default_start_is_center(self):
        dom = Box(np.array([2.0]), np.array([6.0]))
        out = run(IDENTITY, dom, SolverConfig("gd", 0.5, 0))
        assert np.allclose(out.final, dom.center())

    def test_trajectory_recording(self):
        dom = Box(np.array([-10.0]), np.array([10.0]))
        cfg = SolverConfig("gd", 0.5, 3, record_trajectory=True)
        out = run(IDENTITY, dom, cfg, z0=np.array([8.0]))
        assert len(out.iterates) == 4
        assert np.allclose(np.concatenate(out.iterates), [8.0, 4.0, 2.0, 1.0])

    def test_divergence_guard(self):
        dom = Box(np.array([-10.0]), np.array([10.0]))
        with pytest.raises(NumericalError):
            run(IDENTITY, dom, SolverConfig("gd", 10.0, 50), z0=np.array([8.0]))

    def test_projected_run_stays_inside(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(1, 2, 0.5, 1.5, domain=dom)
        cfg = SolverConfig("eg", 0.2, 50, projected=True, record_trajectory=True)
        out = run(op, dom, cfg)
        for z in out.iterates:
            assert bool(dom.contains(z, tol=1e-9))

    def test_batched_lockstep(self):
        dom = Box(-np.ones(2) * 10, np.ones(2) * 10)
        op = generate_operator(2, 2, 0.5, 1.5)
        z0 = np.array([[1.0, 2.0], [3.0, -4.0]])
        both = run(op, dom, SolverConfig("gd", 0.1, 20), z0=z0).final
        for i in range(2):
            single = run(op, dom, SolverConfig("gd", 0.1, 20), z0=z0[i]).final
            assert np.allclose(both[i], single)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig("newton", 0.1, 10)
        with pytest.raises(ValueError):
            SolverConfig("gd", 0.0, 10)
        with pytest.raises(ValueError):
            SolverConfig("gd", 0.1, -1)
        dom = Box(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            run(IDENTITY, dom, SolverConfig("gd", 0.1, 1), z0=np.zeros(2))


def _reference_project(dom, z):
    """Each domain's projection as plain allocating formulas."""
    if isinstance(dom, Ball):
        delta = z - dom.center_point
        dist = np.linalg.norm(delta, axis=-1, keepdims=True)
        scale = np.where(dist > dom.radius, dom.radius / np.maximum(dist, 1e-300), 1.0)
        return dom.center_point + delta * scale
    if isinstance(dom, Box):
        return np.clip(z, dom.lower, dom.upper)
    if isinstance(dom, Simplex):
        u = -np.sort(-z, axis=-1)
        css = np.cumsum(u, axis=-1) - 1.0
        rho = np.count_nonzero(u - css / np.arange(1.0, z.shape[-1] + 1.0) > 0.0, axis=-1)
        theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
        return np.maximum(z - theta, 0.0)
    return np.concatenate([_reference_project(f, z[..., s])
                           for f, s in zip(dom.factors, dom.slices)], axis=-1)


def _reference_run(M, b, dom, method, eta, T, projected, z0):
    """Every iterate of gd/eg as a loop of fresh arrays: z - eta (z M^T + b)."""
    def F(z):
        return z @ M.T + b if M.ndim == 2 else np.einsum("bij,bj->bi", M, z) + b

    def P(z):
        return _reference_project(dom, z) if projected else z

    iterates = [z0]
    z = z0
    for _ in range(T):
        point = P(z - eta * F(z)) if method == "eg" else z
        z = P(z - eta * F(point))
        iterates.append(z)
    return iterates


# dimension 9: sums of 9 or more squares are where numpy's reduction order
# depends on the memory layout
KERNEL_DOMAINS = {
    "ball_at_origin": Ball(np.zeros(9), 1.0),
    "ball_off_origin": Ball(np.linspace(-0.4, 0.4, 9), 0.7),
    "box": Box(-0.5 * np.ones(9), 0.8 * np.ones(9)),
    "simplex": Simplex(8),
    "product": Product((Ball(np.array([0.2, -0.1]), 0.6), Simplex(6))),
}


class TestBufferedKernel:
    # run and the single steps write into reused buffers; every iterate must
    # carry the same bits as the allocating formulas above
    @pytest.mark.parametrize("name", sorted(KERNEL_DOMAINS))
    @pytest.mark.parametrize("method,projected", [("gd", False), ("gd", True),
                                                  ("eg", False), ("eg", True)])
    def test_bitwise_equal_to_reference_loop(self, name, method, projected):
        dom = KERNEL_DOMAINS[name]
        rng = np.random.default_rng(11)
        B, d, eta, T = 7, 9, 0.3, 25
        shared = np.eye(d) + 0.3 * rng.normal(size=(d, d))
        stack = np.eye(d) + 0.3 * rng.normal(size=(B, d, d))
        offs = 2.0 * rng.normal(size=(B, d))
        start = 0.4 * rng.normal(size=(B, d))
        cases = [(shared, offs[0], start[0]),   # one operator, one point
                 (shared, offs, start),         # shared matrix, offset stack
                 (stack, offs, start[0]),       # matrix stack, one start
                 (stack, offs, start),          # matrix stack, one start per row
                 (shared, offs, np.asfortranarray(start))]
        for M, b, z0 in cases:
            op = QuadraticOperator(M, b)
            cfg = SolverConfig(method, eta, T, projected=projected, record_trajectory=True)
            got = run(op, dom, cfg, z0)
            batch = np.broadcast_shapes(z0.shape, b.shape)
            ref = _reference_run(M, b, dom, method, eta, T, projected,
                                 np.ascontiguousarray(np.broadcast_to(z0, batch)))
            assert got.final.shape == batch
            assert len(got.iterates) == T + 1
            for z, r in zip(got.iterates, ref):
                assert np.array_equal(z, r)
            assert np.array_equal(got.final, ref[-1])
            step = gd_step if method == "gd" else eg_step
            assert np.array_equal(step(op, z0, eta, dom if projected else None), ref[1])

    def test_guard_raises_on_projected_run_in_huge_ball(self):
        # Ball(0, 1e7) is larger than the guard 1e6 * (1 + ||z0||), so a
        # projected run still checks it; F = -I pushes outwards
        dom = Ball(np.zeros(2), 1e7)
        op = QuadraticOperator(-np.eye(2), np.zeros(2))
        with pytest.raises(NumericalError):
            run(op, dom, SolverConfig("gd", 0.5, 60, projected=True), z0=np.array([1.0, 0.0]))

    def test_guard_raises_unprojected_eg(self):
        dom = Ball(np.zeros(2), 1.0)
        op = QuadraticOperator(-np.eye(2), np.zeros(2))
        with pytest.raises(NumericalError):
            run(op, dom, SolverConfig("eg", 0.5, 60), z0=np.array([0.5, 0.0]))

    def test_working_set_is_the_buffers(self):
        # a projected gd step on a ball holds the iterate, the step buffer and
        # the projection's one scratch array; no array per step accumulates
        B, d = 64, 50
        dom = Ball(np.zeros(d), 1.0)
        rng = np.random.default_rng(2)
        op = QuadraticOperator(np.eye(d) + 0.1 * rng.normal(size=(d, d)),
                               rng.normal(size=(B, d)))
        z0 = np.zeros((B, d))
        tracemalloc.start()
        try:
            run(op, dom, SolverConfig("gd", 0.2, 200, projected=True), z0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * z0.nbytes


class TestContractionBounds:
    def test_gd_frozen_values(self):
        assert np.isclose(gd_contraction_bound(1.0, 1.0, 1.0), 0.0)
        assert np.isclose(gd_contraction_bound(1.0, 2.0, 0.25), np.sqrt(0.75))
        # the boundary step size of the stability range gives exactly 1
        assert np.isclose(gd_contraction_bound(1.0, 2.0, 2.0 * 1.0 / 4.0), 1.0)

    def test_eg_frozen_values(self):
        c = eg_contraction_coefficient(0.9, 1.0, 0.1)
        want = 2.0 - 0.18 + 1e-4 - 1.18 * (1.0 - 0.2 + 0.0081)
        assert np.isclose(c, want)
        assert np.isclose(c, 0.866542)
        assert np.isclose(eg_contraction_bound(0.9, 1.0, 0.1), np.sqrt(0.866542))

    def test_eg_array_etas(self):
        etas = np.array([0.05, 0.1, 0.2])
        cs = eg_contraction_coefficient(0.9, 1.0, etas)
        assert cs.shape == (3,)
        for eta, c in zip(etas, cs):
            assert np.isclose(c, eg_contraction_coefficient(0.9, 1.0, float(eta)))

    def test_validation(self):
        with pytest.raises(ValueError):
            gd_contraction_bound(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            gd_contraction_bound(2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            gd_contraction_bound(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            eg_contraction_coefficient(1.0, 1.0, -0.1)

    def test_stability_range(self):
        assert in_gd_stability_range(0.1, 1.0, 1.0)
        assert not in_gd_stability_range(2.0, 1.0, 1.0)
        assert not in_gd_stability_range(0.5, 1.0, 2.0)

    def test_admissible_gd_interval(self):
        lo, hi = admissible_eta(1.0, 2.0, "gd")
        assert lo == 0.0 and np.isclose(hi, 0.5)

    def test_admissible_eg_grid(self):
        etas = admissible_eta(0.9, 1.0, "eg")
        assert etas.size > 0
        assert np.all(eg_contraction_coefficient(0.9, 1.0, etas) < 1.0)
        assert etas.min() > 0.0 and etas.max() <= 1.0 + 1e-12

    def test_admissible_eg_empty_below_half(self):
        # c(eta) < 1 requires mu > L/2
        assert admissible_eta(0.4, 1.0, "eg").size == 0
        assert admissible_eta(0.501, 1.0, "eg").size > 0


class TestMeasuredContraction:
    def test_ratio_example(self):
        assert np.isclose(
            contraction_ratio(IDENTITY, np.array([2.0]), np.array([0.0]), 0.5), 0.5
        )
        with pytest.raises(ValueError):
            contraction_ratio(IDENTITY, np.array([1.0]), np.array([1.0]), 0.5)

    def test_ratio_per_row(self):
        # one ratio per row, bitwise the formula the contraction command used inline
        op = generate_operator(7, 4, 0.7, 2.0)
        rng = np.random.default_rng(8)
        z, w = rng.normal(size=(50, 4)), rng.normal(size=(50, 4))
        for method, step in (("gd", gd_step), ("eg", eg_step)):
            want = (np.linalg.norm(step(op, z, 0.3) - step(op, w, 0.3), axis=-1)
                    / np.linalg.norm(z - w, axis=-1))
            got = contraction_ratio(op, z, w, 0.3, method)
            assert got.shape == (50,)
            assert np.array_equal(got, want)
            assert np.isclose(contraction_ratio(op, z[3], w[3], 0.3, method), got[3])
        w[7] = z[7]
        with pytest.raises(ValueError):
            contraction_ratio(op, z, w, 0.3)

    def test_gd_bound_holds_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            op = generate_operator(seed, 4, 0.7, 2.0)
            # the gd ceiling is valid for every positive eta, even inadmissible
            for eta in (0.05, 0.175, 0.35, 0.5, 1.0):
                bound = gd_contraction_bound(0.7, 2.0, eta)
                z = rng.normal(size=(200, 4))
                w = rng.normal(size=(200, 4))
                num = np.linalg.norm(gd_step(op, z, eta) - gd_step(op, w, eta), axis=-1)
                den = np.linalg.norm(z - w, axis=-1)
                assert np.all(num <= bound * den + 1e-9)

    def test_eg_bound_holds_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            op = generate_operator(seed, 4, 0.9, 1.0)
            for eta in admissible_eta(0.9, 1.0, "eg")[:: 2500]:
                c = eg_contraction_coefficient(0.9, 1.0, float(eta))
                z = rng.normal(size=(200, 4))
                w = rng.normal(size=(200, 4))
                num = np.linalg.norm(eg_step(op, z, eta) - eg_step(op, w, eta), axis=-1)
                den = np.linalg.norm(z - w, axis=-1)
                assert np.all(num ** 2 <= c * den ** 2 + 1e-9)

    def test_solution_is_fixed_point(self):
        op = generate_operator(5, 3, 0.7, 2.0)
        z = exact_solution(op)
        assert np.linalg.norm(gd_step(op, z, 0.2) - z) <= 1e-12
        assert np.linalg.norm(eg_step(op, z, 0.2) - z) <= 1e-12

    def test_linear_convergence_to_solution(self):
        dom = Ball(np.zeros(3), 5.0)
        op = generate_operator(6, 3, 0.7, 2.0, domain=dom)
        z_star = exact_solution(op, dom)
        eta = 0.7 / 4.0
        rho = gd_contraction_bound(0.7, 2.0, eta)
        z0 = dom.center() + np.array([1.0, -1.0, 0.5])
        T = 40
        out = run(op, dom, SolverConfig("gd", eta, T), z0=z0)
        assert np.linalg.norm(out.final - z_star) <= rho ** T * np.linalg.norm(z0 - z_star) + 1e-9


class TestNeighbourRecursion:
    def test_per_step_difference_bound(self):
        # two gd runs on neighbouring datasets differ per step by at most
        # xi * current difference + eta/n * (sup ||swapped-in|| + ||swapped-out||),
        # with every quantity computed exactly from the affine structure
        dom = Box(-np.ones(2), np.ones(2))
        op = generate_operator(7, 2, 0.8, 1.6, domain=dom)
        n, j, eta, T = 40, 3, 0.2, 60
        X = sample_dataset(op, NoiseModel("offset", 0.5), n, seed=1)
        Xp = replace_record(op, X, j, seed=2)
        emp, empp = empirical_operator(op, X), empirical_operator(op, Xp)
        # shared affine part: mean over the n-1 common records
        xi = np.linalg.norm(np.eye(2) - eta * (1.0 - 1.0 / n) * emp.matrix, 2)
        verts = np.array(dom.vertices())
        sup_in = eta / n * np.linalg.norm(record_operator(op, X, j)(verts), axis=-1).max()
        sup_out = eta / n * np.linalg.norm(record_operator(op, Xp, j)(verts), axis=-1).max()
        z = zp = dom.center()
        for _ in range(T):
            d_now = np.linalg.norm(z - zp)
            z = gd_step(emp, z, eta, project_onto=dom)
            zp = gd_step(empp, zp, eta, project_onto=dom)
            assert np.linalg.norm(z - zp) <= xi * d_now + sup_in + sup_out + 1e-12
