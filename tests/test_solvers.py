import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vilab import solvers
from vilab import (
    Ball,
    Box,
    ConfigError,
    NoiseModel,
    NumericalError,
    ProblemConstants,
    Product,
    QuadraticOperator,
    Simplex,
    SolverConfig,
    Trajectory,
    admissible_eta,
    constants,
    contraction_bound,
    contraction_ratio,
    empirical_operator,
    exact_solution,
    generate_operator,
    run,
    sample_dataset,
    stability_bound,
)

from helpers import (eg_ratio_ceiling, eg_squared_ceiling, gd_ratio_ceiling, neighbour,
                     one_step, record_operator, vertices)

IDENTITY = QuadraticOperator(np.eye(1), np.zeros(1))


def consts(mu, L):
    return ProblemConstants(mu=mu, L=L, K=1.0, D=2.0, per_player=((mu, L),))


class TestSteps:
    def test_gd_example(self):
        # F(z) = z, eta = 1/2: 2 -> 1
        assert np.allclose(one_step("gd", IDENTITY, np.array([2.0]), 0.5), [1.0])

    def test_eg_example(self):
        # half point 0.5, full step 1 - 0.5*0.5 = 0.75
        assert np.allclose(one_step("eg", IDENTITY, np.array([1.0]), 0.5), [0.75])

    def test_projected_steps_stay_feasible(self):
        box = Box(np.array([0.0]), np.array([1.0]))
        op = QuadraticOperator(np.eye(1), np.array([5.0]))  # pushes hard left
        z = np.array([0.5])
        for method in ("gd", "eg"):
            step = SolverConfig(method, 1.0, 1, projected=True)
            assert np.allclose(run(op, box, step, z).final, [0.0])

    def test_batched_steps(self):
        rng = np.random.default_rng(0)
        op = QuadraticOperator(rng.normal(size=(3, 3)), rng.normal(size=3))
        z = rng.normal(size=(10, 3))
        g = one_step("gd", op, z, 0.1)
        e = one_step("eg", op, z, 0.1)
        for i in range(10):
            assert np.allclose(g[i], one_step("gd", op, z[i], 0.1))
            assert np.allclose(e[i], one_step("eg", op, z[i], 0.1))


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
        # The halving iterates at T = 0..3, each read off a run of that length.
        dom = Box(np.array([-10.0]), np.array([10.0]))
        iterates = [run(IDENTITY, dom, SolverConfig("gd", 0.5, T), z0=np.array([8.0])).final
                    for T in range(4)]
        assert len(iterates) == 4
        assert np.allclose(np.concatenate(iterates), [8.0, 4.0, 2.0, 1.0])

    def test_divergence_guard(self):
        dom = Box(np.array([-10.0]), np.array([10.0]))
        with pytest.raises(NumericalError):
            run(IDENTITY, dom, SolverConfig("gd", 10.0, 50), z0=np.array([8.0]))

    def test_projected_run_stays_inside(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(1, 2, 0.5, 1.5, domain=dom)
        cfg = SolverConfig("eg", 0.2, 1, projected=True)
        z = None
        for _ in range(50):
            z = run(op, dom, cfg, z).final
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
        # T is an integer: a float is not truncated, a string or a bool not read
        for T in (2.7, 2.0, "12", True, False, None):
            with pytest.raises(ValueError, match="'T' must be an integer"):
                SolverConfig("gd", 0.1, T)
        for T in (np.int64(3), np.int32(3), np.uint8(3)):
            config = SolverConfig("gd", 0.1, T)
            assert config.T == 3 and type(config.T) is int
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
    # run writes into reused buffers; every iterate must carry the same bits
    # as the allocating formulas above
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
            batch = np.broadcast_shapes(z0.shape, b.shape)
            ref = _reference_run(M, b, dom, method, eta, T, projected,
                                 np.ascontiguousarray(np.broadcast_to(z0, batch)))
            for t, r in enumerate(ref):
                got = run(op, dom, SolverConfig(method, eta, t, projected=projected), z0)
                assert got.final.shape == batch and got.steps == t
                assert np.array_equal(got.final, r)

    def test_guard_raises_on_projected_run_in_huge_ball(self):
        # a projected run checks the guard 1e6 * (1 + ||z0||) too, and
        # Ball(0, 1e7) lets its iterates pass it; F = -I pushes outwards
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


def _reference_guard_step(F, dom, config, z0):
    """The first step at which a run's largest row norm, taken in full every
    step, exceeds 1e6 * (1 + max ||z0||) or is not a number; None if none."""
    z = solvers._own_start(F, np.asarray(z0, dtype=float))
    guard = 1e6 * (1.0 + float(np.max(np.linalg.norm(z, axis=-1))))
    buf = np.empty_like(z)
    half = np.empty_like(z) if config.method == "eg" else None
    for t in range(config.T):
        solvers._step_into(F, z, config.eta, dom if config.projected else None, buf, half)
        if not float(np.max(np.linalg.norm(z, axis=-1))) <= guard:
            return t + 1
    return None


def _guard_step(F, dom, config, z0):
    """The step at which `run` raises NumericalError, or None."""
    try:
        run(F, dom, config, z0)
    except NumericalError as exc:
        return int(re.search(r"at step (\d+)", str(exc)).group(1))
    return None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestGuard:
    """`run` screens each step with max |z| and takes the row norms only
    above the screen; it raises at the same step as a full norm check.
    Iterates that grow past the float range warn on the way."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(8)
        for d in (1, 2, 5, 50):
            for scale in (1.0, 1e100, 1e150, 1e153, 1e155):
                for B in (1, 7):
                    M = rng.standard_normal((d, d)) - 0.4 * np.eye(d)  # some rows grow
                    z0 = scale * rng.standard_normal((B, d)) / math.sqrt(d)
                    yield QuadraticOperator(M, np.zeros(d)), Ball(np.zeros(d), 1.0), z0

    @pytest.mark.parametrize("method", ["gd", "eg"])
    def test_raise_step_matches_a_full_norm_check(self, method):
        raised = 0
        for op, dom, z0 in self._cases():
            config = SolverConfig(method, 0.5, 400)
            step = _reference_guard_step(op, dom, config, z0)
            assert _guard_step(op, dom, config, z0) == step
            raised += step is not None
        assert raised >= 20

    def test_squares_that_overflow_below_the_guard_still_raise(self):
        # ||z0|| = 1e153 sets the guard near 1e159, but the squares of a norm
        # past 1.34e154 overflow, so the full check raises there
        dom = Ball(np.zeros(2), 1.0)
        op = QuadraticOperator(-np.eye(2), np.zeros(2))
        config = SolverConfig("gd", 0.5, 20)
        z0 = np.array([1e153, 0.0])
        assert _reference_guard_step(op, dom, config, z0) == 7  # 1e153 * 1.5^7 > 1.34e154
        assert _guard_step(op, dom, config, z0) == 7

    def test_a_start_whose_guard_overflows_never_raises(self):
        # ||z0|| = 1e155: its squares overflow, the guard is infinite, and
        # neither check raises while the iterates stay finite
        dom = Ball(np.zeros(2), 1.0)
        config = SolverConfig("gd", 0.5, 20)
        z0 = np.array([1e155, 1e154])
        shrink, grow = (QuadraticOperator(s * np.eye(2), np.zeros(2)) for s in (1.0, -1.0))
        for op in (shrink, grow):
            assert _reference_guard_step(op, dom, config, z0) is None
            assert _guard_step(op, dom, config, z0) is None
        assert np.array_equal(run(shrink, dom, config, z0).final, z0 * 0.5 ** 20)

    @pytest.mark.parametrize("method", ["gd", "eg"])
    def test_a_non_finite_iterate_raises(self, method):
        op = QuadraticOperator([[np.nan, 0.0], [0.0, 1.0]], np.zeros(2))
        with pytest.raises(NumericalError, match="not a number at step 1"):
            run(op, Ball(np.zeros(2), 1.0), SolverConfig(method, 0.1, 5))


class TestContractionBounds:
    def test_gd_frozen_values(self):
        assert np.isclose(contraction_bound("gd", 1.0, 1.0, 1.0), 0.0)
        assert np.isclose(contraction_bound("gd", 1.0, 2.0, 0.25), np.sqrt(0.75))
        # the boundary step size of the stability range gives exactly 1
        assert np.isclose(contraction_bound("gd", 1.0, 2.0, 2.0 * 1.0 / 4.0), 1.0)

    def test_eg_frozen_values(self):
        c = solvers._squared_ratio("eg", 0.9, 1.0, 0.1)
        want = 2.0 - 0.18 + 1e-4 - 1.18 * (1.0 - 0.2 + 0.0081)
        assert np.isclose(c, want)
        assert np.isclose(c, 0.866542)
        assert np.isclose(contraction_bound("eg", 0.9, 1.0, 0.1), np.sqrt(0.866542))

    def test_eg_array_etas(self):
        etas = np.array([0.05, 0.1, 0.2])
        cs = solvers._squared_ratio("eg", 0.9, 1.0, etas)
        assert cs.shape == (3,)
        for eta, c in zip(etas, cs):
            assert np.isclose(c, solvers._squared_ratio("eg", 0.9, 1.0, float(eta)))

    def test_validation(self):
        with pytest.raises(ValueError):
            contraction_bound("gd", 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            contraction_bound("gd", 2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            contraction_bound("gd", 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            contraction_bound("eg", 1.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="need 0 < mu <= L"):
            contraction_bound("eg", 2.0, 1.0, 0.1)

    def test_each_call_checks_once(self, monkeypatch):
        # each input a call takes passes the one input rule (_checked) once,
        # and the (mu, L, eta) of a certificate one _check_mu_L_eta, which
        # runs the rule on mu, L and eta when it is given an eta
        calls = {}
        check, relation = solvers._checked, solvers._check_mu_L_eta

        def counted_check(value, name, *rule):
            calls[name] = calls.get(name, 0) + 1
            return check(value, name, *rule)

        def counted_relation(*args):
            calls["_check_mu_L_eta"] = calls.get("_check_mu_L_eta", 0) + 1
            return relation(*args)

        monkeypatch.setattr(solvers, "_checked", counted_check)
        monkeypatch.setattr(solvers, "_check_mu_L_eta", counted_relation)
        certificate = {"_check_mu_L_eta", "mu", "L", "eta"}
        gd = SolverConfig("gd", 0.1, 5)
        z, zp = np.array([[1.0]]), np.array([[0.0]])
        for evaluate, want in (
                (lambda: contraction_bound("gd", 0.9, 1.0, 0.1), {"method", *certificate}),
                (lambda: contraction_bound("eg", 0.9, 1.0, 0.1), {"method", *certificate}),
                (lambda: stability_bound(gd, consts(0.9, 1.0), 1), {"n", *certificate}),
                (lambda: solvers._gate_eta(gd, 0.9, 1.0), certificate),
                (lambda: admissible_eta(0.9, 1.0, "gd"), {"method", "_check_mu_L_eta", "mu", "L"}),
                (lambda: admissible_eta(0.9, 1.0, "eg"), {"method", "_check_mu_L_eta", "mu", "L"}),
                (lambda: contraction_ratio(IDENTITY, z, zp, 0.1, "gd"), {"method", "eta"}),
                (lambda: contraction_ratio(IDENTITY, z, zp, 0.1, "eg"), {"method", "eta"}),
                (lambda: SolverConfig("eg", 0.1, 5), {"method", "eta", "T", "projected"})):
            calls.clear()
            evaluate()
            assert calls == dict.fromkeys(want, 1)

    def test_unknown_method_is_rejected_everywhere(self):
        z, zp = np.array([[1.0]]), np.array([[0.0]])
        for evaluate in (lambda: contraction_bound("gdx", 0.9, 1.0, 0.1),
                         lambda: contraction_ratio(IDENTITY, z, zp, 0.1, "gdx"),
                         lambda: admissible_eta(0.9, 1.0, "gdx"),
                         lambda: SolverConfig("gdx", 0.1, 5)):
            with pytest.raises(ValueError, match="'method' must be one of gd/eg, got 'gdx'"):
                evaluate()

    @pytest.mark.parametrize("L", [0.0, np.inf])
    def test_admissible_eta_checks_L_before_dividing_by_it(self, L):
        # the eg grid's pitch 1e-4 / L is a division by zero or a zero step
        message = "need 0 < mu <= L < inf" if L == 0.0 else "'L' must be a finite number"
        for method in ("gd", "eg"):
            with pytest.raises(ValueError, match=message):
                admissible_eta(0.5, L, method)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
    def test_non_finite_eta_is_rejected(self, eta):
        bad = SolverConfig("gd", 0.1, 5)
        bad.eta = eta  # past the constructor's check: the certificates check again
        for evaluate in (lambda: SolverConfig("gd", eta, 5),
                         lambda: contraction_bound("gd", 0.9, 1.0, eta),
                         lambda: contraction_bound("eg", 0.9, 1.0, eta),
                         lambda: stability_bound(bad, consts(0.9, 1.0), 1),
                         lambda: solvers._gate_eta(bad, 0.9, 1.0)):
            with pytest.raises(ValueError, match="'eta' must be a finite number"):
                evaluate()

    @pytest.mark.parametrize("method", ["gd", "eg"])
    def test_overflowing_ceiling_raises_naming_eta(self, method):
        # gd's eta ** 2 overflows and eg's c(eta) is inf - inf: no ceiling,
        # rather than an OverflowError or a ceiling of 0.0
        with pytest.raises(ValueError, match=r"not finite at eta=1e\+200"):
            contraction_bound(method, 0.5, 1.0, 1e200)

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(method=st.one_of(st.sampled_from(["gd", "eg"]), st.text(max_size=3)),
           mu=st.floats(), L=st.floats(), eta=st.floats())
    @example(method="gd", mu=0.5, L=1.0, eta=1e200)
    @example(method="eg", mu=0.5, L=1.0, eta=1e200)
    @example(method="eg", mu=1e-300, L=1e300, eta=1e-300)
    @example(method="gd", mu=5e-324, L=5e-324, eta=1e300)
    def test_contraction_bound_is_a_finite_float_or_a_value_error(self, method, mu, L, eta):
        try:
            got = contraction_bound(method, mu, L, eta)
        except ValueError:
            got = None
        else:
            assert isinstance(got, float) and math.isfinite(got)
        if method not in ("gd", "eg") or not (0.0 < mu <= L) or \
                not (0.0 < eta < math.inf):
            assert got is None
            return
        # the per-method formulas as written before their one home, where finite
        try:
            if method == "gd":
                squared = 1.0 - 2.0 * eta * mu + eta ** 2 * L ** 2
            else:
                e = np.asarray(eta, dtype=float)
                with np.errstate(over="ignore", invalid="ignore"):
                    squared = float(2.0 - 2.0 * e * mu + e ** 4 * L ** 4
                                    - (2.0 * e * mu + 1.0)
                                    * (1.0 - 2.0 * e * L + e ** 2 * mu ** 2))
        except OverflowError:
            squared = math.inf
        if math.isfinite(squared):
            assert got == math.sqrt(max(0.0, squared))
        else:
            assert got is None

    def test_stability_range(self):
        # gd certifies a stability ceiling, and passes the eta gate, exactly
        # on (0, 2 mu / L^2), the range admissible_eta returns
        for eta, mu, L, inside in ((0.1, 1.0, 1.0, True), (2.0, 1.0, 1.0, False),
                                   (0.5, 1.0, 2.0, False)):
            config = SolverConfig("gd", eta, 0)
            assert (eta < admissible_eta(mu, L, "gd")[1]) == inside
            assert (stability_bound(config, consts(mu, L), 1) is not None) == inside
            if inside:
                solvers._gate_eta(config, mu, L)
            else:
                with pytest.raises(ConfigError, match=r"eta exceeds 2\*mu/L\^2"):
                    solvers._gate_eta(config, mu, L)
        # eg passes the gate at every eta
        solvers._gate_eta(SolverConfig("eg", 2.0, 0), 1.0, 1.0)

    def test_range_end_where_the_margin_rounds_to_zero(self):
        # at eta = nextafter(2 mu / L^2, 0) the computed 2 mu - eta L^2 is 0.0
        # for some (mu, L): the gate refuses that eta and stability_bound
        # certifies nothing there, rather than dividing by zero
        rng = np.random.default_rng(0)
        mus = rng.uniform(0.01, 1.0, 2000)
        Ls = mus * rng.uniform(1.0, 10.0, 2000)
        pairs = [(mu, L) for mu, L in zip(mus.tolist(), Ls.tolist())
                 if 2.0 * mu - math.nextafter(2.0 * mu / L ** 2, 0.0) * L ** 2 == 0.0]
        assert len(pairs) > 10
        for mu, L in pairs:
            config = SolverConfig("gd", math.nextafter(2.0 * mu / L ** 2, 0.0), 0)
            assert stability_bound(config, consts(mu, L), 1) is None
            with pytest.raises(ConfigError, match=r"eta exceeds 2\*mu/L\^2"):
                solvers._gate_eta(config, mu, L)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(mu=st.floats(1e-3, 10.0), spread=st.floats(1.0, 20.0),
           eta=st.floats(1e-4, 10.0))
    def test_contraction_bound_matches_each_method_formula(self, mu, spread, eta):
        # bit for bit the per-method formulas, and eg's ceiling is below 1
        # exactly when c(eta) is (the contraction command gates on that)
        L = mu * spread
        assert contraction_bound("gd", mu, L, eta) == gd_ratio_ceiling(mu, L, eta)
        eg = contraction_bound("eg", mu, L, eta)
        assert eg == eg_ratio_ceiling(mu, L, eta)
        assert (eg < 1.0) == (eg_squared_ceiling(mu, L, eta) < 1.0)

    def test_admissible_gd_interval(self):
        lo, hi = admissible_eta(1.0, 2.0, "gd")
        assert lo == 0.0 and np.isclose(hi, 0.5)

    def test_admissible_eg_grid(self):
        etas = admissible_eta(0.9, 1.0, "eg")
        assert etas.size > 0
        assert np.all(eg_squared_ceiling(0.9, 1.0, etas) < 1.0)
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
        for method in ("gd", "eg"):
            want = (np.linalg.norm(one_step(method, op, z, 0.3) - one_step(method, op, w, 0.3),
                                   axis=-1)
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
                bound = contraction_bound("gd", 0.7, 2.0, eta)
                z = rng.normal(size=(200, 4))
                w = rng.normal(size=(200, 4))
                num = np.linalg.norm(one_step("gd", op, z, eta) - one_step("gd", op, w, eta),
                                     axis=-1)
                den = np.linalg.norm(z - w, axis=-1)
                assert np.all(num <= bound * den + 1e-9)

    def test_eg_bound_holds_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            op = generate_operator(seed, 4, 0.9, 1.0)
            for eta in admissible_eta(0.9, 1.0, "eg")[:: 2500]:
                c = eg_squared_ceiling(0.9, 1.0, float(eta))
                z = rng.normal(size=(200, 4))
                w = rng.normal(size=(200, 4))
                num = np.linalg.norm(one_step("eg", op, z, eta) - one_step("eg", op, w, eta),
                                     axis=-1)
                den = np.linalg.norm(z - w, axis=-1)
                assert np.all(num ** 2 <= c * den ** 2 + 1e-9)

    def test_solution_is_fixed_point(self):
        op = generate_operator(5, 3, 0.7, 2.0)
        z = exact_solution(op)
        assert np.linalg.norm(one_step("gd", op, z, 0.2) - z) <= 1e-12
        assert np.linalg.norm(one_step("eg", op, z, 0.2) - z) <= 1e-12

    def test_linear_convergence_to_solution(self):
        dom = Ball(np.zeros(3), 5.0)
        op = generate_operator(6, 3, 0.7, 2.0, domain=dom)
        z_star = exact_solution(op, dom)
        eta = 0.7 / 4.0
        rho = contraction_bound("gd", 0.7, 2.0, eta)
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
        noise = NoiseModel("offset", 0.5)
        X = sample_dataset(op, noise, n, seed=1)
        Xp = neighbour(op, X, noise, j, seed=2)
        emp, empp = empirical_operator(op, X), empirical_operator(op, Xp)
        # shared affine part: mean over the n-1 common records
        xi = np.linalg.norm(np.eye(2) - eta * (1.0 - 1.0 / n) * emp.matrix, 2)
        verts = np.array(vertices(dom))
        sup_in = eta / n * np.linalg.norm(record_operator(op, X, j)(verts), axis=-1).max()
        sup_out = eta / n * np.linalg.norm(record_operator(op, Xp, j)(verts), axis=-1).max()
        step = SolverConfig("gd", eta, 1, projected=True)  # one projected gd step
        z = zp = dom.center()
        for _ in range(T):
            d_now = np.linalg.norm(z - zp)
            z = run(emp, dom, step, z).final
            zp = run(empp, dom, step, zp).final
            assert np.linalg.norm(z - zp) <= xi * d_now + sup_in + sup_out + 1e-12
