import importlib.util
import os
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vilab import (
    BOUND_NOTE,
    Ball,
    Box,
    ConfigError,
    NoiseModel,
    ProblemConstants,
    QuadraticOperator,
    Simplex,
    SolverConfig,
    bernstein_check,
    bernstein_constant,
    constants,
    covering_bound,
    empirical_operator,
    evaluate_bounds,
    exact_solution,
    fit_loglog_slope,
    gap,
    game_bound,
    generalization_sweep,
    generate_game,
    generate_operator,
    run,
    sample_dataset,
    sampled_constants,
    simplex_bound,
    stability_bound,
    stability_experiment,
    trial_dataset_seed,
)
from vilab import problems, solvers
from vilab.analysis import (_CHUNK_FLOATS, _SERIAL_FLOATS, _default_workers, _empirical_solutions,
                            _iterate_to_tol, _training_horizon, _trial_operators)
from vilab.gaps import _strong_gap
from vilab.solvers import check_gd_eta, contraction_bound

from helpers import counted_steps, neighbour, pool_sizes  # pool_sizes: a fixture, requested by name

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

UNIT_CONSTS = ProblemConstants(mu=1.0, L=1.0, K=1.0, D=2.0, per_player=((1.0, 1.0),))
TWO_PLAYER_CONSTS = ProblemConstants(
    mu=1.0, L=1.0, K=1.0, D=2.0, per_player=((1.0, 1.0), (1.0, 1.0))
)
NOISELESS = NoiseModel("offset", 0.0)
GD_01 = SolverConfig("gd", 0.1, 0)


def _gamma(consts, n, eta, noise=NOISELESS, dom=Ball(np.zeros(2), 1.0)):
    """The stability constants a gd run's summary bounds report."""
    return evaluate_bounds(None, dom, consts, noise, n, SolverConfig("gd", eta, 0))["gamma"]


def _gd_bound(K, n, mu, L, eta):
    consts = ProblemConstants(mu=mu, L=L, K=K, D=2.0, per_player=((mu, L),))
    return stability_bound(SolverConfig("gd", eta, 0), consts, n)


class TestClosedFormBounds:
    def test_gd_stability_frozen(self):
        assert np.isclose(_gd_bound(1.0, 100, 1.0, 1.0, 0.1), 2.0 / 190.0)

    def test_gd_stability_halves_with_n(self):
        a = _gd_bound(1.0, 50, 1.0, 1.0, 0.1)
        b = _gd_bound(1.0, 100, 1.0, 1.0, 0.1)
        assert np.isclose(a, 2.0 * b)

    def test_gd_stability_range_enforced(self):
        # outside (0, 2 mu / L^2) gd certifies no ceiling
        assert _gd_bound(1.0, 100, 1.0, 1.0, 2.0) is None
        with pytest.raises(ValueError):
            _gd_bound(1.0, 0, 1.0, 1.0, 0.1)

    def test_eg_certifies_nothing_without_a_contraction(self):
        # projected eg has no certified per-step ratio; unprojected eg has one
        # below 1 at mu 0.9, L 1, eta 0.1, but not at mu 0.6 for eta 0.5 or 2
        strong = ProblemConstants(mu=0.9, L=1.0, K=1.0, D=2.0, per_player=((0.9, 1.0),))
        weak = ProblemConstants(mu=0.6, L=1.0, K=1.0, D=2.0, per_player=((0.6, 1.0),))
        assert stability_bound(SolverConfig("eg", 0.1, 0, projected=True), strong, 100) is None
        xi = contraction_bound("eg", 0.9, 1.0, 0.1)
        assert xi < 1.0
        assert stability_bound(SolverConfig("eg", 0.1, 0), strong, 100) == \
            2 * 0.1 * 1.0 * (1 + 0.1 * 1.0) / (100 * (1 - xi))
        for eta in (0.5, 2.0):
            assert contraction_bound("eg", 0.6, 1.0, eta) >= 1.0
            assert stability_bound(SolverConfig("eg", eta, 0), weak, 100) is None

    def test_gamma_values(self):
        g = _gamma(UNIT_CONSTS, 100, 0.1)
        assert np.isclose(g["eta"], 2.0 / 190.0)
        assert np.isclose(g["limit"], 1.0 / 100.0)
        out = _gamma(UNIT_CONSTS, 100, 5.0)
        assert out["eta"] is None

    def test_gamma_uses_noise_inflated_k(self):
        dom = Ball(np.zeros(2), 1.0)
        g = _gamma(UNIT_CONSTS, 100, 0.1, NoiseModel("offset", 0.5), dom)
        assert np.isclose(g["eta"], 2.0 * 1.5 / 190.0)
        assert np.isclose(g["limit"], 1.5 / 100.0)

    def test_gamma_uses_the_matrix_noise_certificates(self):
        # matrix noise 0.2 certifies mu_w = mu - 0.2 = 0.6 and
        # L_w = L + 0.2 = 1.8; K grows by 0.2 * max ||z|| = 0.2
        consts = ProblemConstants(mu=0.8, L=1.6, K=1.0, D=2.0, per_player=((0.8, 1.6),))
        dom, noise = Ball(np.zeros(2), 1.0), NoiseModel("matrix", 0.2)
        g = _gamma(consts, 100, 0.25, noise, dom)
        assert np.isclose(g["eta"], 2.0 * 1.2 / (100 * (1.2 - 0.25 * 1.8 ** 2)))
        assert np.isclose(g["limit"], 1.2 / (100 * 0.6))
        # inside the plain range (0, 0.625), outside the noisy one (0, 0.37)
        assert _gamma(consts, 100, 0.5, noise, dom)["eta"] is None

    def test_covering_bound_frozen(self):
        box = Box(np.zeros(2), np.ones(2))
        # K r + (L D + K) gamma log N at r = 0.25, linf: N = 4
        want = 0.25 + 3.0 * 0.01 * np.log(4.0)
        got = covering_bound(UNIT_CONSTS, 0.01, box, [0.25])
        assert np.isclose(got, want)
        assert np.isclose(got, 0.2915888308335967)

    def test_covering_bound_minimizes(self):
        box = Box(np.zeros(2), np.ones(2))
        single = covering_bound(UNIT_CONSTS, 0.01, box, [0.25])
        multi = covering_bound(UNIT_CONSTS, 0.01, box, [0.25, 5.0, 0.05])
        assert multi <= single + 1e-15
        # with gamma = 0 only the K r term remains
        assert np.isclose(covering_bound(UNIT_CONSTS, 0.0, box, [0.3, 0.7]), 0.3)

    def test_covering_bound_validation(self):
        box = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            covering_bound(UNIT_CONSTS, 0.01, box, [])
        with pytest.raises(ValueError):
            covering_bound(UNIT_CONSTS, 0.01, box, [0.1, -0.2])

    def test_simplex_bound_frozen(self):
        assert np.isclose(simplex_bound(UNIT_CONSTS, 0.01, np.e ** 2), 0.04)
        with pytest.raises(ValueError):
            simplex_bound(UNIT_CONSTS, 0.01, 1)

    def test_game_bound_frozen(self):
        # gamma (2 D L + K sum L_i/mu_i) = 0.01 * (4 + 2)
        assert np.isclose(game_bound(TWO_PLAYER_CONSTS, 0.01), 0.06)

    def test_bernstein_constant_frozen(self):
        # (L D + K (1 + sum L_i/mu_i))^2 = (2 + 2)^2
        assert np.isclose(bernstein_constant(UNIT_CONSTS), 16.0)
        grown = ProblemConstants(mu=1.0, L=1.0, K=2.0, D=2.0, per_player=((1.0, 1.0),))
        assert bernstein_constant(grown) > 16.0


class TestLogLogFit:
    def test_exact_power_laws(self):
        ns = np.array([10.0, 100.0, 1000.0, 10000.0])
        slope, intercept, r2 = fit_loglog_slope(ns, 3.0 / ns)
        assert np.isclose(slope, -1.0) and np.isclose(intercept, np.log(3.0))
        assert np.isclose(r2, 1.0)
        slope, _, r2 = fit_loglog_slope(ns, 5.0 / ns ** 2)
        assert np.isclose(slope, -2.0) and np.isclose(r2, 1.0)

    def test_constant_series(self):
        slope, _, r2 = fit_loglog_slope([1.0, 10.0, 100.0], [2.0, 2.0, 2.0])
        assert np.isclose(slope, 0.0)
        assert r2 == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0, 3.0])
        # one distinct n fixes no slope; polyfit would only warn
        with pytest.raises(ValueError, match="distinct n"):
            fit_loglog_slope([64.0, 64.0], [1.0, 2.0])


class TestStabilityExperiment:
    def setup_method(self):
        self.dom = Ball(np.zeros(2), 1.0)
        self.op = generate_operator(0, 2, 1.0, 1.0, domain=self.dom)

    def test_zero_noise_gives_zero_divergence(self):
        cfg = SolverConfig("gd", 0.1, 200)
        res = stability_experiment(self.op, self.dom, cfg, 16, 5, 0,
                                   NoiseModel("offset", 0.0))
        assert np.all(res.divergences == 0.0)
        assert res.bound is not None

    def test_divergences_below_bound(self):
        cfg = SolverConfig("gd", 0.1, 2000)
        res = stability_experiment(self.op, self.dom, cfg, 16, 20, 1,
                                   NoiseModel("offset", 0.5))
        assert res.divergences.shape == (20,)
        assert np.all(res.divergences > 0.0)
        assert res.divergences.max() <= res.bound
        assert res.bound_base_K <= res.bound  # noise-inflated K is larger

    def test_divergence_shrinks_with_n(self):
        cfg = SolverConfig("gd", 0.1, 1500)
        noise = NoiseModel("offset", 0.5)
        small = stability_experiment(self.op, self.dom, cfg, 16, 20, 2, noise)
        large = stability_experiment(self.op, self.dom, cfg, 256, 20, 2, noise)
        assert large.divergences.mean() < small.divergences.mean() / 4.0

    def test_deterministic(self):
        cfg = SolverConfig("gd", 0.1, 500)
        noise = NoiseModel("offset", 0.3)
        a = stability_experiment(self.op, self.dom, cfg, 16, 8, 3, noise)
        b = stability_experiment(self.op, self.dom, cfg, 16, 8, 3, noise)
        assert np.array_equal(a.divergences, b.divergences)

    def test_training_stops_once_the_iterates_repeat(self):
        # the benchmark's stability run at d = 4 (matrix noise, gd eta 0.25,
        # T 2000) repeats by about step 160: run computes at most 300 steps,
        # and the divergences keep the bits of a plain 2000-step loop
        dom = Ball(np.zeros(4), 1.0)
        op = generate_operator(0, 4, 0.8, 1.6, dom)
        cfg, noise, n, trials = SolverConfig("gd", 0.25, 2000), NoiseModel("matrix", 0.2), 64, 50
        with counted_steps() as steps:
            res = stability_experiment(op, dom, cfg, n, trials, 0, noise)
        assert steps[0] <= 300
        F = _trial_operators(op, noise, n, 0, trials, neighbours=True)
        z = solvers._own_start(F, dom.center())
        buf = np.empty_like(z)
        for _ in range(cfg.T):
            solvers._step_into(F, z, cfg.eta, None, buf)
        plain = np.linalg.norm(z[:trials] - z[trials:], axis=-1)
        assert res.divergences.tobytes() == plain.tobytes()

    def test_eta_gate(self):
        with pytest.raises(ConfigError):
            stability_experiment(self.op, self.dom, SolverConfig("gd", 2.5, 10),
                                 16, 2, 0, NoiseModel("offset", 0.1))

    def test_trials_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before trials was checked")

        monkeypatch.setattr("vilab.analysis._draw_records", no_sampling)
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials"):
                stability_experiment(self.op, self.dom, SolverConfig("gd", 0.1, 10),
                                     16, trials, 0, NoiseModel("offset", 0.1))

    @pytest.mark.parametrize("n, seed, message", [
        (0, 0, r"'n' must be in \[1, inf\), got 0"), (2.5, 0, "'n' must be an integer, got 2.5"),
        (True, 0, "'n' must be an integer, got True"), ("4", 0, "'n' must be an integer, got '4'"),
        (16, True, "'seed' must be an integer, got True"),
        (16, -1, r"'seed' must be in \[0, inf\), got -1")])
    def test_n_and_seed_checked_before_sampling(self, monkeypatch, n, seed, message):
        # n = 0 divided by zero and a bool seed ran as seed 1 before n and the
        # base seed had a declaration
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before n and seed were checked")

        monkeypatch.setattr("vilab.analysis._draw_records", no_sampling)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            stability_experiment(self.op, self.dom, SolverConfig("gd", 0.1, 10),
                                 n, 4, seed, NoiseModel("offset", 0.1))

    @pytest.mark.parametrize("projected, mu", [(True, 1.0), (False, 0.6)],
                             ids=["projected", "xi_at_least_1"])
    def test_eg_without_a_certificate_reports_no_bound(self, projected, mu):
        # projected eg has no certified per-step ratio, and at mu 0.6, L 1,
        # eta 0.5 the unprojected one is >= 1: the run reports no ceiling
        op = generate_operator(0, 2, mu, 1.0, domain=self.dom)
        noise = NoiseModel("offset", 0.3)
        cfg = SolverConfig("eg", 0.1 if projected else 0.5, 500, projected=projected)
        w = sampled_constants(constants(op, self.dom), noise, self.dom)
        assert projected or contraction_bound("eg", w.mu, w.L, cfg.eta) >= 1.0
        res = stability_experiment(op, self.dom, cfg, 16, 8, 4, noise)
        assert res.bound is None
        assert res.bound_base_K is None
        assert np.all(res.divergences >= 0.0)

    @pytest.mark.parametrize("kind", ["offset", "matrix"])
    def test_unprojected_eg_bound_is_a_ceiling(self, kind):
        # mu = L = 1 and eta 0.1 give a per-step ratio xi of about 0.91;
        # each step adds at most 2 eta K_w (1 + eta L_w) / n to the divergence
        noise = NoiseModel(kind, 0.3 if kind == "offset" else 0.05)
        res = stability_experiment(self.op, self.dom, SolverConfig("eg", 0.1, 500),
                                   16, 8, 4, noise)
        w = sampled_constants(constants(self.op, self.dom), noise, self.dom)
        xi = contraction_bound("eg", w.mu, w.L, 0.1)
        assert xi < 1.0
        assert res.bound == 2 * 0.1 * w.K * (1 + 0.1 * w.L) / (16 * (1 - xi))
        assert 0.0 < res.divergences.max() <= res.bound

    def _heavy_noise_gd(self):
        """gd at mu = L = 1, eta 0.1, T 3000 under offset noise 5: n -> result."""
        cfg, noise = SolverConfig("gd", 0.1, 3000), NoiseModel("offset", 5.0)
        return {n: stability_experiment(self.op, self.dom, cfg, n, 400, 0, noise)
                for n in (4, 16)}

    def test_gd_divergence_stays_under_the_recursion_ceiling(self):
        # delta_{t+1} <= xi delta_t + 2 eta K_w / n sums to 2 eta K_w / (n (1 - xi))
        w = sampled_constants(constants(self.op, self.dom), NoiseModel("offset", 5.0), self.dom)
        xi = contraction_bound("gd", w.mu, w.L, 0.1)
        for n, res in self._heavy_noise_gd().items():
            assert res.divergences.max() <= 2 * 0.1 * w.K / (n * (1 - xi))

    @pytest.mark.xfail(strict=True, reason="gd's 2K/(n(2 mu - eta L^2)) is 2 eta K/(n(1 - "
                       "xi^2)), below the recursion's ceiling by the factor 1 + xi")
    def test_gd_bound_holds_under_heavy_noise(self):
        # the largest divergences read 2.370 at n = 4 and 0.608 at n = 16,
        # above the reported 1.632 and 0.408
        for res in self._heavy_noise_gd().values():
            assert res.divergences.max() <= res.bound

    @pytest.mark.parametrize("kind", ["offset", "matrix"])
    @pytest.mark.parametrize("on_simplex", [False, True])
    def test_neighbours_match_a_copied_reference(self, kind, on_simplex, monkeypatch):
        # the neighbour swapped in place gives the divergences of a
        # neighbour built as a copy, bit for bit
        dom = Simplex(2) if on_simplex else Ball(np.zeros(3), 1.0)
        op = generate_operator(9, dom.dim, 0.8, 1.6, domain=dom)
        noise, cfg = NoiseModel(kind, 0.3), SolverConfig("gd", 0.2, 300)
        n, trials, seed = 16, 6, 7
        res = stability_experiment(op, dom, cfg, n, trials, seed, noise)
        originals, neighbours = [], []
        for t in range(trials):
            ds_seed = trial_dataset_seed(seed, n, t)
            X = sample_dataset(op, noise, n, ds_seed)
            j = int(np.random.default_rng(
                np.random.SeedSequence(ds_seed, spawn_key=(9,))).integers(n))
            originals.append(empirical_operator(op, X))
            neighbours.append(empirical_operator(op, neighbour(op, X, noise, j, ds_seed + [1])))
        emps = originals + neighbours
        mats = np.stack([e.matrix for e in emps]) if kind == "matrix" else op.matrix
        Z = run(QuadraticOperator(mats, np.stack([e.offset for e in emps])), dom, cfg).final
        assert np.array_equal(res.divergences,
                              np.linalg.norm(Z[:trials] - Z[trials:], axis=-1))
        assert np.all(res.divergences > 0.0)
        # the swap changes exactly one record of each trial's dataset
        drawn = []

        def keeping(problem, noise, count, rows, streams):
            records = problems._draw_records(problem, noise, count, rows, streams)
            if count == n:  # a chunk's datasets, not the replacement records
                drawn.append((records, records.copy()))
            return records

        monkeypatch.setattr("vilab.analysis._draw_records", keeping)
        monkeypatch.setattr("vilab.analysis._CHUNK_FLOATS",
                            4 * n * dom.dim ** (2 if kind == "matrix" else 1))
        _trial_operators(op, noise, n, seed, trials, neighbours=True)
        assert [len(records) for records, _ in drawn] == [4 * n, 2 * n]  # trials 0-3, 4-5
        for records, before in drawn:
            changed = np.any((records != before).reshape(-1, n, records[0].size), axis=-1)
            assert np.array_equal(changed.sum(axis=-1), np.ones(len(records) // n))

    def test_matrix_neighbours_take_one_norm_call(self, monkeypatch):
        # one quartic-kernel call per chunk of trials and one for every
        # trial's replacement record; a chunk of two trials here, one record
        # stack per chunk
        calls = []
        route = problems._quartic_lambda_max
        monkeypatch.setattr(problems, "_quartic_lambda_max",
                            lambda G: (calls.append(G.shape), route(G))[1])
        dom = Ball(np.zeros(4), 1.0)
        op = generate_operator(3, 4, 0.8, 1.6, domain=dom)
        n, trials = 32, 5
        monkeypatch.setattr("vilab.analysis._CHUNK_FLOATS", 2 * n * 16 + 1)
        stability_experiment(op, dom, SolverConfig("gd", 0.25, 50), n, trials, 0,
                             NoiseModel("matrix", 0.2), workers=1)
        assert calls == [(trials, 4, 4), (2 * n, 4, 4), (2 * n, 4, 4), (n, 4, 4)]
        calls.clear()
        monkeypatch.setattr("vilab.analysis._CHUNK_FLOATS", _CHUNK_FLOATS)  # one chunk of all
        stability_experiment(op, dom, SolverConfig("gd", 0.25, 50), n, trials, 0,
                             NoiseModel("matrix", 0.2), workers=1)
        assert calls == [(trials, 4, 4), (trials * n, 4, 4)]

    def test_benchmark_stability_outputs_match_the_reference(self):
        # the benchmark's gate on its matrix-noise stability divergences: the
        # `stability_matrix` operations at seed 0 against the pinned arrays,
        # at the benchmark's own tolerance
        spec = importlib.util.spec_from_file_location("workloads", BENCH_DIR / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        inst = workloads.setup("stability_matrix", workloads.DEFAULT_SEED, smoke=False)
        got = [workloads.output_arrays("stability_matrix", op())
               for op in workloads.operations(inst)]
        pinned = workloads.load_reference("stability_matrix")
        assert len(got) == len(pinned) == 3
        assert all(workloads.compare(a, r)[0] for a, r in zip(got, pinned))

    def test_matrix_noise_bound_uses_the_certified_pair(self):
        # a record's lambda_min(sym) can fall below mu; the gate and the bound
        # use (mu - magnitude, L + magnitude)
        dom = Ball(np.zeros(3), 1.0)
        op = generate_operator(9, 3, 0.8, 1.6, domain=dom)
        consts, noise, n = constants(op, dom), NoiseModel("matrix", 0.2), 16
        mu_w, L_w = consts.mu - 0.2, consts.L + 0.2
        emps = [empirical_operator(op, X) for X in _trial_datasets(op, noise, n, 6, 1)]
        assert min(np.linalg.eigvalsh(0.5 * (e.matrix + e.matrix.T))[0] for e in emps) < consts.mu
        res = stability_experiment(op, dom, SolverConfig("gd", 0.25, 300), n, 6, 1, noise)
        K_noisy = sampled_constants(consts, noise, dom).K
        assert res.bound == 2.0 * K_noisy / (n * (2.0 * mu_w - 0.25 * L_w ** 2))
        assert res.divergences.max() <= res.bound
        eta = 0.5 * (2 * mu_w / L_w ** 2 + 2 * consts.mu / consts.L ** 2)
        with pytest.raises(ConfigError, match="matrix noise certifies"):
            stability_experiment(op, dom, SolverConfig("gd", eta, 10), n, 2, 0, noise)

    @pytest.mark.parametrize("kind", ["offset", "matrix"])
    def test_gamma_is_the_stability_bound(self, kind):
        # one set of sampled constants gates eta, bounds the divergence and
        # gives the summary's gamma at the same n
        dom = Ball(np.zeros(3), 1.0)
        op = generate_operator(9, 3, 0.8, 1.6, domain=dom)
        consts, noise = constants(op, dom), NoiseModel(kind, 0.2)
        cfg = SolverConfig("gd", 0.25, 50)
        assert check_gd_eta(cfg, consts, noise, dom) == sampled_constants(consts, noise, dom)
        res = stability_experiment(op, dom, cfg, 16, 3, 0, noise)
        bounds = evaluate_bounds(op, dom, consts, noise, 16, cfg)
        assert set(bounds) == {"covering", "simplex", "game", "bernstein_B", "gamma", "note"}
        assert res.bound == bounds["gamma"]["eta"]

    def test_matrix_noise_runs(self):
        cfg = SolverConfig("gd", 0.1, 500)
        res = stability_experiment(self.op, self.dom, cfg, 16, 8, 5,
                                   NoiseModel("matrix", 0.2))
        assert np.all(res.divergences > 0.0)
        assert res.divergences.max() <= res.bound


class TestGeneralizationSweep:
    def test_zero_noise_trains_to_true_optimum(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(1, 2, 0.8, 1.6, domain=dom)
        res = generalization_sweep(op, dom, SolverConfig("gd", 0.2, 1),
                                   NoiseModel("offset", 0.0), (8, 16), 3, 0)
        assert res.failures == []
        assert max(row["mean"] for row in res.per_n) <= 1e-8

    def test_weak_gap_rate_on_game(self):
        game = generate_game(2, 2, 1, 0.5, 0.3)
        res = generalization_sweep(
            game, game.domain, SolverConfig("gd", 0.1, 1),
            NoiseModel("offset", 0.1), (32, 128, 512, 2048), 40, 7,
            kind="weak_gap",
        )
        assert res.failures == []
        assert res.fit_error is None
        assert -1.3 <= res.slope <= -0.7
        assert res.r_squared >= 0.85
        means = [row["mean"] for row in res.per_n]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_deterministic(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(3, 2, 0.8, 1.6, domain=dom)
        args = (op, dom, SolverConfig("gd", 0.2, 1), NoiseModel("offset", 0.2),
                (16, 64), 10, 11)
        a = generalization_sweep(*args)
        b = generalization_sweep(*args)
        for ra, rb in zip(a.per_n, b.per_n):
            assert np.array_equal(ra["values"], rb["values"])
        assert a.slope == b.slope

    def test_per_n_payload(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(4, 2, 0.8, 1.6, domain=dom)
        res = generalization_sweep(op, dom, SolverConfig("gd", 0.2, 1),
                                   NoiseModel("offset", 0.2), (16, 32), 10, 0,
                                   delta=0.2)
        for row in res.per_n:
            assert row["values"].shape == (10,)
            assert set(row["quantiles"]) == {"0.5", "0.9", "0.8"}
            assert row["train_steps"] > 0
            assert row["quantiles"]["0.9"] >= row["quantiles"]["0.5"] - 1e-15

    def test_quantile_fit_mode(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(5, 2, 0.8, 1.6, domain=dom)
        res = generalization_sweep(op, dom, SolverConfig("gd", 0.2, 1),
                                   NoiseModel("offset", 0.2), (16, 64, 256), 100, 0,
                                   mode="quantile")
        assert res.fit_on == "q0.9"
        assert res.slope is not None and res.slope < 0.0

    def test_validation(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(6, 2, 0.8, 1.6, domain=dom)
        cfg = SolverConfig("gd", 0.2, 1)
        noise = NoiseModel("offset", 0.1)
        with pytest.raises(ValueError):
            generalization_sweep(op, dom, cfg, noise, (8, 16), 1, 0)
        with pytest.raises(ValueError):
            generalization_sweep(op, dom, cfg, noise, (8, 16), 5, 0, delta=1.5)
        with pytest.raises(ValueError):
            generalization_sweep(op, dom, cfg, noise, (8, 0), 5, 0)
        with pytest.raises(ValueError):
            generalization_sweep(op, dom, cfg, noise, (8, 16), 5, 0, mode="best")
        with pytest.raises(ValueError):
            generalization_sweep(op, dom, cfg, noise, (8, 16), 5, 0, kind="weak_gap")

    def test_repeated_n_reports_no_fit(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(6, 2, 0.8, 1.6, domain=dom)
        res = generalization_sweep(op, dom, SolverConfig("gd", 0.2, 1),
                                   NoiseModel("offset", 0.1), (16, 16), 3, 0)
        assert len(res.per_n) == 2
        assert res.slope is None and res.intercept is None and res.r_squared is None
        assert "distinct n" in res.fit_error

    def test_training_eta_gate(self):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(7, 2, 0.8, 1.6, domain=dom)
        with pytest.raises(ConfigError):
            generalization_sweep(op, dom, SolverConfig("gd", 5.0, 1),
                                 NoiseModel("offset", 0.1), (8, 16), 3, 0)

    def test_hp_quantile_trials_floor(self):
        game = generate_game(8, 2, 1, 0.5, 0.3)
        cfg = SolverConfig("gd", 0.1, 1)
        noise = NoiseModel("offset", 0.1)
        with pytest.raises(ValueError):
            generalization_sweep(game, game.domain, cfg, noise, (16, 32), 19, 0,
                                 delta=0.5, mode="quantile")
        res = generalization_sweep(game, game.domain, cfg, noise, (16, 32), 20, 0,
                                   delta=0.5, mode="quantile")
        assert res.fit_on == "q0.5"

    @pytest.mark.parametrize("mode, trials, message", [
        ("bogus", 5, "'mode' must be one of mean/quantile, got 'bogus'"),
        ("q0.9", 5, "'mode' must be one of mean/quantile, got 'q0.9'"),
        # the 0.9 quantile needs >= 10/0.1 trials
        ("quantile", 2, "needs >= 100 trials, got 2")])
    def test_mode_checked_before_sampling(self, monkeypatch, mode, trials, message):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(6, 2, 0.8, 1.6, domain=dom)

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before mode was checked")

        monkeypatch.setattr("vilab.analysis._draw_records", no_sampling)
        with pytest.raises(ValueError, match=message):
            generalization_sweep(op, dom, SolverConfig("gd", 0.2, 1),
                                 NoiseModel("offset", 0.1), (8, 16), trials, 0, mode=mode)

    def test_kind_checked_before_sampling(self, monkeypatch):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(6, 2, 0.8, 1.6, domain=dom)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return problems._draw_records(*args, **kwargs)

        monkeypatch.setattr("vilab.analysis._draw_records", counting)
        cfg, noise = SolverConfig("gd", 0.2, 1), NoiseModel("offset", 0.1)
        for kind, match in (("weak_gap", "needs a game"),
                            ("potential_gap", "needs a game"),
                            ("bogus", "'kind' must be one of gap/weak_gap/potential_gap, "
                                      "got 'bogus'")):
            with pytest.raises(ValueError, match=match):
                generalization_sweep(op, dom, cfg, noise, (8, 16), 5, 0, kind=kind)
            with pytest.raises(ValueError, match=match):
                generalization_sweep(op, dom, cfg, noise, (8,), 5, 0, kind=kind)
        assert calls == []

    def test_training_steps_through_solver(self):
        # offset noise 3.0 moves empirical roots outside the unit ball, so
        # the projection binds on the eg half-step as well
        dom = Ball(np.zeros(3), 1.0)
        op = generate_operator(0, 3, 0.8, 1.0, domain=dom)
        noise = NoiseModel("offset", 3.0)
        cfg = SolverConfig("eg", 0.5, 1, projected=True)
        datasets = [sample_dataset(op, noise, 8, trial_dataset_seed(0, 8, t))
                    for t in range(6)]
        T = _training_horizon(cfg, constants(op, dom), noise, dom)
        Z, steps, failed, direct = _empirical_solutions(_trial_operators(op, noise, 8, 0, 6),
                                                        dom, cfg, T)
        assert direct == 0
        for z, X in zip(Z, datasets):
            ref = run(empirical_operator(op, X), dom, replace(cfg, T=steps)).final
            assert np.max(np.abs(z - ref)) <= 1e-12
        assert failed == []


def _trial_datasets(problem, noise, n, trials, seed):
    """The datasets a sweep draws for (n, seed)."""
    return [sample_dataset(problem, noise, n, trial_dataset_seed(seed, n, t))
            for t in range(trials)]


def _projected(kind):
    """Projected gd at a step the noise kind's certificate admits (matrix
    noise needs eta < 0.18 here), large enough that the reference loop ends
    within a few ulps of each root."""
    return SolverConfig("gd", 0.2 if kind == "offset" else 0.1, 1, projected=True)


@pytest.mark.parametrize("kind", ["offset", "matrix"])
class TestEmpiricalSolutions:
    """Projected sweeps take the trials' empirical roots when all lie in the
    domain and otherwise train every trial; the all-trials doubling loop
    (_iterate_to_tol) on the same datasets is the reference."""

    unit = Ball(np.zeros(3), 1.0)
    op = generate_operator(0, 3, 0.8, 1.6, domain=unit)

    def _loop(self, dom, cfg, noise, n, trials, seed):
        F = _trial_operators(self.op, noise, n, seed, trials)
        return _iterate_to_tol(F, dom, cfg,
                               _training_horizon(cfg, constants(self.op, dom), noise, dom))

    def _row(self, dom, cfg, noise, n, trials, seed):
        """The strong-gap row of a one-size sweep, constants taken on `dom`."""
        return generalization_sweep(self.op, dom, cfg, noise, (n,), trials, seed).per_n[0]

    def test_roots_inside_are_solved_directly(self, kind):
        noise = NoiseModel(kind, 0.1)
        row = self._row(self.unit, _projected(kind), noise, 64, 20, 3)
        assert (row["direct"], row["train_steps"], row["failed"]) == (20, 0, [])
        Z, steps, failed = self._loop(self.unit, _projected(kind), noise, 64, 20, 3)
        assert steps > 0 and failed == []
        ref = gap(self.op, self.unit, Z)
        assert np.max(np.abs(row["values"] - ref) / np.abs(ref)) <= 1e-12

    def test_roots_outside_train_like_the_loop(self, kind):
        small = Ball(np.zeros(3), 0.01)
        noise = NoiseModel(kind, 0.1)
        row = self._row(small, _projected(kind), noise, 64, 20, 3)
        assert row["direct"] == 0 and row["failed"] == []
        Z, steps, _ = self._loop(small, _projected(kind), noise, 64, 20, 3)
        assert row["train_steps"] == steps
        assert np.array_equal(row["values"], gap(self.op, small, Z))

    def test_off_centre_ball_is_solved_directly(self, kind):
        # membership must not go through the projection, which moves
        # interior points of an off-centre ball by an ulp
        root = exact_solution(self.op)
        dom = Ball(root + 0.3, 1.0)
        noise = NoiseModel(kind, 0.1)
        roots = np.stack([exact_solution(empirical_operator(self.op, X))
                          for X in _trial_datasets(self.op, noise, 64, 20, 3)])
        assert not np.array_equal(dom.project(roots), roots)
        row = self._row(dom, _projected(kind), noise, 64, 20, 3)
        assert (row["direct"], row["train_steps"], row["failed"]) == (20, 0, [])
        Z, _, failed = self._loop(dom, _projected(kind), noise, 64, 20, 3)
        assert failed == []
        ref = gap(self.op, dom, Z)
        assert np.max(np.abs(row["values"] - ref) / np.abs(ref)) <= 1e-12

    def test_one_rejected_root_trains_every_trial(self, kind):
        # a ball whose boundary passes through the true root takes some
        # empirical roots and rejects the others
        dom = Ball(np.zeros(3), float(np.linalg.norm(exact_solution(self.op))))
        noise = NoiseModel(kind, 0.5)
        datasets = _trial_datasets(self.op, noise, 16, 20, 5)
        roots = np.stack([exact_solution(empirical_operator(self.op, X))
                          for X in datasets])
        assert 0 < int(np.sum(dom.contains_interior(roots, 0.0))) < 20
        row = self._row(dom, _projected(kind), noise, 16, 20, 5)
        Z, steps, failed = self._loop(dom, _projected(kind), noise, 16, 20, 5)
        assert (row["direct"], row["train_steps"], row["failed"]) == (0, steps, failed)
        assert np.array_equal(row["values"], gap(self.op, dom, Z))

    def test_unprojected_never_solves(self, kind, monkeypatch):
        def no_solve(F):
            raise AssertionError("unprojected sweep took the direct solve")

        monkeypatch.setattr("vilab.analysis._empirical_roots", no_solve)
        cfg, noise = SolverConfig("gd", 0.2, 1), NoiseModel(kind, 0.1)
        row = self._row(self.unit, cfg, noise, 64, 20, 3)
        Z, steps, failed = self._loop(self.unit, cfg, noise, 64, 20, 3)
        assert (row["direct"], row["train_steps"], row["failed"]) == (0, steps, failed)
        assert np.array_equal(row["values"], gap(self.op, self.unit, Z))


class TestDoublingRounds:
    """_iterate_to_tol runs T steps, then 2T more, ... (at most 8 rounds) and
    reports the rows still above the 1e-8 empirical gap; a plain run of the
    same total steps is the reference."""

    unit = Ball(np.zeros(2), 1.0)

    def _max_gap(self, F, cfg, steps):
        Z = run(F, self.unit, replace(cfg, T=steps)).final
        return float(np.max(_strong_gap(F, self.unit, Z)))

    def test_doubles_from_horizon_one(self):
        # gd at eta 0.2 on M = I contracts by 0.8 per step: 1e-8 takes
        # several rounds from horizon 1
        F = QuadraticOperator(np.eye(2), np.array([[-0.5, 0.3], [0.2, 0.4]]))
        cfg = SolverConfig("gd", 0.2, 1)
        Z, steps, failed = _iterate_to_tol(F, self.unit, cfg, 1)
        rounds = (steps + 1).bit_length() - 1
        assert steps == 2 ** rounds - 1 and 2 < rounds < 8  # 1 + 2 + ... + 2^(rounds-1)
        assert failed == []
        assert self._max_gap(F, cfg, steps) <= 1e-8 < self._max_gap(F, cfg, steps // 2)
        assert np.array_equal(Z, run(F, self.unit, replace(cfg, T=steps)).final)

    def test_reports_the_rows_that_missed(self):
        # eta 0.01 contracts by 0.99 per step, too slowly for 8 rounds; rows 0
        # and 2 have their root at the start (the center) and never miss
        F = QuadraticOperator(np.eye(2), np.array([[0.0, 0.0], [-0.5, 0.3],
                                                   [0.0, 0.0], [0.2, 0.4]]))
        cfg = SolverConfig("gd", 0.01, 1)
        Z, steps, failed = _iterate_to_tol(F, self.unit, cfg, 1)
        assert steps == 255
        assert failed == [1, 3]
        assert np.array_equal(Z, run(F, self.unit, replace(cfg, T=255)).final)
        assert np.nonzero(_strong_gap(F, self.unit, Z) > 1e-8)[0].tolist() == failed

    def test_sweep_reports_the_missed_trials(self, monkeypatch):
        # a horizon of 1 at a slow eta leaves every trial above 1e-8 after
        # 8 rounds; each row lists them and so does the sweep's failures
        op = generate_operator(0, 2, 0.5, 1.0, domain=self.unit)
        monkeypatch.setattr("vilab.analysis._training_horizon", lambda *args: 1)
        cfg, noise = SolverConfig("gd", 0.01, 1), NoiseModel("offset", 0.1)
        res = generalization_sweep(op, self.unit, cfg, noise, (8, 16), 4, 0)
        for row in res.per_n:
            Z, steps, failed = _iterate_to_tol(_trial_operators(op, noise, row["n"], 0, 4),
                                               self.unit, cfg, 1)
            assert failed == [0, 1, 2, 3]
            assert (row["direct"], row["train_steps"], row["failed"]) == (0, 255, failed)
            assert np.array_equal(row["values"], gap(op, self.unit, Z))
        assert res.failures == [{"n": 8, "trials": [0, 1, 2, 3]},
                                {"n": 16, "trials": [0, 1, 2, 3]}]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Experiments keep each trial's means, not its records, so peak memory
    does not grow with the number of trials: it is one chunk's records per
    worker thread. Serial runs are compared across trial counts that each
    fill at least one chunk; how far two threads' records overlap depends on
    timing, so a threaded run is held to the serial peak per worker."""

    dom = Ball(np.zeros(4), 1.0)
    op = generate_operator(0, 4, 0.8, 1.6, domain=dom)
    # at n = 2048 and d = 4 a chunk holds 2 matrix-noise or 8 offset-noise trials
    TRIALS = {"matrix": (4, 40), "offset": (8, 80)}

    def test_trial_counts_fill_a_chunk(self):
        for kind, (few, _) in self.TRIALS.items():
            assert _CHUNK_FLOATS // (2048 * (16 if kind == "matrix" else 4)) <= few

    def _check(self, experiment, kind):
        few, many = self.TRIALS[kind]
        peaks = [_peak_bytes(lambda: experiment(trials, 1)) for trials in (few, many)]
        assert peaks[1] <= 1.5 * peaks[0]
        assert _peak_bytes(lambda: experiment(many, 2)) <= 1.5 * 2 * peaks[0]

    @pytest.mark.parametrize("kind", ["matrix", "offset"])
    def test_stability_peak_flat_in_trials(self, kind):
        noise, cfg = NoiseModel(kind, 0.2), SolverConfig("gd", 0.25, 50)
        self._check(lambda trials, workers: stability_experiment(
            self.op, self.dom, cfg, 2048, trials, 0, noise, workers=workers), kind)

    @pytest.mark.parametrize("kind", ["matrix", "offset"])
    def test_sweep_peak_flat_in_trials(self, kind):
        noise, cfg = NoiseModel(kind, 0.2), SolverConfig("gd", 0.1, 1)
        self._check(lambda trials, workers: generalization_sweep(
            self.op, self.dom, cfg, noise, (2048,), trials, 0, workers=workers), kind)


class TestTrialChunks:
    """_trial_operators draws a chunk of consecutive trials at once, and its
    stack keeps every bit at every chunk size: one trial per chunk, all
    trials in one chunk, and the per-trial datasets' own means."""

    ball = Ball(np.zeros(3), 1.0)
    ops = {"ball": generate_operator(4, 3, 0.8, 1.6, domain=ball),
           "simplex": generate_operator(4, 4, 0.8, 1.6, domain=Simplex(3))}

    @pytest.mark.parametrize("neighbours", [False, True])
    @pytest.mark.parametrize("where", ["ball", "simplex"])
    @pytest.mark.parametrize("kind", ["matrix", "offset"])
    def test_stack_is_equal_at_every_chunk_size(self, kind, where, neighbours, monkeypatch):
        op, noise = self.ops[where], NoiseModel(kind, 0.3)
        n, trials, seed = 24, 7, 5
        stacks = []
        for budget in (1, 10 ** 9):  # one trial per chunk, every trial in one chunk
            monkeypatch.setattr("vilab.analysis._CHUNK_FLOATS", budget)
            stacks.append(_trial_operators(op, noise, n, seed, trials,
                                           neighbours=neighbours, workers=1))
        seeds = [trial_dataset_seed(seed, n, t) for t in range(trials)]
        datasets = [sample_dataset(op, noise, n, s) for s in seeds]
        if neighbours:  # trial t's dataset with the record its seed picks redrawn
            swapped = [int(rng.integers(n))
                       for rng in problems._stream(problems._stream_states(seeds, (9,)))]
            datasets += [neighbour(op, X, noise, j, s + [1])
                         for X, j, s in zip(datasets, swapped, seeds)]
        emps = [empirical_operator(op, X) for X in datasets]
        mats = np.stack([e.matrix for e in emps]) if kind == "matrix" else op.matrix
        offs = np.stack([e.offset for e in emps])
        for F in stacks:
            assert np.array_equal(F.matrix, mats)
            assert np.array_equal(F.offset, offs)


class TestTrialSeeding:
    """_trial_operators seeds every trial's keyed streams in one pass per key
    before its blocks start, and each block sets one reused generator per key
    to its trials' states in turn."""

    op = generate_operator(4, 3, 0.8, 1.6)

    def test_rows_are_the_trial_seeds(self, monkeypatch):
        passes = []

        def recording(seeds, key):
            passes.append((seeds, key))
            return problems._stream_states(seeds, key)

        monkeypatch.setattr("vilab.analysis._stream_states", recording)
        _trial_operators(self.op, NoiseModel("offset", 0.3), 16, 7, 9, neighbours=True,
                         workers=1)
        rows = [trial_dataset_seed(7, 16, t) for t in range(9)]
        assert passes == [(rows, (0,)), (rows, (1,)), (rows, (9,))]
        assert all(type(part) is int for seeds, _ in passes for row in seeds for part in row)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["matrix", "offset"])
    def test_generators_per_call_not_per_trial(self, monkeypatch, kind, workers):
        # the replacement draw's streams, then each block's record and pick
        # streams; threads forced on and one trial per chunk
        built, real = [], np.random.PCG64

        def counting(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(np.random, "PCG64", counting)
        monkeypatch.setattr("vilab.analysis._SERIAL_FLOATS", 0)
        monkeypatch.setattr("vilab.analysis._CHUNK_FLOATS", 1)
        keys = 1 if kind == "matrix" else 2
        for trials in (2, 5, 40):
            built.clear()
            _trial_operators(self.op, NoiseModel(kind, 0.3), 8, 3, trials, neighbours=True,
                             workers=workers)
            assert len(built) == keys + workers * (keys + 1)


class TestTrialThreads:
    """_trial_operators draws contiguous blocks of trials on threads when a
    trial holds at least _SERIAL_FLOATS floats of records, and its stack
    keeps every bit at every worker count."""

    ball = Ball(np.zeros(4), 1.0)
    simplex = Simplex(4)  # dim 5: records of 5 or 5 x 5 floats
    problems = {"ball": generate_operator(0, 4, 0.8, 1.6, domain=ball),
                "simplex": generate_operator(0, 5, 0.8, 1.6, domain=simplex)}
    # n on either side of the threshold on both domains: a trial holds n d^2
    # floats of records under matrix noise and n d under offset noise
    SIZES = {"matrix": (16, 640), "offset": (16, 2560)}

    def test_sizes_straddle_the_threshold(self):
        for kind, (below, above) in self.SIZES.items():
            for op in self.problems.values():
                per_record = op.dim ** (2 if kind == "matrix" else 1)
                assert below * per_record < _SERIAL_FLOATS <= above * per_record

    @pytest.mark.parametrize("side", [0, 1], ids=["below", "above"])
    @pytest.mark.parametrize("neighbours", [False, True])
    @pytest.mark.parametrize("where", ["ball", "simplex"])
    @pytest.mark.parametrize("kind", ["matrix", "offset"])
    def test_stack_is_equal_at_every_worker_count(self, kind, where, neighbours, side):
        op, noise = self.problems[where], NoiseModel(kind, 0.2)
        n = self.SIZES[kind][side]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches than cores, mid-block
        try:
            stacks = [_trial_operators(op, noise, n, 7, 5, neighbours=neighbours, workers=w)
                      for w in (1, 2, 3)]
        finally:
            sys.setswitchinterval(switch)
        for F in stacks[1:]:
            assert np.array_equal(F.matrix, stacks[0].matrix)
            assert np.array_equal(F.offset, stacks[0].offset)

    def test_pool_holds_at_most_one_helper_per_extra_block(self, pool_sizes):
        op = self.problems["ball"]
        for kind, (below, above) in self.SIZES.items():
            noise = NoiseModel(kind, 0.2)
            for workers in (1, 2, 8):
                _trial_operators(op, noise, below, 0, 5, neighbours=True, workers=workers)
            assert pool_sizes == []  # below the threshold: never built
            for workers, trials in ((1, 5), (2, 5), (8, 5), (8, 2), (3, 1)):
                _trial_operators(op, noise, above, 0, trials, workers=workers)
            assert pool_sizes == [1, 4, 1]  # min(workers, trials) - 1, when >= 1
            pool_sizes.clear()

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _default_workers() == 3
        _trial_operators(self.problems["ball"], NoiseModel("matrix", 0.2), 640, 0, 5)
        assert pool_sizes == [2]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity call
        assert _default_workers() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _default_workers() == 1

    def test_experiments_are_equal_at_one_and_two_workers(self):
        op, dom = self.problems["ball"], self.ball
        matrix, offset = NoiseModel("matrix", 0.2), NoiseModel("offset", 0.2)
        cfg = SolverConfig("gd", 0.25, 50)
        div = [stability_experiment(op, dom, cfg, 640, 4, 0, matrix, workers=w).divergences
               for w in (1, 2)]
        assert np.array_equal(div[0], div[1])
        cfg = SolverConfig("gd", 0.1, 1, projected=True)
        sweeps = [generalization_sweep(op, dom, cfg, offset, (16, 2560), 4, 0, workers=w)
                  for w in (1, 2)]
        for a, b in zip(*(s.per_n for s in sweeps)):
            assert np.array_equal(a["values"], b["values"])
        assert sweeps[0].slope == sweeps[1].slope

    def test_workers_below_one_are_rejected(self):
        op, dom, noise = self.problems["ball"], self.ball, NoiseModel("offset", 0.2)
        with pytest.raises(ValueError, match="workers"):
            _trial_operators(op, noise, 16, 0, 3, workers=0)
        with pytest.raises(ValueError, match="workers"):
            stability_experiment(op, dom, SolverConfig("gd", 0.25, 5), 16, 3, 0, noise,
                                 workers=0)
        with pytest.raises(ValueError, match="workers"):
            generalization_sweep(op, dom, SolverConfig("gd", 0.1, 1, projected=True),
                                 noise, (16, 32), 3, 0, workers=-1)


class TestBernsteinCheck:
    def test_reference_row_and_violations(self):
        for seed in (0, 1):
            game = generate_game(seed, 2, 1, 0.8, 0.3)
            res = bernstein_check(game, NoiseModel("offset", 0.3),
                                  z_samples=20, mc_samples=2000, seed=seed)
            assert len(res.rows) == 20
            ref = res.rows[0]
            assert ref["lhs"] == 0.0 and ref["rhs"] == 0.0
            assert not ref["violated"]
            assert res.violations == 0
            assert res.B > 0.0

    def test_matrix_noise(self):
        game = generate_game(2, 2, 1, 0.8, 0.3)
        res = bernstein_check(game, NoiseModel("matrix", 0.2),
                              z_samples=10, mc_samples=1000, seed=3)
        assert res.violations == 0

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_matrix_noise_that_certifies_no_mu_is_refused(self, factor):
        # as sampled_constants and every CLI command refuse it, before any draw
        game = generate_game(3, 3, 2, 0.5, 0.3)
        noise = NoiseModel("matrix", factor * constants(game).mu)
        with pytest.raises(ConfigError, match="certifies no strong monotonicity"):
            bernstein_check(game, noise, 2, 50, 0)

    def test_deterministic(self):
        game = generate_game(4, 2, 1, 0.8, 0.3)
        a = bernstein_check(game, NoiseModel("offset", 0.3), 5, 500, 9)
        b = bernstein_check(game, NoiseModel("offset", 0.3), 5, 500, 9)
        assert a.rows == b.rows

    def test_validation(self):
        game = generate_game(5, 2, 1, 0.8, 0.3)
        with pytest.raises(ValueError):
            bernstein_check(game, NoiseModel("offset", 0.3), 0, 100, 0)
        with pytest.raises(ValueError):
            bernstein_check(game, NoiseModel("offset", 0.3), 5, 1, 0)


class TestEvaluateBounds:
    def test_simplex_domain(self):
        dom = Simplex(3)
        bounds = evaluate_bounds(None, dom, UNIT_CONSTS, NOISELESS, 100, GD_01)
        assert bounds["simplex"] is not None
        assert np.isclose(bounds["simplex"], simplex_bound(UNIT_CONSTS, 2.0 / 190.0, 3))
        assert bounds["covering"] > 0.0
        assert bounds["game"] is None
        assert bounds["note"] == BOUND_NOTE

    def test_game_problem(self):
        game = generate_game(6, 2, 1, 0.5, 0.3)
        bounds = evaluate_bounds(game, game.domain, TWO_PLAYER_CONSTS, NOISELESS, 100, GD_01)
        assert bounds["game"] is not None
        assert np.isclose(bounds["game"], game_bound(TWO_PLAYER_CONSTS, 2.0 / 190.0))
        assert bounds["simplex"] is None

    def test_gamma_fallback(self):
        # eta 5 is outside the gd range: gamma falls back to K/(n mu) = 1/20
        dom = Ball(np.zeros(2), 1.0)
        bounds = evaluate_bounds(None, dom, UNIT_CONSTS, NOISELESS, 20,
                                 SolverConfig("gd", 5.0, 0))
        ref = covering_bound(
            UNIT_CONSTS, 0.05, dom,
            dom.diameter() * np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5]),
        )
        assert np.isclose(bounds["covering"], ref)

    def test_eg_fallback_takes_eg_limit(self):
        # projected eg certifies nothing, so gamma is eg's eta -> 0 limit
        # 2K/(n(2 mu - L)) = 2/(20 * 0.6) at mu 0.8, L 1, not gd's K/(n mu)
        consts = ProblemConstants(mu=0.8, L=1.0, K=1.0, D=2.0, per_player=((0.8, 1.0),))
        dom = Ball(np.zeros(2), 1.0)
        bounds = evaluate_bounds(None, dom, consts, NOISELESS, 20,
                                 SolverConfig("eg", 0.1, 0, projected=True))
        assert bounds["gamma"]["eta"] is None
        assert np.isclose(bounds["gamma"]["limit"], 2.0 / 12.0)
        ref = covering_bound(consts, 2.0 / 12.0, dom,
                             dom.diameter() * np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5]))
        assert np.isclose(bounds["covering"], ref)

    def test_eg_without_limit_reports_no_bounds(self):
        # 2 mu <= L: eg has no eta -> 0 limit, so nothing stands in for gamma
        consts = ProblemConstants(mu=0.3, L=1.0, K=1.0, D=2.0, per_player=((0.3, 1.0),))
        bounds = evaluate_bounds(None, Simplex(2), consts, NOISELESS, 20,
                                 SolverConfig("eg", 0.1, 0))
        assert bounds["gamma"] == {"eta": None, "limit": None}
        assert (bounds["covering"], bounds["simplex"], bounds["game"]) == (None, None, None)
        assert bounds["bernstein_B"] == bernstein_constant(consts)

    def test_seed_helper(self):
        assert trial_dataset_seed(7, 64, 3) == [7, 64, 3]
        assert all(isinstance(x, int) for x in trial_dataset_seed(7, 64, 3))
