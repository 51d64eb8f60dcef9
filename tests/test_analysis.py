import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vilab import (
    BOUND_NOTE,
    Ball,
    Box,
    ConfigError,
    NoiseModel,
    ProblemConstants,
    Simplex,
    SolverConfig,
    bernstein_check,
    bernstein_constant,
    constants,
    covering_bound,
    eg_stability_closed_form,
    empirical_operator,
    evaluate_bounds,
    fit_loglog_slope,
    game_bound,
    gd_stability_bound,
    generalization_sweep,
    generate_game,
    generate_operator,
    quantile_fit_on,
    run,
    sample_dataset,
    simplex_bound,
    stability_experiment,
    stability_gamma,
    sweep_point,
    trial_dataset_seed,
)
from vilab.analysis import _train_to_empirical_opt

UNIT_CONSTS = ProblemConstants(mu=1.0, L=1.0, K=1.0, D=2.0, per_player=((1.0, 1.0),))
TWO_PLAYER_CONSTS = ProblemConstants(
    mu=1.0, L=1.0, K=1.0, D=2.0, per_player=((1.0, 1.0), (1.0, 1.0))
)


class TestClosedFormBounds:
    def test_gd_stability_frozen(self):
        assert np.isclose(gd_stability_bound(1.0, 100, 1.0, 1.0, 0.1), 2.0 / 190.0)

    def test_gd_stability_halves_with_n(self):
        a = gd_stability_bound(1.0, 50, 1.0, 1.0, 0.1)
        b = gd_stability_bound(1.0, 100, 1.0, 1.0, 0.1)
        assert np.isclose(a, 2.0 * b)

    def test_gd_stability_range_enforced(self):
        with pytest.raises(ValueError):
            gd_stability_bound(1.0, 100, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            gd_stability_bound(1.0, 0, 1.0, 1.0, 0.1)

    def test_eg_closed_form_is_negative(self):
        # the trailing factor is -2 eta L, so the literal value cannot bound
        # a norm; it is exposed for reporting only
        val = eg_stability_closed_form(1.0, 100, 0.9, 1.0, 0.1)
        assert val < 0.0

    def test_gamma_values(self):
        g = stability_gamma(UNIT_CONSTS, 100, 0.1)
        assert np.isclose(g["eta"], 2.0 / 190.0)
        assert np.isclose(g["limit"], 1.0 / 100.0)
        out = stability_gamma(UNIT_CONSTS, 100, 5.0)
        assert out["eta"] is None

    def test_gamma_uses_noise_inflated_k(self):
        dom = Ball(np.zeros(2), 1.0)
        g = stability_gamma(UNIT_CONSTS, 100, 0.1, NoiseModel("offset", 0.5), dom)
        assert np.isclose(g["eta"], 2.0 * 1.5 / 190.0)
        assert np.isclose(g["limit"], 1.5 / 100.0)

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


class TestStabilityExperiment:
    def setup_method(self):
        self.dom = Ball(np.zeros(2), 1.0)
        self.op = generate_operator(0, 2, 1.0, 1.0, domain=self.dom)

    def test_zero_noise_gives_zero_divergence(self):
        cfg = SolverConfig("gd", 0.1, 200)
        res = stability_experiment(self.op, self.dom, cfg, 16, 5, 0,
                                   NoiseModel("offset", 0.0))
        assert np.all(res.divergences == 0.0)
        assert not res.bound_informational

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

    def test_eta_gate(self):
        with pytest.raises(ConfigError):
            stability_experiment(self.op, self.dom, SolverConfig("gd", 2.5, 10),
                                 16, 2, 0, NoiseModel("offset", 0.1))

    def test_eg_bound_is_informational(self):
        cfg = SolverConfig("eg", 0.1, 500)
        res = stability_experiment(self.op, self.dom, cfg, 16, 8, 4,
                                   NoiseModel("offset", 0.3))
        assert res.bound_informational
        assert res.bound < 0.0
        assert res.bound_base_K is None
        assert np.all(res.divergences >= 0.0)

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
                                   NoiseModel("offset", 0.2), (16, 64, 256), 25, 0,
                                   fit_on="q0.9")
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
            generalization_sweep(op, dom, cfg, noise, (8, 16), 5, 0, fit_on="best")
        with pytest.raises(ValueError):
            generalization_sweep(op, dom, cfg, noise, (8, 16), 5, 0, kind="weak_gap")

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
                                 delta=0.5, fit_on=quantile_fit_on(19, 0.5))
        res = generalization_sweep(game, game.domain, cfg, noise, (16, 32), 20, 0,
                                   delta=0.5, fit_on=quantile_fit_on(20, 0.5))
        assert res.fit_on == "q0.5"

    def test_fit_on_checked_before_sampling(self, monkeypatch):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(6, 2, 0.8, 1.6, domain=dom)

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before fit_on was checked")

        monkeypatch.setattr("vilab.analysis.sample_dataset", no_sampling)
        for fit_on in ("bogus", "q0.7"):
            with pytest.raises(ValueError, match="fit_on"):
                generalization_sweep(op, dom, SolverConfig("gd", 0.2, 1),
                                     NoiseModel("offset", 0.1), (8, 16), 5, 0,
                                     fit_on=fit_on)

    def test_kind_checked_before_sampling(self, monkeypatch):
        dom = Ball(np.zeros(2), 1.0)
        op = generate_operator(6, 2, 0.8, 1.6, domain=dom)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sample_dataset(*args, **kwargs)

        monkeypatch.setattr("vilab.analysis.sample_dataset", counting)
        cfg, noise = SolverConfig("gd", 0.2, 1), NoiseModel("offset", 0.1)
        for kind, match in (("weak_gap", "needs a game"),
                            ("potential_gap", "needs a game"),
                            ("bogus", "unknown sweep kind")):
            with pytest.raises(ValueError, match=match):
                generalization_sweep(op, dom, cfg, noise, (8, 16), 5, 0, kind=kind)
            with pytest.raises(ValueError, match=match):
                sweep_point(op, dom, cfg, noise, 8, 5, 0, kind=kind)
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
        Z, steps, failed = _train_to_empirical_opt(op, dom, cfg, datasets, noise,
                                                   constants(op, dom))
        for z, X in zip(Z, datasets):
            ref = run(empirical_operator(op, X), dom, replace(cfg, T=steps)).final
            assert np.max(np.abs(z - ref)) <= 1e-12
        assert failed == []


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Experiments keep each trial's means, not its records, so peak memory
    does not grow with the number of trials."""

    dom = Ball(np.zeros(4), 1.0)
    op = generate_operator(0, 4, 0.8, 1.6, domain=dom)

    @pytest.mark.parametrize("kind", ["matrix", "offset"])
    def test_stability_peak_flat_in_trials(self, kind):
        noise, cfg = NoiseModel(kind, 0.2), SolverConfig("gd", 0.25, 50)
        peaks = [_peak_bytes(lambda: stability_experiment(self.op, self.dom, cfg, 2048,
                                                          trials, 0, noise))
                 for trials in (4, 40)]
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize("kind", ["matrix", "offset"])
    def test_sweep_point_peak_flat_in_trials(self, kind):
        noise, cfg = NoiseModel(kind, 0.2), SolverConfig("gd", 0.1, 1)
        peaks = [_peak_bytes(lambda: sweep_point(self.op, self.dom, cfg, noise, 2048,
                                                 trials, 0))
                 for trials in (4, 40)]
        assert peaks[1] <= 1.5 * peaks[0]


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
        bounds = evaluate_bounds(UNIT_CONSTS, {"eta": 0.01, "limit": 0.02}, dom)
        assert bounds.simplex is not None
        assert np.isclose(bounds.simplex, simplex_bound(UNIT_CONSTS, 0.01, 3))
        assert bounds.covering > 0.0
        assert bounds.game is None
        assert bounds.note == BOUND_NOTE

    def test_game_problem(self):
        game = generate_game(6, 2, 1, 0.5, 0.3)
        bounds = evaluate_bounds(TWO_PLAYER_CONSTS, {"eta": 0.01, "limit": 0.02},
                                 game.domain, problem=game)
        assert bounds.game is not None
        assert np.isclose(bounds.game, game_bound(TWO_PLAYER_CONSTS, 0.01))
        assert bounds.simplex is None

    def test_gamma_fallback(self):
        dom = Ball(np.zeros(2), 1.0)
        bounds = evaluate_bounds(UNIT_CONSTS, {"eta": None, "limit": 0.05}, dom)
        ref = covering_bound(
            UNIT_CONSTS, 0.05, dom,
            dom.diameter() * np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5]),
        )
        assert np.isclose(bounds.covering, ref)

    def test_seed_helper(self):
        assert trial_dataset_seed(7, 64, 3) == [7, 64, 3]
        assert all(isinstance(x, int) for x in trial_dataset_seed(7, 64, 3))
