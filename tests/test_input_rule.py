"""Every library entry point checks its scalar inputs with the CLI schema's
rule (errors._checked): a finite number is a real, not a bool, within float
range; an integer is an integral number, not a bool; a boolean is a bool;
a choice is one of its tuple; and each lies in its interval.

One table names each entry point's scalar, a value it accepts, what it must
be, and a value outside its interval. Each entry is then given a string
number, a bool, a non-integral float, NaN, infinity and that value, and
must raise ValueError (a ConfigError) for each.
"""

import math

import numpy as np
import pytest

from vilab import (Ball, Box, ConfigError, NoiseModel, ProblemConstants, Simplex, SolverConfig,
                   bernstein_check, contraction_bound, generalization_sweep, generate_game,
                   generate_operator, sample_dataset, stability_bound, stability_experiment)
from vilab.analysis import _trial_operators

DOM = Ball(np.zeros(2), 1.0)
BOX = Box(-np.ones(2), np.ones(2))
OP = generate_operator(0, 2, 0.8, 1.6, domain=DOM)
GAME = generate_game(3, 2, 1, 0.5, 0.3)
NOISE = NoiseModel("offset", 0.1)
PROJECTED = SolverConfig("gd", 0.2, 5, projected=True)
CONSTS = ProblemConstants(mu=0.9, L=1.0, K=1.0, D=2.0, per_player=((0.9, 1.0),))
CHOICE = "choice"


def sweep(n_grid=(4, 8), trials=2, **kwargs):
    return generalization_sweep(OP, DOM, PROJECTED, NOISE, n_grid, trials, 0, **kwargs)


# entry point's scalar: (call with the value, a valid value, what it must be,
# a value outside its interval or None where it has no interval)
ENTRIES = {
    "SolverConfig.method": (lambda v: SolverConfig(v, 0.1, 5), "eg", CHOICE, "newton"),
    "SolverConfig.eta": (lambda v: SolverConfig("gd", v, 5), 0.1, float, 0.0),
    "SolverConfig.T": (lambda v: SolverConfig("gd", 0.1, v), 5, int, -1),
    "SolverConfig.projected": (lambda v: SolverConfig("gd", 0.1, 5, projected=v),
                               True, bool, None),
    "NoiseModel.kind": (lambda v: NoiseModel(v, 0.1), "matrix", CHOICE, "additive"),
    "NoiseModel.magnitude": (lambda v: NoiseModel("offset", v), 0.5, float, -0.1),
    "Simplex.d": (Simplex, 2, int, 0),
    "Ball.radius": (lambda v: Ball(np.zeros(2), v), 2.0, float, 0.0),
    "Ball.covering_number_upper.r": (DOM.covering_number_upper, 0.5, float, 0.0),
    "Box.covering_number_upper.r": (BOX.covering_number_upper, 0.5, float, 0.0),
    "Simplex.covering_number_upper.r": (Simplex(2).covering_number_upper, 0.5, float, 0.0),
    "generate_operator.d": (lambda v: generate_operator(0, v, 0.8, 1.6), 2, int, 0),
    "generate_operator.interior_margin": (
        lambda v: generate_operator(0, 2, 0.8, 1.6, interior_margin=v), 0.1, float, -0.1),
    "generate_game.k": (lambda v: generate_game(0, v, 1, 0.5, 0.4), 2, int, 0),
    "generate_game.dims": (lambda v: generate_game(0, 2, [v, 1], 0.5, 0.4), 2, int, 0),
    "generate_game.mu_target": (lambda v: generate_game(0, 2, 1, v, 0.4), 0.5, float, 0.0),
    "generate_game.coupling_strength": (lambda v: generate_game(0, 2, 1, 0.5, v),
                                        0.4, float, None),
    "generate_game.interior_margin": (
        lambda v: generate_game(0, 2, 1, 0.5, 0.4, interior_margin=v), 0.1, float, -0.1),
    "sample_dataset.n": (lambda v: sample_dataset(OP, NOISE, v, 0), 4, int, 0),
    "stability_experiment.trials": (
        lambda v: stability_experiment(OP, DOM, PROJECTED, 4, v, 0, NOISE, 1), 2, int, 0),
    "_trial_operators.workers": (lambda v: _trial_operators(OP, NOISE, 4, 0, 2, workers=v),
                                 1, int, 0),
    "generalization_sweep.n_grid": (lambda v: sweep(n_grid=(v, 8)), 4, int, 0),
    "generalization_sweep.trials": (lambda v: sweep(trials=v), 2, int, 1),
    "generalization_sweep.delta": (lambda v: sweep(delta=v), 0.2, float, 1.0),
    "generalization_sweep.kind": (lambda v: sweep(kind=v), "gap", CHOICE, "weak"),
    "generalization_sweep.mode": (lambda v: sweep(mode=v), "mean", CHOICE, "median"),
    "bernstein_check.z_samples": (lambda v: bernstein_check(GAME, NOISE, v, 2, 0), 2, int, 0),
    "bernstein_check.mc_samples": (lambda v: bernstein_check(GAME, NOISE, 1, v, 0), 2, int, 1),
    "stability_bound.n": (lambda v: stability_bound(SolverConfig("gd", 0.1, 5), CONSTS, v),
                          4, int, 0),
    "contraction_bound.mu": (lambda v: contraction_bound("gd", v, 1.0, 0.1), 0.9, float, 0.0),
    "contraction_bound.L": (lambda v: contraction_bound("gd", 0.9, v, 0.1), 1.0, float, 0.5),
    "contraction_bound.eta": (lambda v: contraction_bound("gd", 0.9, 1.0, v), 0.1, float, 0.0),
}

# a string number, a bool (an int for a bool's place), a non-integral float,
# NaN and infinity
WRONG_TYPE = {float: ("0.5", True, math.nan, math.inf),
              int: ("2", True, 2.5, math.nan, math.inf),
              bool: ("1", 1, 0.5, math.nan, math.inf),
              CHOICE: ("1", True, 2.5, math.nan, math.inf)}

BAD = [pytest.param(name, value, id=f"{name}-{value!r}")
       for name, (_, _, check, outside) in ENTRIES.items()
       for value in WRONG_TYPE[check] + (() if outside is None else (outside,))]


@pytest.mark.parametrize("name", ENTRIES)
def test_valid_value_is_accepted(name):
    call, valid, _, _ = ENTRIES[name]
    call(valid)


@pytest.mark.parametrize("name, value", BAD)
def test_bad_value_is_refused(name, value):
    call = ENTRIES[name][0]
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: SolverConfig("gd", "0.1", 5), id="eta-string"),
    pytest.param(lambda: SolverConfig("gd", True, 5), id="eta-bool"),
    pytest.param(lambda: SolverConfig("gd", 0.1, 5, projected="no"), id="projected-string"),
    pytest.param(lambda: NoiseModel("offset", "0.5"), id="magnitude-string"),
    pytest.param(lambda: NoiseModel("offset", True), id="magnitude-bool"),
    pytest.param(lambda: Ball(np.zeros(2), True), id="radius-bool"),
    pytest.param(lambda: Ball(np.zeros(2), "2"), id="radius-string"),
    pytest.param(lambda: Simplex(2.5), id="simplex-float"),
    pytest.param(lambda: Simplex(True), id="simplex-bool"),
    pytest.param(lambda: generate_game(0, True, 2, 0.5, 0.4), id="players-bool"),
    pytest.param(lambda: generate_game(0, 2, 2.5, 0.5, 0.4), id="dims-float"),
    pytest.param(lambda: sweep(n_grid=[4.7, 8]), id="n_grid-float"),
    pytest.param(lambda: DOM.covering_number_upper("0.5"), id="covering-radius-string"),
    pytest.param(lambda: DOM.covering_number_upper(True), id="covering-radius-bool"),
    pytest.param(lambda: DOM.covering_number_upper(math.inf), id="covering-radius-inf"),
    pytest.param(lambda: generate_operator(0, 2, 0.8, 1.6, interior_margin="0.1"),
                 id="operator-margin-string"),
    pytest.param(lambda: generate_operator(0, 2, 0.8, 1.6, interior_margin=math.nan),
                 id="operator-margin-nan"),
    pytest.param(lambda: generate_game(0, 2, 1, 0.5, 0.4, interior_margin="0.1"),
                 id="game-margin-string"),
    pytest.param(lambda: generate_game(0, 2, 1, 0.5, 0.4, interior_margin=math.nan),
                 id="game-margin-nan"),
])
def test_values_the_cli_schema_refuses_are_refused(call):
    with pytest.raises(ConfigError):
        call()


def test_messages_name_the_value_in_the_schema_format():
    for call, message in (
            (lambda: SolverConfig("gd", -1.0, 5), "'eta' must be in (0, inf), got -1.0"),
            (lambda: SolverConfig("gd", 0.1, 2.5), "'T' must be an integer, got 2.5"),
            (lambda: SolverConfig("gd", 0.1, 5, projected="no"),
             "'projected' must be a boolean, got 'no'"),
            (lambda: NoiseModel("gauss", 0.1),
             "'kind' must be one of offset/matrix, got 'gauss'"),
            (lambda: sweep(n_grid=[4.7, 8]), "'n_grid[0]' must be an integer, got 4.7")):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message


def test_numpy_scalars_pass_and_keep_their_conversion():
    config = SolverConfig("gd", np.float32(0.25), np.int64(3), projected=False)
    assert (config.eta, config.T) == (0.25, 3)
    assert type(config.eta) is float and type(config.T) is int
    assert Simplex(np.int64(2)).dim == 3
    assert NoiseModel("offset", np.float64(0.5)).magnitude == 0.5
    assert sample_dataset(OP, NOISE, np.int32(4), 0).n == 4
