"""Every library entry point checks its scalar inputs with the CLI schema's
rule (errors._checked): a finite number is a real, not a bool, within float
range; an integer is an integral number, not a bool; a boolean is a bool;
a choice is one of its tuple; and each lies in its interval.

One table names each entry point's scalar, a value it accepts, what it must
be, and a value outside its interval. Each entry is then given a string
number, a bool, a non-integral float, NaN, infinity and that value, and
must raise ValueError (a ConfigError) for each.

Each input the CLI schema and a library entry point share is declared once,
in the library: the schema's leaf is the library's declaration object, and
a default it declares is the entry point's Python default.
"""

import inspect
import math

import numpy as np
import pytest

from vilab import (Ball, Box, ConfigError, NoiseModel, ProblemConstants, Simplex, SolverConfig,
                   bernstein_check, contraction_bound, generalization_sweep, generate_game,
                   generate_operator, sample_dataset, stability_bound, stability_experiment,
                   trial_dataset_seed)
from vilab import analysis, cli, domains, problems, solvers
from vilab.analysis import _trial_operators
from vilab.errors import _REQUIRED

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
    "generate_operator.seed": (lambda v: generate_operator(v, 2, 0.8, 1.6), 0, int, -1),
    "generate_operator.d": (lambda v: generate_operator(0, v, 0.8, 1.6), 2, int, 0),
    "generate_operator.mu_target": (lambda v: generate_operator(0, 2, v, 1.6), 0.8, float, 0.0),
    "generate_operator.L_target": (lambda v: generate_operator(0, 2, 0.8, v), 1.6, float, 0.0),
    "generate_operator.interior_margin": (
        lambda v: generate_operator(0, 2, 0.8, 1.6, interior_margin=v), 0.1, float, -0.1),
    "generate_game.seed": (lambda v: generate_game(v, 2, 1, 0.5, 0.4), 0, int, -1),
    "generate_game.k": (lambda v: generate_game(0, v, 1, 0.5, 0.4), 2, int, 0),
    "generate_game.dims": (lambda v: generate_game(0, 2, [v, 1], 0.5, 0.4), 2, int, 0),
    "generate_game.mu_target": (lambda v: generate_game(0, 2, 1, v, 0.4), 0.5, float, 0.0),
    "generate_game.coupling_strength": (lambda v: generate_game(0, 2, 1, 0.5, v),
                                        0.4, float, -0.1),
    "generate_game.interior_margin": (
        lambda v: generate_game(0, 2, 1, 0.5, 0.4, interior_margin=v), 0.1, float, -0.1),
    "sample_dataset.n": (lambda v: sample_dataset(OP, NOISE, v, 0), 4, int, 0),
    "sample_dataset.seed": (lambda v: sample_dataset(OP, NOISE, 4, v), 0, int, -1),
    "sample_dataset.seed[i]": (lambda v: sample_dataset(OP, NOISE, 4, [v, 4, 0]), 0, int, -1),
    "trial_dataset_seed.base_seed": (lambda v: trial_dataset_seed(v, 4, 0), 0, int, -1),
    "trial_dataset_seed.n": (lambda v: trial_dataset_seed(0, v, 0), 4, int, -1),
    "trial_dataset_seed.t": (lambda v: trial_dataset_seed(0, 4, v), 0, int, -1),
    "stability_experiment.n": (
        lambda v: stability_experiment(OP, DOM, PROJECTED, v, 2, 0, NOISE, 1), 4, int, 0),
    "stability_experiment.trials": (
        lambda v: stability_experiment(OP, DOM, PROJECTED, 4, v, 0, NOISE, 1), 2, int, 0),
    "stability_experiment.seed": (
        lambda v: stability_experiment(OP, DOM, PROJECTED, 4, 2, v, NOISE, 1), 0, int, -1),
    "_trial_operators.workers": (lambda v: _trial_operators(OP, NOISE, 4, 0, 2, workers=v),
                                 1, int, 0),
    "generalization_sweep.n_grid": (lambda v: sweep(n_grid=(v, 8)), 4, int, 0),
    "generalization_sweep.trials": (lambda v: sweep(trials=v), 2, int, 1),
    "generalization_sweep.delta": (lambda v: sweep(delta=v), 0.2, float, 1.0),
    "generalization_sweep.kind": (lambda v: sweep(kind=v), "gap", CHOICE, "weak"),
    "generalization_sweep.mode": (lambda v: sweep(mode=v), "mean", CHOICE, "median"),
    "generalization_sweep.seed": (
        lambda v: generalization_sweep(OP, DOM, PROJECTED, NOISE, (4, 8), 2, v), 0, int, -1),
    "bernstein_check.z_samples": (lambda v: bernstein_check(GAME, NOISE, v, 2, 0), 2, int, 0),
    "bernstein_check.mc_samples": (lambda v: bernstein_check(GAME, NOISE, 1, v, 0), 2, int, 1),
    "bernstein_check.seed": (lambda v: bernstein_check(GAME, NOISE, 1, 2, v), 0, int, -1),
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
            (lambda: sweep(n_grid=[4.7, 8]), "'n_grid[0]' must be an integer, got 4.7"),
            (lambda: generalization_sweep(OP, DOM, PROJECTED, NOISE, (4, 8), 2, 1.5),
             "'seed' must be an integer, got 1.5"),
            (lambda: generate_operator(0, 2, 0.8, math.nan), "'L' must be a finite number, got nan"),
            (lambda: generate_game(0, 2, 1, 0.5, -0.7), "'coupling' must be in [0, inf), got -0.7")):
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


SCHEMA_OPERATOR, SCHEMA_GAME = cli._PROBLEMS["operator"], cli._PROBLEMS["game"]
EXPERIMENTS = cli._EXPERIMENTS
# Each CLI schema leaf that a library entry point also takes: (the schema's
# declaration, the library's, the entry point, its parameter)
SHARED = {
    **{f"solver.{key}": (cli._SOLVER[key], solvers._SOLVER[key], SolverConfig, key)
       for key in ("method", "eta", "T", "projected")},
    **{f"problem.noise.{key}": (cli._INSTANCE["noise"][0][key], problems._NOISE[key],
                                NoiseModel, key) for key in ("kind", "magnitude")},
    **{f"problem.{key} (operator)": (SCHEMA_OPERATOR[key], problems._OPERATOR[key],
                                     generate_operator, param)
       for key, param in (("seed", "seed"), ("d", "d"), ("mu", "mu_target"), ("L", "L_target"))},
    **{f"problem.{key} (game)": (SCHEMA_GAME[key], problems._GAME[key], generate_game, param)
       for key, param in (("seed", "seed"), ("k", "k"), ("mu", "mu_target"),
                          ("coupling", "coupling_strength"))},
    "problem.interior_margin (operator)": (SCHEMA_OPERATOR["interior_margin"], problems._MARGIN,
                                           generate_operator, "interior_margin"),
    "problem.interior_margin (game)": (SCHEMA_GAME["interior_margin"], problems._MARGIN,
                                       generate_game, "interior_margin"),
    "problem.domain.d (simplex)": (cli._DOMAINS["simplex"]["d"], domains._SIMPLEX_D,
                                   Simplex, "d"),
    "problem.domain.radius (ball)": (cli._DOMAINS["ball"]["radius"], domains._RADIUS,
                                     Ball, "radius"),
    "experiment.n (solve)": (EXPERIMENTS["solve"]["n"], problems._DATASET_SIZE,
                             sample_dataset, "n"),
    "experiment.n_grid[i] (stability)": (EXPERIMENTS["stability"]["n_grid"][0][0],
                                         analysis._STABILITY["n"], stability_experiment, "n"),
    "experiment.trials (stability)": (EXPERIMENTS["stability"]["trials"],
                                      analysis._STABILITY["trials"], stability_experiment,
                                      "trials"),
    "experiment.n_grid[i] (sweep)": (EXPERIMENTS["sweep"]["n_grid"][0][0],
                                     problems._DATASET_SIZE, generalization_sweep, "n_grid"),
    **{f"experiment.{key} (sweep)": (EXPERIMENTS["sweep"][key], analysis._SWEEP[key],
                                     generalization_sweep, key)
       for key in ("trials", "kind", "mode", "delta")},
    **{f"experiment.{key} (bernstein)": (EXPERIMENTS["bernstein"][key],
                                         analysis._BERNSTEIN[key], bernstein_check, key)
       for key in ("z_samples", "mc_samples")},
}


@pytest.mark.parametrize("path", SHARED)
def test_a_shared_leaf_is_the_library_declaration(path):
    schema, library, entry, param = SHARED[path]
    assert schema is library
    default = inspect.signature(entry).parameters[param].default
    if library[2] is _REQUIRED:  # the library takes no default either
        assert default is inspect.Parameter.empty
    elif default is not inspect.Parameter.empty:  # else the CLI fills in what the library needs
        assert type(default) is type(library[2]) and default == library[2]


def test_the_library_tables_are_the_schema_sections():
    assert cli._SOLVER is solvers._SOLVER and cli._INSTANCE["noise"][0] is problems._NOISE
    assert EXPERIMENTS["bernstein"] is analysis._BERNSTEIN
    assert list(EXPERIMENTS["sweep"]) == ["n_grid", *analysis._SWEEP]
