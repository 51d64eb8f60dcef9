import copy
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vilab import (BoundViolationError, ConfigError, NumericalError, SolverConfig, constants,
                   generalization_sweep)
from vilab import cli
from vilab.analysis import _SWEEP_KINDS
from vilab.cli import build_problem, load_config, main, normalize_config

from helpers import pool_sizes  # pool_sizes: a fixture, requested by name

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def op_config(**overrides):
    cfg = {
        "problem": {
            "kind": "operator",
            "seed": 1,
            "d": 2,
            "mu": 0.8,
            "L": 1.6,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "noise": {"kind": "offset", "magnitude": 0.1},
        },
        "solver": {"method": "gd", "eta": 0.2, "T": 400},
        "experiment": {},
        "output": {},
    }
    deep_update(cfg, overrides)
    return cfg


def game_config(**overrides):
    cfg = {
        "problem": {
            "kind": "game",
            "seed": 3,
            "k": 2,
            "dims": 1,
            "mu": 0.5,
            "coupling": 0.3,
            "noise": {"kind": "offset", "magnitude": 0.1},
        },
        "solver": {"method": "gd", "eta": 0.1, "T": 400},
        "experiment": {},
        "output": {},
    }
    deep_update(cfg, overrides)
    return cfg


def deep_update(base, overrides):
    for k, v in overrides.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            deep_update(base[k], v)
        else:
            base[k] = v


# matrix-noise stability at d = 4: n = 1024 draws 1024 * 4^2 floats per trial,
# above analysis._SERIAL_FLOATS, and n = 16 below it
MATRIX_STABILITY = op_config(
    problem={"d": 4, "domain": {"kind": "ball", "center": [0.0] * 4, "radius": 1.0},
             "noise": {"kind": "matrix", "magnitude": 0.2}},
    solver={"eta": 0.25, "T": 100}, experiment={"n_grid": [16, 1024], "trials": 3})


def src_env() -> dict:
    """This environment with src/ first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, command, cfg, out="out", workers=1, extra=()):
    path = write_cfg(tmp_path, cfg, f"{command}_{out}.json")
    out_dir = tmp_path / out
    code = main([command, "--config", path, "--out-dir", str(out_dir),
                 "--workers", str(workers), *extra])
    return code, out_dir


def summary_bytes(out_dir, command) -> bytes:
    """`command`'s summary in out_dir without its manifest (which holds wall
    time), as canonical JSON bytes."""
    summary = json.loads((out_dir / f"{command}_summary.json").read_text())
    summary.pop("manifest")
    return json.dumps(summary, sort_keys=True, separators=(",", ":")).encode()


@pytest.fixture(scope="module")
def sample_runs(tmp_path_factory):
    """Each sample config's output directory, keyed (stem, workers): like
    bench/run.py, every config at --workers 1, and the three it reruns at
    --workers 2."""
    root = tmp_path_factory.mktemp("samples")
    stems = sorted(path.stem for path in CONFIG_DIR.glob("*.json"))
    runs = [(stem, 1) for stem in stems]
    runs += [(stem, 2) for stem in ("stability_ball", "sweep_game", "sweep_simplex")]
    out = {}
    for stem, workers in runs:
        out[stem, workers] = root / f"{stem}-w{workers}"
        assert main([stem.split("_")[0], "--config", str(CONFIG_DIR / f"{stem}.json"),
                     "--out-dir", str(out[stem, workers]), "--workers", str(workers)]) == 0
    return out


class TestConfigValidation:
    # complete solve configs: the experiment's required keys are checked too
    def test_unknown_key_is_named(self):
        cfg = op_config(experiment={"n": 50})
        cfg["problem"]["foo"] = 1
        with pytest.raises(ConfigError, match="problem.foo"):
            normalize_config(cfg, "solve")

    def test_unknown_experiment_key_per_command(self):
        cfg = op_config(experiment={"pairs": 10})
        normalize_config(copy.deepcopy(cfg), "contraction")  # fine there
        with pytest.raises(ConfigError, match="experiment.pairs"):
            normalize_config(cfg, "solve")

    def test_missing_required(self):
        cfg = op_config(experiment={"n": 50})
        del cfg["problem"]["mu"]
        with pytest.raises(ConfigError, match="problem.mu"):
            normalize_config(cfg, "solve")
        cfg = op_config(solver={"method": "gd"}, experiment={"n": 50})
        del cfg["solver"]["eta"]
        del cfg["solver"]["T"]
        with pytest.raises(ConfigError, match="solver.eta"):
            normalize_config(cfg, "solve")

    def test_type_checks(self):
        cfg = op_config(experiment={"n": 50})
        cfg["problem"]["d"] = 2.5
        with pytest.raises(ConfigError, match="problem.d"):
            normalize_config(cfg, "solve")
        cfg = op_config(experiment={"n": 50})
        cfg["solver"]["eta"] = -0.1
        with pytest.raises(ConfigError, match="solver.eta"):
            normalize_config(cfg, "solve")
        cfg = op_config(experiment={"n": 50})
        cfg["problem"]["mu"] = 2.0  # now mu > L
        with pytest.raises(ConfigError, match="problem.mu"):
            normalize_config(cfg, "solve")

    def test_bad_box(self):
        cfg = op_config(experiment={"n": 50})
        cfg["problem"]["domain"] = {"kind": "box", "lower": [0.0, 0.0], "upper": [0.0, 1.0]}
        with pytest.raises(ConfigError, match="box"):
            normalize_config(cfg, "solve")

    def test_defaults_filled(self):
        cfg = {"problem": op_config()["problem"], "experiment": {"n": 50}}
        out = normalize_config(cfg, "solve")
        assert out["solver"] == {"method": "gd", "eta": 0.1, "T": 1000, "projected": False}
        assert out["output"]["csv"] == "solve.csv"
        assert out["output"]["json"] == "solve_summary.json"

    def test_experiment_keys_required(self):
        with pytest.raises(ConfigError, match="experiment.n"):
            normalize_config(op_config(), "solve")
        cfg = op_config(experiment={"n_grid": [8, 16], "trials": 5, "mode": "quantile"})
        with pytest.raises(ValueError, match="needs >= 100 trials"):
            normalize_config(cfg, "sweep")

    def test_normalization_is_idempotent(self):
        cfg = normalize_config(op_config(experiment={"n": 50}), "solve")
        again = normalize_config(json.loads(json.dumps(cfg)), "solve")
        assert again == cfg

    def test_seed_override(self):
        cfg = normalize_config(op_config(experiment={"n": 50}), "solve", seed_override=42)
        assert cfg["problem"]["seed"] == 42

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_sample_configs_load(self, config):
        # each sample config is named <command>_<instance>.json
        load_config(str(config), config.stem.split("_")[0])

    def test_readme_documents_every_key(self):
        text = (ROOT / "README.md").read_text().split("## Config keys")[1].split("\n## ")[0]
        documented = {title: set(re.findall(r"^\| `(\w+)` \|", body, re.M))
                      for title, body in re.findall(r"^### ([^\n]+)\n(.*?)(?=^### |\Z)",
                                                    text, re.M | re.S)}
        expected = {"`problem.noise`": set(cli._NOISE), "`solver`": set(cli._SOLVER),
                    "`output`": set(cli._output("sweep"))}
        for section, tables in (("problem", cli._PROBLEMS), ("problem.domain", cli._DOMAINS)):
            expected.update({f"`{section}`, kind `{kind}`": {"kind", *table}
                             for kind, table in tables.items()})
        expected.update({f"`experiment`, command `{command}`": set(table)
                         for command, table in cli._EXPERIMENTS.items()})
        assert documented == expected


def op_with(**problem):
    cfg = op_config(experiment={"n": 5})
    cfg["problem"].update(problem)
    return cfg


def game_with(**problem):
    cfg = game_config(experiment={"n": 5})
    cfg["problem"].update(problem)
    return cfg


UNIT_BOX = {"kind": "box", "lower": [-1.0], "upper": [1.0]}

# Each config names the key path its error must give. Each used to run, crash
# with a traceback, or exit with another code or with no key path.
MALFORMED = [
    pytest.param(op_with(noise={"kind": "offset", "magnitude": float("inf")}),
                 "problem.noise.magnitude", id="infinite-magnitude"),
    pytest.param(op_with(interior_margin="wide"), "problem.interior_margin",
                 id="string-margin"),
    pytest.param(op_with(interior_margin=-0.1), "problem.interior_margin",
                 id="negative-margin"),
    pytest.param(op_with(mu=float("nan")), "problem.mu", id="nan-mu"),
    pytest.param(op_with(domain={"kind": "ball", "center": [0.0, 0.0], "radius": float("nan")}),
                 "problem.domain.radius", id="nan-radius"),
    pytest.param(op_with(domain={"kind": "ball", "center": [0.0, float("inf")], "radius": 1.0}),
                 "problem.domain.center[1]", id="infinite-center"),
    pytest.param(op_with(domain={"kind": "ball", "center": [[0.0, 0.0]], "radius": 1.0}),
                 "problem.domain.center[0]", id="nested-center"),
    pytest.param(op_with(domain={"kind": "box", "lower": [[-1.0], [-1.0]], "upper": [1.0, 1.0]}),
                 "problem.domain.lower[0]", id="nested-lower"),
    pytest.param(op_with(seed=-1), "problem.seed", id="negative-seed"),
    pytest.param(op_config(solver=[], experiment={"n": 5}), "solver", id="solver-list"),
    pytest.param(game_with(dims=[0, 2]), "problem.dims[0]", id="zero-dim"),
    pytest.param(game_with(dims=[True, 1]), "problem.dims[0]", id="bool-dim"),
    pytest.param(game_with(k=3, domain={"kind": "product", "factors": [UNIT_BOX, UNIT_BOX]}),
                 "problem.domain", id="game-domain-too-few-factors"),
    pytest.param(game_with(dims=[1, 2], domain={"kind": "product",
                                                "factors": [UNIT_BOX, UNIT_BOX]}),
                 "problem.domain", id="game-domain-factor-dims"),
]


@pytest.mark.parametrize("cfg,path", MALFORMED)
def test_malformed_config_exits_2_naming_its_key(tmp_path, capsys, cfg, path):
    code, _ = run_cli(tmp_path, "solve", cfg)
    assert code == 2
    assert f"'{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("key,name", [("json", ""), ("json", "../x.json"),
                                      ("csv", "sub/x.csv"), ("svg", "..")])
def test_output_names_are_bare_file_names(tmp_path, capsys, key, name):
    cfg = op_config(experiment={"n_grid": [16, 64], "trials": 4}, output={key: name})
    code, out_dir = run_cli(tmp_path, "sweep", cfg)
    assert code == 2
    assert f"'output.{key}'" in capsys.readouterr().err
    # nothing written: only the config file sits in tmp_path
    assert not out_dir.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_out.json"]


@pytest.mark.parametrize("command,output,keys", [
    ("stability", {"csv": "x.out", "json": "x.out"}, ("csv", "json")),
    ("stability", {"csv": "stability_summary.json"}, ("csv", "json")),  # json's default
    ("sweep", {"csv": "x.out", "json": "x.out"}, ("csv", "json")),
    ("sweep", {"csv": "x.out", "svg": "x.out"}, ("csv", "svg")),
    ("sweep", {"json": "x.out", "svg": "x.out"}, ("json", "svg"))],
    ids=["stability-csv-json", "stability-csv-default-json", "sweep-csv-json",
         "sweep-csv-svg", "sweep-json-svg"])
def test_output_names_that_collide_exit_2(tmp_path, capsys, command, output, keys):
    # the later write would silently replace the earlier one
    cfg = op_config(experiment={"n_grid": [16, 64], "trials": 4}, output=output)
    code, out_dir = run_cli(tmp_path, command, cfg)
    assert code == 2
    first, second = keys
    assert f"'output.{first}' and 'output.{second}' name the same file" in \
        capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command,cfg", [
    ("solve", op_config(experiment={"n": 8})),
    ("contraction", op_config()),
    ("stability", op_config(experiment={"n_grid": [8], "trials": 2})),
    ("bernstein", game_config(experiment={"z_samples": 2, "mc_samples": 2}))])
def test_svg_output_is_sweep_only(tmp_path, capsys, command, cfg):
    # only sweep draws a chart, so no other command takes a chart name
    code, out_dir = run_cli(tmp_path, command, {**cfg, "output": {"svg": "x.svg"}})
    assert code == 2
    assert "unknown config key 'output.svg'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command,cfg", [
    ("solve", op_config(experiment={"n": 8})),
    ("contraction", op_config()),
    ("stability", op_config(experiment={"n_grid": [8], "trials": 2})),
    ("sweep", op_config(experiment={"n_grid": [16, 64], "trials": 4})),
    ("bernstein", game_config(experiment={"z_samples": 2, "mc_samples": 2}))],
    ids=["solve", "contraction", "stability", "sweep", "bernstein"])
def test_matrix_noise_of_magnitude_mu_exits_2_writing_nothing(tmp_path, capsys, command, cfg):
    # Weyl certifies mu - magnitude, so magnitude = mu certifies no strong monotonicity
    problem, domain, _ = build_problem(normalize_config(copy.deepcopy(cfg), command))
    cfg = copy.deepcopy(cfg)
    cfg["problem"]["noise"] = {"kind": "matrix", "magnitude": constants(problem, domain).mu}
    code, out_dir = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert "certifies no strong monotonicity" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_out_dir_that_is_a_file_exits_2_before_generation(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(cfg):
        calls.append(1)
        return build_problem(cfg)

    monkeypatch.setattr("vilab.cli.build_problem", counting)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    code = main(["solve", "--config", str(CONFIG_DIR / "solve_ball.json"),
                 "--out-dir", str(taken), "--workers", "1"])
    assert code == 2
    assert "--out-dir" in capsys.readouterr().err
    assert calls == []
    assert taken.read_text() == "a file"


@pytest.mark.parametrize("kind", ["weak_gap", "potential_gap"])
def test_game_gap_kind_needs_a_game_before_generation(tmp_path, capsys, monkeypatch, kind):
    calls = []

    def counting(cfg):
        calls.append(1)
        return build_problem(cfg)

    monkeypatch.setattr("vilab.cli.build_problem", counting)
    cfg = op_config(experiment={"n_grid": [16, 64], "trials": 4, "kind": kind})
    code, _ = run_cli(tmp_path, "sweep", cfg)
    assert code == 2
    assert "'experiment.kind'" in capsys.readouterr().err
    assert calls == []


# The schema's leaf messages, for a float, an integer, a boolean and a choice
# key, as the CLI printed them before the leaf check became the library's
# input rule (errors._checked): pinned byte for byte.
LEAF_MESSAGES = [
    pytest.param({"solver": {"eta": -1.0}}, "'solver.eta' must be in (0, inf), got -1.0",
                 id="float-range"),
    pytest.param({"solver": {"eta": "0.1"}}, "'solver.eta' must be a finite number, got '0.1'",
                 id="float-type"),
    pytest.param({"solver": {"eta": True}}, "'solver.eta' must be a finite number, got True",
                 id="float-bool"),
    pytest.param({"experiment": {"n": 2.5}}, "'experiment.n' must be an integer, got 2.5",
                 id="int-type"),
    pytest.param({"experiment": {"n": 0}}, "'experiment.n' must be in [1, inf), got 0",
                 id="int-range"),
    pytest.param({"solver": {"projected": "no"}},
                 "'solver.projected' must be a boolean, got 'no'", id="bool-type"),
    pytest.param({"solver": {"projected": 1}}, "'solver.projected' must be a boolean, got 1",
                 id="bool-int"),
    pytest.param({"solver": {"method": "gdx"}}, "'solver.method' must be one of gd/eg, got 'gdx'",
                 id="choice"),
]


@pytest.mark.parametrize("override, message", LEAF_MESSAGES)
def test_leaf_messages_are_pinned(tmp_path, capsys, override, message):
    cfg = op_config(experiment={"n": 5})
    deep_update(cfg, override)
    code, _ = run_cli(tmp_path, "solve", cfg)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_sweep_kinds_come_from_the_library_table():
    # the schema lists analysis._SWEEP_KINDS in its order, and the early
    # check refuses on an operator exactly the kinds the table marks game-only
    cfg = op_config(experiment={"n_grid": [16, 64], "trials": 4, "kind": "bogus"})
    with pytest.raises(ConfigError, match="'experiment.kind' must be one of "
                                          "gap/weak_gap/potential_gap, got 'bogus'"):
        normalize_config(copy.deepcopy(cfg), "sweep")
    for kind, needs_game in _SWEEP_KINDS.items():
        cfg["experiment"]["kind"] = kind
        if needs_game:
            with pytest.raises(ConfigError, match=f"'experiment.kind' '{kind}' requires "
                                                  "'problem.kind' = 'game'"):
                normalize_config(copy.deepcopy(cfg), "sweep")
        else:
            assert normalize_config(copy.deepcopy(cfg), "sweep")["experiment"]["kind"] == kind


class TestSolve:
    def test_zero_noise_reaches_solution(self, tmp_path):
        cfg = op_config(problem={"noise": {"kind": "offset", "magnitude": 0.0}},
                        experiment={"n": 10})
        code, out_dir = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        summary = json.loads((out_dir / "solve_summary.json").read_text())
        assert summary["results"]["gap_report"]["gap_true"] <= 1e-8
        assert summary["results"]["gap_report"]["gap_empirical"] <= 1e-8

    def test_summary_layout(self, tmp_path):
        cfg = op_config(experiment={"n": 20})
        code, out_dir = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        summary = json.loads((out_dir / "solve_summary.json").read_text())
        assert set(summary) == {"config", "constants", "results", "bounds", "manifest"}
        consts = summary["constants"]
        assert np.isclose(consts["mu"], 0.8, atol=1e-9)
        assert np.isclose(consts["L"], 1.6, atol=1e-9)
        assert summary["bounds"]["note"] == "order-level: hidden constants set to 1"
        assert summary["bounds"]["covering"] > 0.0
        assert summary["manifest"]["command"] == "solve"
        assert summary["manifest"]["base_seed"] == 1

    def test_game_report(self, tmp_path):
        cfg = game_config(experiment={"n": 30})
        code, out_dir = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        summary = json.loads((out_dir / "solve_summary.json").read_text())
        rep = summary["results"]["gap_report"]
        assert rep["kind"] == "weak_gap"
        assert rep["potential_gap"] <= rep["weak_gap_true"] + 1e-9
        assert summary["bounds"]["game"] is not None

    def test_eta_gate_message(self, tmp_path, capsys):
        cfg = op_config(solver={"eta": 2.0}, experiment={"n": 10})
        code, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 2
        assert "eta exceeds 2*mu/L^2" in capsys.readouterr().err

    def test_eta_where_the_gd_margin_rounds_to_zero(self, tmp_path, capsys):
        # 2 mu - eta L^2 computes to 0.0 at this eta, one float below the
        # certified 2 mu / L^2: solve's gate refuses it, and contraction
        # (which gates no training eta) reports no gamma at it
        cfg = op_config(problem={"seed": 5, "mu": 0.3, "L": 0.9,
                                 "noise": {"kind": "offset", "magnitude": 0.0}},
                        solver={"eta": 0.7407407407413527, "T": 10}, experiment={"n": 5})
        code, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 2
        assert capsys.readouterr().err == ("config error: eta exceeds 2*mu/L^2: "
                                           "eta=0.7407407407413527, limit=0.740741\n")
        cfg["experiment"] = {"pairs": 10, "eta_grid": [0.1]}
        code, out_dir = run_cli(tmp_path, "contraction", cfg)
        assert code == 0
        summary = json.loads((out_dir / "contraction_summary.json").read_text())
        assert summary["bounds"]["gamma"]["eta"] is None

    def test_gd_stability_range_is_the_gates_range_test(self, tmp_path):
        # an eg run passes the gate at any eta; its gd_stability_range
        # diagnostic applies gd's one range test, which refuses an eta one
        # float below 2 mu_w / L_w^2 where 2 mu_w - eta L_w^2 computes to <= 0
        cfg = op_config(problem={"mu": 0.3, "L": 0.9}, solver={"method": "eg", "T": 0},
                        experiment={"n": 5})
        for seed in range(100):
            cfg["problem"]["seed"] = seed
            problem, domain, _ = build_problem(normalize_config(copy.deepcopy(cfg), "solve"))
            c = constants(problem, domain)  # offset noise: (mu_w, L_w) = (mu, L)
            eta = math.nextafter(2.0 * c.mu / c.L ** 2, 0.0)
            if 2.0 * c.mu - eta * c.L ** 2 <= 0.0:
                break
        else:
            pytest.fail("no seed below 100 rounds the gd margin to 0")
        cfg["solver"]["eta"] = eta
        code, out_dir = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        summary = json.loads((out_dir / "solve_summary.json").read_text())
        assert summary["results"]["diagnostics"]["gd_stability_range"] is False

    def test_matrix_noise_gates_and_reports_the_certified_pair(self, tmp_path, capsys):
        # mu 0.8, L 1.6, matrix noise 0.2: the empirical operator certifies
        # only (0.6, 1.8), whose gd limit is 0.37 < 0.5 < 2 mu/L^2 = 0.625
        noise = {"noise": {"kind": "matrix", "magnitude": 0.2}}
        cfg = op_config(problem=noise, solver={"eta": 0.5}, experiment={"n": 10})
        code, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 2
        assert "limit=0.37037 (matrix noise certifies mu=0.6, L=1.8)" in capsys.readouterr().err
        cfg = op_config(problem=noise, solver={"eta": 0.25}, experiment={"n": 10})
        code, out_dir = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        summary = json.loads((out_dir / "solve_summary.json").read_text())
        diagnostics = summary["results"]["diagnostics"]
        assert diagnostics["gd_stability_range"] is True
        assert np.isclose(diagnostics["contraction_bound"],
                          math.sqrt(1.0 - 2 * 0.25 * 0.6 + 0.25 ** 2 * 1.8 ** 2))
        assert summary["bounds"]["gamma"]["eta"] is not None

    def test_forty_dim_box_has_a_finite_covering_bound(self, tmp_path):
        # the box's covering numbers exceed int64 from d = 19 on
        cfg = op_config(problem={"d": 40, "interior_margin": 0.01}, experiment={"n": 10})
        cfg["problem"]["domain"] = {"kind": "box", "lower": [-1.0] * 40, "upper": [1.0] * 40}
        code, out_dir = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        covering = json.loads((out_dir / "solve_summary.json").read_text())["bounds"]["covering"]
        assert math.isfinite(covering) and covering > 0.0

    def test_seed_flag_overrides(self, tmp_path):
        cfg = op_config(experiment={"n": 10})
        code, out_dir = run_cli(tmp_path, "solve", cfg, extra=("--seed", "42"))
        assert code == 0
        summary = json.loads((out_dir / "solve_summary.json").read_text())
        assert summary["manifest"]["base_seed"] == 42
        assert summary["config"]["problem"]["seed"] == 42


class TestContraction:
    def test_csv_and_bounds(self, tmp_path):
        cfg = op_config(experiment={"pairs": 200})
        code, out_dir = run_cli(tmp_path, "contraction", cfg)
        assert code == 0
        lines = (out_dir / "contraction.csv").read_text().splitlines()
        assert lines[0] == "eta,method,measured_max_ratio,theoretical_bound,pairs"
        assert len(lines) == 6  # default gd grid has 5 etas
        for line in lines[1:]:
            eta, method, measured, bound, pairs = line.split(",")
            assert method == "gd"
            assert float(measured) <= float(bound) + 1e-9
            assert int(pairs) <= 200

    def test_bounds_say_their_n_is_not_a_dataset_size(self, tmp_path):
        cfg = op_config(experiment={"pairs": 150})
        code, out_dir = run_cli(tmp_path, "contraction", cfg)
        assert code == 0
        bounds = json.loads((out_dir / "contraction_summary.json").read_text())["bounds"]
        assert bounds["n"] == 150
        assert bounds["n_source"] == "experiment.pairs"
        assert bounds["n_is_dataset_size"] is False

    def test_explicit_eta_grid(self, tmp_path):
        cfg = op_config(experiment={"pairs": 100, "eta_grid": [0.05, 0.1]})
        code, out_dir = run_cli(tmp_path, "contraction", cfg)
        assert code == 0
        lines = (out_dir / "contraction.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.05,")

    def test_eg_method(self, tmp_path):
        cfg = op_config(problem={"mu": 0.9, "L": 1.0},
                        solver={"method": "eg", "eta": 0.1},
                        experiment={"pairs": 100})
        code, out_dir = run_cli(tmp_path, "contraction", cfg)
        assert code == 0
        summary = json.loads((out_dir / "contraction_summary.json").read_text())
        assert summary["results"]["violations"] == 0
        assert all(r["gated"] for r in summary["results"]["rows"])

    def test_eg_without_a_contraction_reports_no_gamma(self, tmp_path):
        # contraction_ball runs eg at eta 0.5 on mu 0.7, L 1: its ceiling is
        # >= 1, so it certifies no stability constant and gamma falls back
        code = main(["contraction", "--config", str(CONFIG_DIR / "contraction_ball.json"),
                     "--out-dir", str(tmp_path), "--workers", "1"])
        assert code == 0
        summary = json.loads((tmp_path / "contraction_summary.json").read_text())
        assert summary["config"]["solver"]["method"] == "eg"
        assert summary["bounds"]["gamma"]["eta"] is None


    @pytest.mark.parametrize("method", ["gd", "eg"])
    def test_eta_with_no_finite_ceiling_exits_2(self, tmp_path, capsys, method):
        # gd's eta ** 2 overflows and eg's c(eta) is inf - inf at eta = 1e200
        cfg = op_config(problem={"mu": 0.9, "L": 1.0}, solver={"method": method},
                        experiment={"pairs": 100, "eta_grid": [1e200]})
        code, out_dir = run_cli(tmp_path, "contraction", cfg)
        assert code == 2
        assert "not finite at eta=1e+200" in capsys.readouterr().err
        assert not (out_dir / "contraction.csv").exists()


class TestStability:
    def test_zero_noise(self, tmp_path):
        cfg = op_config(problem={"noise": {"kind": "offset", "magnitude": 0.0}},
                        solver={"T": 100},
                        experiment={"n_grid": [8, 16], "trials": 4})
        code, out_dir = run_cli(tmp_path, "stability", cfg)
        assert code == 0
        lines = (out_dir / "stability.csv").read_text().splitlines()
        assert lines[0] == "n,trial,divergence"
        assert len(lines) == 1 + 2 * 4
        for line in lines[1:]:
            assert line.endswith(",0.0")
        summary = json.loads((out_dir / "stability_summary.json").read_text())
        assert summary["results"]["violations"] == 0

    def test_noisy_below_bound(self, tmp_path):
        cfg = op_config(solver={"T": 800},
                        experiment={"n_grid": [8, 32], "trials": 6})
        code, out_dir = run_cli(tmp_path, "stability", cfg)
        assert code == 0
        summary = json.loads((out_dir / "stability_summary.json").read_text())
        for block in summary["results"]["per_n"]:
            assert max(block["divergences"]) <= block["bound"]

    def test_eta_past_the_noisy_limit_exits_2(self, tmp_path, capsys):
        # mu 0.8, L 1.6: eta 0.5 < 2 mu/L^2 = 0.625, but matrix noise 0.2
        # certifies only (0.6, 1.8), whose limit is 0.37
        cfg = op_config(problem={"noise": {"kind": "matrix", "magnitude": 0.2}},
                        solver={"eta": 0.5, "T": 10},
                        experiment={"n_grid": [8], "trials": 2})
        code, _ = run_cli(tmp_path, "stability", cfg)
        assert code == 2
        assert ("eta exceeds 2*mu/L^2: eta=0.5, limit=0.37037 (matrix noise certifies "
                "mu=0.6, L=1.8)") in capsys.readouterr().err

    def test_matrix_noise_gamma_is_the_first_bound(self, tmp_path):
        # the summary's gamma at n_grid[0] is that n's certified divergence bound
        cfg = op_config(problem={"noise": {"kind": "matrix", "magnitude": 0.2}},
                        solver={"eta": 0.25, "T": 100},
                        experiment={"n_grid": [16, 64], "trials": 3})
        code, out_dir = run_cli(tmp_path, "stability", cfg)
        assert code == 0
        summary = json.loads((out_dir / "stability_summary.json").read_text())
        first = summary["results"]["per_n"][0]
        assert first["n"] == 16
        assert summary["bounds"]["gamma"]["eta"] == first["bound"]

    def test_eg_reports_a_certified_ceiling(self, tmp_path):
        # mu 0.9, L 1, eta 0.5 and matrix noise 0.05 once wrote a negative bound
        cfg = op_config(problem={"mu": 0.9, "L": 1.0,
                                 "noise": {"kind": "matrix", "magnitude": 0.05}},
                        solver={"method": "eg", "eta": 0.5, "T": 300},
                        experiment={"n_grid": [16, 64], "trials": 4})
        code, out_dir = run_cli(tmp_path, "stability", cfg)
        assert code == 0
        summary = json.loads((out_dir / "stability_summary.json").read_text())
        for block in summary["results"]["per_n"]:
            assert 0.0 < max(block["divergences"]) <= block["bound"]
        # the summary's gamma is the ceiling this eg run certifies, not gd's
        assert summary["bounds"]["gamma"]["eta"] == summary["results"]["per_n"][0]["bound"]

    @pytest.mark.parametrize("solver, mu", [({"projected": True}, 0.9), ({}, 0.6)],
                             ids=["projected", "xi_at_least_1"])
    def test_eg_without_a_certificate_writes_a_null_bound(self, tmp_path, solver, mu):
        # projected eg, and eg whose per-step ceiling is >= 1 (mu 0.6, L 1,
        # eta 0.5), certify no ceiling: nothing is gated and the bound is null
        cfg = op_config(problem={"mu": mu, "L": 1.0},
                        solver={"method": "eg", "eta": 0.5, "T": 300, **solver},
                        experiment={"n_grid": [16, 64], "trials": 4})
        code, out_dir = run_cli(tmp_path, "stability", cfg)
        assert code == 0
        lines = (out_dir / "stability.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4
        assert all(float(line.split(",")[2]) > 0.0 for line in lines[1:])
        summary = json.loads((out_dir / "stability_summary.json").read_text())
        for block in summary["results"]["per_n"]:
            assert block["bound"] is None and block["bound_base_K"] is None
            assert "bound_informational" not in block
        assert summary["results"]["violations"] == 0
        assert summary["bounds"]["gamma"]["eta"] is None

    def test_bounds_say_they_are_at_the_first_dataset_size(self, tmp_path):
        cfg = op_config(solver={"T": 100}, experiment={"n_grid": [32, 8], "trials": 3})
        code, out_dir = run_cli(tmp_path, "stability", cfg)
        assert code == 0
        bounds = json.loads((out_dir / "stability_summary.json").read_text())["bounds"]
        assert bounds["n"] == 32
        assert bounds["n_source"] == "experiment.n_grid[0]"
        assert bounds["n_is_dataset_size"] is True


class TestSweep:
    def test_csv_fit_and_bounds(self, tmp_path):
        cfg = game_config(experiment={"n_grid": [16, 64, 256], "trials": 10,
                                      "kind": "weak_gap"})
        code, out_dir = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,trial,value,kind"
        assert len(lines) == 1 + 3 * 10
        assert lines[1].split(",")[3] == "weak_gap"
        summary = json.loads((out_dir / "sweep_summary.json").read_text())
        res = summary["results"]
        assert res["slope"] is not None and res["slope"] < 0.0
        assert len(res["bounds_per_n"]) == 3
        for entry in res["bounds_per_n"]:
            assert "game" in entry and "mean_over_game_bound" in entry

    def test_bounds_say_they_are_at_the_first_dataset_size(self, tmp_path):
        cfg = game_config(experiment={"n_grid": [64, 16], "trials": 4,
                                      "kind": "weak_gap"})
        code, out_dir = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        summary = json.loads((out_dir / "sweep_summary.json").read_text())
        bounds = summary["bounds"]
        assert bounds["n"] == 64
        assert bounds["n_source"] == "experiment.n_grid[0]"
        assert bounds["n_is_dataset_size"] is True
        # the per-n bounds at that n are the summary's bounds
        first = summary["results"]["bounds_per_n"][0]
        shared = set(first) & set(bounds)
        assert {"n", "gamma", "covering", "simplex", "game", "bernstein_B", "note"} <= shared
        assert {key: first[key] for key in shared} == {key: bounds[key] for key in shared}

    def test_simplex_bounds_per_n_match_the_summary_bounds(self, tmp_path):
        code = main(["sweep", "--config", str(CONFIG_DIR / "sweep_simplex.json"),
                     "--out-dir", str(tmp_path), "--workers", "1"])
        assert code == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        first, bounds = summary["results"]["bounds_per_n"][0], summary["bounds"]
        assert first["simplex"] is not None
        assert first["mean_over_simplex_bound"] == \
            summary["results"]["per_n"][0]["mean"] / first["simplex"]
        for key in set(first) & set(bounds):
            assert first[key] == bounds[key], key

    def test_svg_output(self, tmp_path):
        cfg = game_config(experiment={"n_grid": [16, 64], "trials": 5,
                                      "kind": "weak_gap"},
                          output={"svg": "sweep.svg"})
        code, out_dir = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        svg = (out_dir / "sweep.svg").read_text()
        assert svg.startswith("<svg")
        assert "</svg>" in svg

    def test_quantile_mode_trial_floor(self, tmp_path, capsys):
        cfg = game_config(experiment={"n_grid": [16, 64], "trials": 5,
                                      "kind": "weak_gap", "mode": "quantile",
                                      "delta": 0.5})
        code, _ = run_cli(tmp_path, "sweep", cfg)
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_repeated_size_reports_no_fit(self, tmp_path):
        cfg = game_config(experiment={"n_grid": [64, 64], "trials": 4,
                                      "kind": "weak_gap"},
                          output={"svg": "sweep.svg"})
        code, out_dir = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        res = json.loads((out_dir / "sweep_summary.json").read_text())["results"]
        assert res["slope"] is None and res["r_squared"] is None
        assert "distinct n" in res["fit_error"]
        assert "fit slope" not in (out_dir / "sweep.svg").read_text()

    def test_needs_two_sizes(self, tmp_path, capsys):
        cfg = game_config(experiment={"n_grid": [16], "trials": 5})
        code, _ = run_cli(tmp_path, "sweep", cfg)
        assert code == 2
        assert "n_grid" in capsys.readouterr().err


class TestBuildOnce:
    @pytest.mark.parametrize("stem,command", [("sweep_game", "sweep"),
                                              ("stability_ball", "stability")])
    def test_problem_built_once_per_command(self, tmp_path, monkeypatch, stem, command):
        # one instance for the whole n grid; the library experiments take
        # their constants from it again, which costs no generation
        calls = []

        def counting(cfg):
            calls.append(1)
            return build_problem(cfg)

        monkeypatch.setattr("vilab.cli.build_problem", counting)
        code = main([command, "--config", str(CONFIG_DIR / f"{stem}.json"),
                     "--out-dir", str(tmp_path), "--workers", "1"])
        assert code == 0
        assert len(calls) == 1


class TestSweepDriver:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stem", ["sweep_game", "sweep_simplex"])
    def test_cli_sweep_is_one_library_sweep(self, tmp_path, monkeypatch, stem, workers):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return generalization_sweep(*args, **kwargs)

        monkeypatch.setattr("vilab.cli.generalization_sweep", counting)
        path = str(CONFIG_DIR / f"{stem}.json")
        code = main(["sweep", "--config", path, "--out-dir", str(tmp_path),
                     "--workers", str(workers)])
        assert code == 0
        assert len(calls) == 1
        res = json.loads((tmp_path / "sweep_summary.json").read_text())["results"]

        cfg = load_config(path, "sweep")
        problem, domain, noise = build_problem(cfg)
        exp = cfg["experiment"]
        ref = generalization_sweep(problem, domain, SolverConfig(**cfg["solver"]), noise,
                                   exp["n_grid"], exp["trials"], cfg["problem"]["seed"],
                                   exp["kind"], exp["delta"], exp["mode"], workers)
        assert (res["fit_on"], res["slope"], res["intercept"], res["r_squared"],
                res["fit_error"]) == (ref.fit_on, ref.slope, ref.intercept,
                                      ref.r_squared, ref.fit_error)
        assert len(res["per_n"]) == len(ref.per_n)
        for got, want in zip(res["per_n"], ref.per_n):
            assert np.array(got.pop("values")).tobytes() == want["values"].tobytes()
            assert got == {k: v for k, v in want.items() if k != "values"}


class TestBernstein:
    def test_rows_and_reference_point(self, tmp_path):
        cfg = game_config(experiment={"z_samples": 5, "mc_samples": 500})
        code, out_dir = run_cli(tmp_path, "bernstein", cfg)
        assert code == 0
        lines = (out_dir / "bernstein.csv").read_text().splitlines()
        assert lines[0] == "sample_index,lhs,rhs,B"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 0.0
        summary = json.loads((out_dir / "bernstein_summary.json").read_text())
        assert summary["results"]["violations"] == 0

    def test_bounds_say_their_n_is_not_a_dataset_size(self, tmp_path):
        cfg = game_config(experiment={"z_samples": 3, "mc_samples": 400})
        code, out_dir = run_cli(tmp_path, "bernstein", cfg)
        assert code == 0
        bounds = json.loads((out_dir / "bernstein_summary.json").read_text())["bounds"]
        assert bounds["n"] == 400
        assert bounds["n_source"] == "experiment.mc_samples"
        assert bounds["n_is_dataset_size"] is False

    def test_requires_game(self, tmp_path, capsys):
        cfg = op_config(experiment={"z_samples": 5, "mc_samples": 100})
        code, _ = run_cli(tmp_path, "bernstein", cfg)
        assert code == 2
        assert "game" in capsys.readouterr().err


class TestReproducibility:
    def test_csv_bytes_identical_across_runs(self, tmp_path):
        cases = [
            ("contraction", op_config(experiment={"pairs": 100})),
            ("stability", op_config(solver={"T": 200},
                                    experiment={"n_grid": [8, 16], "trials": 4})),
            ("sweep", game_config(experiment={"n_grid": [16, 64], "trials": 5,
                                              "kind": "weak_gap"})),
            ("bernstein", game_config(experiment={"z_samples": 4, "mc_samples": 300})),
        ]
        for command, cfg in cases:
            code_a, dir_a = run_cli(tmp_path, command, cfg, out=f"{command}_a")
            code_b, dir_b = run_cli(tmp_path, command, cfg, out=f"{command}_b")
            assert code_a == code_b == 0
            csv_a = (dir_a / f"{command}.csv").read_bytes()
            csv_b = (dir_b / f"{command}.csv").read_bytes()
            assert csv_a == csv_b
            sum_a = json.loads((dir_a / f"{command}_summary.json").read_text())
            sum_b = json.loads((dir_b / f"{command}_summary.json").read_text())
            del sum_a["manifest"]["wall_clock_seconds"]
            del sum_b["manifest"]["wall_clock_seconds"]
            assert sum_a == sum_b

    def test_workers_do_not_change_output(self, tmp_path):
        for tag, command, cfg in (
            ("stability", "stability", op_config(
                solver={"T": 200}, experiment={"n_grid": [8, 16, 32], "trials": 4})),
            ("sweep", "sweep", game_config(experiment={"n_grid": [16, 32, 64], "trials": 5,
                                                       "kind": "weak_gap"})),
            # n = 1024 draws above the serial threshold, so --workers 2 threads
            ("threaded", "stability", MATRIX_STABILITY),
        ):
            _, dir_serial = run_cli(tmp_path, command, cfg, out=f"{tag}_s", workers=1)
            _, dir_par = run_cli(tmp_path, command, cfg, out=f"{tag}_p", workers=2)
            assert (dir_serial / f"{command}.csv").read_bytes() == \
                (dir_par / f"{command}.csv").read_bytes()

    def test_sample_configs_match_the_pinned_digests(self, sample_runs):
        # the benchmark's same-bytes gate, digested as bench/workloads.py's
        # cli_output_digest does: the CSV, or solve's summary without its
        # manifest (which holds wall time); like bench/run.py, every config
        # runs at --workers 1 and the three it reruns at --workers 2 must
        # give the same pinned digests there too
        pinned = json.loads((ROOT / "bench" / "reference" / "cli_sha256.json").read_text())
        assert len(pinned) == 6
        got = {}
        for (stem, workers), out in sample_runs.items():
            command = stem.split("_")[0]
            data = summary_bytes(out, command) if command == "solve" else \
                (out / f"{command}.csv").read_bytes()
            got[stem, workers] = hashlib.sha256(data).hexdigest()
        assert got == {(stem, workers): pinned[stem] for stem, workers in sample_runs}

    def test_sample_summaries_match_the_pinned_digests(self, sample_runs):
        # the other five summaries, manifest dropped as for solve: they hold
        # what no CSV does (bounds.gamma, a stability row's bound and
        # bound_base_K, a contraction row's gated), at both worker counts
        pinned = json.loads((ROOT / "tests" / "summary_sha256.json").read_text())
        got = {(stem, workers): hashlib.sha256(summary_bytes(out, stem.split("_")[0])).hexdigest()
               for (stem, workers), out in sample_runs.items() if stem != "solve_ball"}
        assert {stem for stem, _ in got} == set(pinned) and len(pinned) == 5
        assert got == {(stem, workers): pinned[stem] for stem, workers in got}

    def test_thread_pool_has_no_more_threads_than_trials(self, tmp_path, pool_sizes):
        # the calling thread draws one block of trials itself, so a pool holds
        # min(workers, trials) - 1 helpers; n = 16 draws below the serial
        # threshold and builds no pool at all
        code, _ = run_cli(tmp_path, "stability", MATRIX_STABILITY, workers=64)
        assert code == 0
        assert pool_sizes == [2]


class TestExitCodes:
    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file")
        assert str(tmp_path) in err and "Traceback" not in err

    def test_workers_default_to_the_cpus_this_process_may_use(self, monkeypatch):
        # os.cpu_count() counts CPUs the affinity mask may exclude
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        args = cli._build_parser().parse_args(["solve", "--config", "cfg.json"])
        assert args.workers == 1

    def test_bad_workers(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, op_config(experiment={"n": 5}))
        code = main(["solve", "--config", cfg, "--out-dir", str(tmp_path),
                     "--workers", "0"])
        assert code == 2
        assert capsys.readouterr().err == "config error: '--workers' must be in [1, inf), got 0\n"

    def test_negative_seed_flag(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", op_config(experiment={"n": 5}),
                          extra=("--seed", "-1"))
        assert code == 2
        assert "'--seed'" in capsys.readouterr().err

    def test_divergence_maps_to_3(self, tmp_path, capsys):
        # eg has no step-size gate; a huge eta honestly diverges
        cfg = op_config(solver={"method": "eg", "eta": 3.0, "T": 200},
                        experiment={"n": 10})
        code, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bound_violation_maps_to_4(self, tmp_path, capsys, monkeypatch):
        import vilab.cli as cli_mod

        def boom(args, cfg, built, sc):
            raise BoundViolationError("synthetic")

        monkeypatch.setitem(cli_mod._COMMANDS, "solve", boom)
        cfg = write_cfg(tmp_path, op_config(experiment={"n": 5}))
        code = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 4
        assert "bound violation" in capsys.readouterr().err


class TestOutputFiles:
    def test_modes_follow_the_umask(self, tmp_path):
        for mask, mode in ((0o022, 0o644), (0o077, 0o600)):
            cfg = op_config(experiment={"pairs": 20})
            old = os.umask(mask)
            try:
                code, out_dir = run_cli(tmp_path, "contraction", cfg, out=f"umask_{mask:03o}")
                cli._atomic_write(str(out_dir / "chart.svg"), "<svg/>")
            finally:
                os.umask(old)
            assert code == 0
            names = sorted(p.name for p in out_dir.iterdir())
            assert names == ["chart.svg", "contraction.csv", "contraction_summary.json"]
            assert {(out_dir / n).stat().st_mode & 0o777 for n in names} == {mode}

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(str(target), "a lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []


class TestEntryPoint:
    def test_import_loads_no_process_pool(self):
        # serial runs never start a pool, so importing the CLI must pay for
        # neither a process pool nor a thread pool
        code = ("import sys, vilab.cli; "
                "print(sorted(m for m in ('concurrent.futures.process', "
                "'concurrent.futures.thread') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_openssl(self):
        # the solver's cycle marks take BLAKE2b without hashlib, whose import
        # loads the OpenSSL binding (about 3 ms of every CLI start)
        code = ("import sys, vilab.cli; "
                "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script(self, tmp_path):
        cfg = write_cfg(tmp_path, op_config(problem={"noise": {"kind": "offset",
                                                               "magnitude": 0.0}},
                                            experiment={"n": 5}))
        exe = shutil.which("vi-lab")
        if exe is not None:
            argv = [exe]
        else:
            argv = [sys.executable, "-m", "vilab.cli"]
        proc = subprocess.run(
            argv + ["solve", "--config", cfg, "--out-dir", str(tmp_path / "ep")],
            capture_output=True, text=True, timeout=120, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "ep" / "solve_summary.json").exists()
