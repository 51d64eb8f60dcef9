"""vi-lab: experiments on strongly monotone variational inequalities.

Subcommands
-----------
solve        train on one sampled dataset, report a gap report
contraction  measured per-step contraction ratios vs closed-form ceilings
stability    neighbouring-dataset divergence vs the stability bound
sweep        generalization rate over dataset sizes (mean or quantile)
bernstein    Bernstein-condition check on a quadratic game

Shared flags: --config PATH (JSON), --out-dir DIR, --workers N, --seed S.
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 bound violation.

Outputs are deterministic for a fixed config: CSV files are byte-identical
across runs and across --workers settings (trials are pure functions of
(base_seed, n, trial) merged in a fixed order); wall-clock time appears only
inside the JSON manifest. All files are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .analysis import (BoundSet, bernstein_check, covering_bound,
                       evaluate_bounds, fit_sweep, game_bound, quantile_fit_on,
                       simplex_bound, stability_experiment, stability_gamma,
                       sweep_point)
from .charts import log_log_chart
from .domains import Ball, Box, Domain, Product, Simplex
from .errors import (BoundViolationError, ConfigError, GenerationError,
                     InfeasiblePointError, NumericalError)
from .gaps import gap_report
from .problems import (NoiseModel, QuadraticGame, constants, empirical_operator,
                       generate_game, generate_operator, sample_dataset)
from .solvers import (SolverConfig, admissible_eta, eg_contraction_bound,
                      eg_contraction_coefficient, eg_step, gd_contraction_bound,
                      gd_step, in_gd_stability_range, run)

# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "solve": {"n"},
    "contraction": {"pairs", "eta_grid"},
    "stability": {"n_grid", "trials"},
    "sweep": {"n_grid", "trials", "kind", "delta", "mode"},
    "bernstein": {"z_samples", "mc_samples"},
}


def _reject_unknown(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'")


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing config key '{path}.{key}'")
    return section[key]


def _num(value, path: str, lo=None, lo_strict=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"'{path}' must be a number")
    v = float(value)
    if lo is not None and v < lo:
        raise ConfigError(f"'{path}' must be >= {lo}, got {v}")
    if lo_strict is not None and v <= lo_strict:
        raise ConfigError(f"'{path}' must be > {lo_strict}, got {v}")
    return v


def _int(value, path: str, lo=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"'{path}' must be an integer")
    if lo is not None and value < lo:
        raise ConfigError(f"'{path}' must be >= {lo}, got {value}")
    return value


def _build_domain(spec, path: str) -> Domain:
    if not isinstance(spec, dict):
        raise ConfigError(f"'{path}' must be an object")
    kind = _require(spec, "kind", path)
    if kind == "simplex":
        _reject_unknown(spec, {"kind", "d"}, path)
        return Simplex(_int(_require(spec, "d", path), f"{path}.d", lo=1))
    if kind == "ball":
        _reject_unknown(spec, {"kind", "center", "radius"}, path)
        center = _require(spec, "center", path)
        if not isinstance(center, list):
            raise ConfigError(f"'{path}.center' must be a list")
        return Ball(np.asarray(center, dtype=float),
                    _num(_require(spec, "radius", path), f"{path}.radius", lo_strict=0.0))
    if kind == "box":
        _reject_unknown(spec, {"kind", "lower", "upper"}, path)
        lower, upper = _require(spec, "lower", path), _require(spec, "upper", path)
        if not isinstance(lower, list) or not isinstance(upper, list):
            raise ConfigError(f"'{path}.lower'/'{path}.upper' must be lists")
        try:
            return Box(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"invalid box at '{path}': {exc}") from exc
    if kind == "product":
        _reject_unknown(spec, {"kind", "factors"}, path)
        factors = _require(spec, "factors", path)
        if not isinstance(factors, list) or not factors:
            raise ConfigError(f"'{path}.factors' must be a nonempty list")
        return Product(tuple(_build_domain(f, f"{path}.factors[{i}]")
                             for i, f in enumerate(factors)))
    raise ConfigError(f"'{path}.kind' must be one of simplex/ball/box/product, got {kind!r}")


def load_config(path: str, command: str, seed_override=None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return normalize_config(cfg, command, seed_override)


def normalize_config(cfg: dict, command: str, seed_override=None) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(cfg, {"problem", "solver", "experiment", "output"}, "config")
    problem = cfg.get("problem")
    if not isinstance(problem, dict):
        raise ConfigError("missing config key 'config.problem'")
    kind = _require(problem, "kind", "problem")
    if kind == "operator":
        allowed = {"kind", "seed", "d", "mu", "L", "domain", "noise", "interior_margin"}
        _reject_unknown(problem, allowed, "problem")
        d = _int(_require(problem, "d", "problem"), "problem.d", lo=1)
        mu = _num(_require(problem, "mu", "problem"), "problem.mu", lo_strict=0.0)
        L = _num(_require(problem, "L", "problem"), "problem.L", lo_strict=0.0)
        if mu > L:
            raise ConfigError(f"'problem.mu' must be <= 'problem.L', got {mu} > {L}")
        _build_domain(_require(problem, "domain", "problem"), "problem.domain")
    elif kind == "game":
        allowed = {"kind", "seed", "k", "dims", "mu", "coupling", "domain", "noise",
                   "interior_margin"}
        _reject_unknown(problem, allowed, "problem")
        k = _int(_require(problem, "k", "problem"), "problem.k", lo=1)
        dims = _require(problem, "dims", "problem")
        if isinstance(dims, int):
            pass
        elif isinstance(dims, list) and all(isinstance(x, int) for x in dims):
            if len(dims) != k:
                raise ConfigError(f"'problem.dims' must list {k} sizes, got {len(dims)}")
        else:
            raise ConfigError("'problem.dims' must be an int or a list of ints")
        _num(_require(problem, "mu", "problem"), "problem.mu", lo_strict=0.0)
        _num(_require(problem, "coupling", "problem"), "problem.coupling", lo=0.0)
        if "domain" in problem:
            _build_domain(problem["domain"], "problem.domain")
    else:
        raise ConfigError(f"'problem.kind' must be 'operator' or 'game', got {kind!r}")
    problem.setdefault("seed", 0)
    _int(problem["seed"], "problem.seed")
    if seed_override is not None:
        problem["seed"] = int(seed_override)
    noise = problem.setdefault("noise", {"kind": "offset", "magnitude": 0.0})
    if not isinstance(noise, dict):
        raise ConfigError("'problem.noise' must be an object")
    _reject_unknown(noise, {"kind", "magnitude"}, "problem.noise")
    if noise.get("kind") not in ("offset", "matrix"):
        raise ConfigError("'problem.noise.kind' must be 'offset' or 'matrix'")
    _num(_require(noise, "magnitude", "problem.noise"), "problem.noise.magnitude", lo=0.0)

    solver = cfg.setdefault("solver", {"method": "gd", "eta": 0.1, "T": 1000})
    _reject_unknown(solver, {"method", "eta", "T", "projected"}, "solver")
    if solver.setdefault("method", "gd") not in ("gd", "eg"):
        raise ConfigError("'solver.method' must be 'gd' or 'eg'")
    _num(_require(solver, "eta", "solver"), "solver.eta", lo_strict=0.0)
    _int(_require(solver, "T", "solver"), "solver.T", lo=0)
    if not isinstance(solver.setdefault("projected", False), bool):
        raise ConfigError("'solver.projected' must be a boolean")

    experiment = cfg.setdefault("experiment", {})
    if not isinstance(experiment, dict):
        raise ConfigError("'config.experiment' must be an object")
    _reject_unknown(experiment, _EXPERIMENT_KEYS[command], "experiment")

    output = cfg.setdefault("output", {})
    _reject_unknown(output, {"csv", "json", "svg"}, "output")
    output.setdefault("csv", f"{command}.csv")
    output.setdefault("json", f"{command}_summary.json")
    for key in ("csv", "json", "svg"):
        if key in output and not isinstance(output[key], str):
            raise ConfigError(f"'output.{key}' must be a path string")
    return cfg


def build_problem(cfg: dict):
    """Instance, its domain, and the noise model from a normalized config."""
    p = cfg["problem"]
    noise = NoiseModel(p["noise"]["kind"], p["noise"]["magnitude"])
    margin = p.get("interior_margin")
    if p["kind"] == "operator":
        domain = _build_domain(p["domain"], "problem.domain")
        if domain.dim != p["d"]:
            raise ConfigError(
                f"'problem.domain' has dim {domain.dim} but 'problem.d' is {p['d']}"
            )
        problem = generate_operator(p["seed"], p["d"], p["mu"], p["L"],
                                    domain=domain, interior_margin=margin)
        return problem, domain, noise
    dims = p["dims"]
    domain = _build_domain(p["domain"], "problem.domain") if "domain" in p else None
    if domain is not None and not isinstance(domain, Product):
        raise ConfigError("'problem.domain' for a game must be a product domain")
    game = generate_game(p["seed"], p["k"], dims, p["mu"], p["coupling"],
                         domain=domain, interior_margin=margin)
    return game, game.domain, noise


def solver_config(cfg: dict, record: bool = False) -> SolverConfig:
    s = cfg["solver"]
    return SolverConfig(method=s["method"], eta=s["eta"], T=s["T"],
                        projected=s["projected"], record_trajectory=record)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".vilab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating, np.integer))
                         else str(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_summary(path: str, command: str, cfg: dict, consts, results: dict,
                  bounds, started: float, workers: int) -> None:
    summary = {
        "config": _jsonable(cfg),
        "constants": {
            "mu": consts.mu, "L": consts.L, "K": consts.K, "D": consts.D,
            "per_player": [list(p) for p in consts.per_player],
        },
        "results": _jsonable(results),
        "bounds": _jsonable(bounds),
        "manifest": {
            "package_version": __version__,
            "command": command,
            "base_seed": cfg["problem"]["seed"],
            "workers": workers,
            "wall_clock_seconds": time.time() - started,
        },
    }
    _atomic_write(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _bounds_dict(b: BoundSet) -> dict:
    return {"covering": b.covering, "simplex": b.simplex, "game": b.game,
            "bernstein_B": b.bernstein_B, "gamma": b.gamma, "note": b.note}


def _bounds_at_count(b: BoundSet, n: int, source: str, dataset_size: bool = False) -> dict:
    """Bounds whose gamma was taken at one count n; the summary says which
    count it is and whether it is a dataset size."""
    return {**_bounds_dict(b), "n": n, "n_source": source, "n_is_dataset_size": dataset_size}


def _out(args, name: str) -> str:
    return os.path.join(args.out_dir, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    started = time.time()
    cfg = load_config(args.config, "solve", args.seed)
    problem, domain, noise = build_problem(cfg)
    consts = constants(problem, domain)
    sc = solver_config(cfg)
    if sc.method == "gd" and not in_gd_stability_range(sc.eta, consts.mu, consts.L):
        raise ConfigError(
            f"eta exceeds 2*mu/L^2: eta={sc.eta}, limit={2 * consts.mu / consts.L ** 2:.6g}"
        )
    n = _int(_require(cfg["experiment"], "n", "experiment"), "experiment.n", lo=1)
    X = sample_dataset(problem, noise, n, [cfg["problem"]["seed"], n, 0])
    traj = run(empirical_operator(problem, X), domain, sc)
    report = gap_report(problem, X, domain, traj.final)
    gamma = stability_gamma(consts, n, sc.eta, noise, domain)
    bounds = evaluate_bounds(consts, gamma, domain, problem)
    results = {
        "final": traj.final, "steps": traj.steps,
        "gap_report": {
            "kind": report.kind, "gap_true": report.gap_true,
            "gap_empirical": report.gap_empirical,
            "weak_gap_true": report.weak_gap_true,
            "weak_gap_empirical": report.weak_gap_empirical,
            "potential_gap": report.potential_gap,
            "generalization_gap": report.generalization_gap,
        },
        "diagnostics": {
            "method": sc.method, "eta": sc.eta, "n": n,
            "gd_stability_range": in_gd_stability_range(sc.eta, consts.mu, consts.L),
            "contraction_bound": (gd_contraction_bound if sc.method == "gd"
                                  else eg_contraction_bound)(consts.mu, consts.L, sc.eta),
        },
    }
    write_summary(_out(args, cfg["output"]["json"]), "solve", cfg, consts,
                  results, _bounds_dict(bounds), started, args.workers)
    return 0


def _default_eta_grid(method: str, mu: float, L: float):
    if method == "gd":
        top = 2.0 * mu / L ** 2
        return [f * top for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    adm = admissible_eta(mu, L, "eg")
    if adm.size == 0:
        # nothing contractive; still measure a few points against the ceiling
        return [f / L for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    idx = np.unique(np.linspace(0, adm.size - 1, min(24, adm.size)).astype(int))
    return [float(adm[i]) for i in idx]


def cmd_contraction(args) -> int:
    started = time.time()
    cfg = load_config(args.config, "contraction", args.seed)
    problem, domain, _noise = build_problem(cfg)
    consts = constants(problem, domain)
    sc = solver_config(cfg)
    exp = cfg["experiment"]
    pairs = _int(exp.get("pairs", 1000), "experiment.pairs", lo=1)
    if "eta_grid" in exp:
        grid = exp["eta_grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("'experiment.eta_grid' must be a nonempty list")
        grid = [_num(e, "experiment.eta_grid[*]", lo_strict=0.0) for e in grid]
    else:
        grid = _default_eta_grid(sc.method, consts.mu, consts.L)

    rng = np.random.default_rng(
        np.random.SeedSequence([cfg["problem"]["seed"]], spawn_key=(5,)))
    Z1 = domain.sample(rng, pairs)
    Z2 = domain.sample(rng, pairs)
    keep = np.linalg.norm(Z1 - Z2, axis=-1) > 1e-12
    Z1, Z2 = Z1[keep], Z2[keep]
    F = problem.as_operator()
    denom = np.linalg.norm(Z1 - Z2, axis=-1)

    step = gd_step if sc.method == "gd" else eg_step
    rows, details, violations = [], [], 0
    for eta in grid:
        ratios = np.linalg.norm(step(F, Z1, eta) - step(F, Z2, eta), axis=-1) / denom
        measured = float(np.max(ratios))
        if sc.method == "gd":
            bound = gd_contraction_bound(consts.mu, consts.L, eta)
            gated = True
        else:
            bound = eg_contraction_bound(consts.mu, consts.L, eta)
            gated = eg_contraction_coefficient(consts.mu, consts.L, eta) < 1.0
        violated = gated and measured > bound + 1e-9
        violations += int(violated)
        rows.append((eta, sc.method, measured, bound, int(denom.size)))
        details.append({"eta": eta, "measured_max_ratio": measured,
                        "theoretical_bound": bound, "gated": gated,
                        "violated": violated})

    write_csv(_out(args, cfg["output"]["csv"]),
              ["eta", "method", "measured_max_ratio", "theoretical_bound", "pairs"],
              rows)
    gamma = stability_gamma(consts, pairs, sc.eta, _noise, domain)
    bounds = evaluate_bounds(consts, gamma, domain, problem)
    write_summary(_out(args, cfg["output"]["json"]), "contraction", cfg, consts,
                  {"method": sc.method, "rows": details, "violations": violations},
                  _bounds_at_count(bounds, pairs, "experiment.pairs"),
                  started, args.workers)
    if violations:
        raise BoundViolationError(
            f"{violations} eta value(s) exceeded the contraction ceiling by > 1e-9"
        )
    return 0


def _stability_one_n(payload):
    (problem, domain, noise, consts), cfg, n = payload
    res = stability_experiment(problem, domain, solver_config(cfg), n,
                               cfg["experiment"]["trials"], cfg["problem"]["seed"],
                               noise, consts)
    return {"n": n, "divergences": res.divergences.tolist(), "bound": res.bound,
            "bound_informational": res.bound_informational,
            "bound_base_K": res.bound_base_K}


def cmd_stability(args) -> int:
    started = time.time()
    cfg = load_config(args.config, "stability", args.seed)
    exp = cfg["experiment"]
    n_grid = _require(exp, "n_grid", "experiment")
    if not isinstance(n_grid, list) or not n_grid:
        raise ConfigError("'experiment.n_grid' must be a nonempty list")
    n_grid = [_int(n, "experiment.n_grid[*]", lo=1) for n in n_grid]
    _int(_require(exp, "trials", "experiment"), "experiment.trials", lo=1)

    problem, domain, noise = build_problem(cfg)
    consts = constants(problem, domain)
    sc = solver_config(cfg)
    built = (problem, domain, noise, consts)
    per_n = _parallel_map(_stability_one_n, [(built, cfg, n) for n in n_grid],
                          args.workers)

    rows = []
    violations = 0
    for block in per_n:
        for t, d in enumerate(block["divergences"]):
            rows.append((block["n"], t, d))
        if not block["bound_informational"]:
            worst = max(block["divergences"])
            if worst > block["bound"] + 1e-12:
                violations += 1
    write_csv(_out(args, cfg["output"]["csv"]), ["n", "trial", "divergence"], rows)
    gamma = stability_gamma(consts, n_grid[0], sc.eta, noise, domain)
    bounds = evaluate_bounds(consts, gamma, domain, problem)
    write_summary(_out(args, cfg["output"]["json"]), "stability", cfg, consts,
                  {"method": sc.method, "per_n": per_n, "violations": violations},
                  _bounds_at_count(bounds, n_grid[0], "experiment.n_grid[0]", True),
                  started, args.workers)
    if violations:
        raise BoundViolationError(
            f"measured divergence exceeded the stability bound for {violations} n value(s)"
        )
    return 0


def _sweep_one_n(payload):
    (problem, domain, noise, consts), cfg, n = payload
    exp = cfg["experiment"]
    return sweep_point(problem, domain, solver_config(cfg), noise, n, exp["trials"],
                       cfg["problem"]["seed"], kind=exp.get("kind", "gap"),
                       delta=float(exp.get("delta", 0.1)), consts=consts)


def cmd_sweep(args) -> int:
    started = time.time()
    cfg = load_config(args.config, "sweep", args.seed)
    exp = cfg["experiment"]
    n_grid = _require(exp, "n_grid", "experiment")
    if not isinstance(n_grid, list) or len(n_grid) < 2:
        raise ConfigError("'experiment.n_grid' must list at least two sizes")
    n_grid = [_int(n, "experiment.n_grid[*]", lo=1) for n in n_grid]
    kind = exp.get("kind", "gap")
    if kind not in ("gap", "weak_gap", "potential_gap"):
        raise ConfigError("'experiment.kind' must be gap/weak_gap/potential_gap")
    mode = exp.get("mode", "mean")
    if mode not in ("mean", "quantile"):
        raise ConfigError("'experiment.mode' must be 'mean' or 'quantile'")
    delta = _num(exp.get("delta", 0.1), "experiment.delta", lo_strict=0.0)
    if delta >= 1.0:
        raise ConfigError(f"'experiment.delta' must be < 1, got {delta}")
    trials = _int(_require(exp, "trials", "experiment"), "experiment.trials", lo=2)
    fit_on = quantile_fit_on(trials, delta) if mode == "quantile" else "mean"

    problem, domain, noise = build_problem(cfg)
    consts = constants(problem, domain)
    sc = solver_config(cfg)
    built = (problem, domain, noise, consts)
    per_n = _parallel_map(_sweep_one_n, [(built, cfg, n) for n in n_grid], args.workers)
    slope, intercept, r2, fit_error = fit_sweep(per_n, fit_on)

    rows = [(row["n"], t, v, kind)
            for row in per_n for t, v in enumerate(row["values"])]
    write_csv(_out(args, cfg["output"]["csv"]), ["n", "trial", "value", "kind"], rows)

    bounds_per_n = []
    for row in per_n:
        gamma = stability_gamma(consts, row["n"], sc.eta, noise, domain)
        g = gamma["eta"] if gamma["eta"] is not None else gamma["limit"]
        entry = {"n": row["n"], "gamma": gamma,
                 "covering": covering_bound(consts, g, domain,
                                            consts.D * np.array([0.01, 0.05, 0.1, 0.5]))}
        if isinstance(domain, Simplex) and domain.d > 1:
            entry["simplex"] = simplex_bound(consts, g, domain.d)
            entry["mean_over_simplex_bound"] = row["mean"] / entry["simplex"]
        if isinstance(problem, QuadraticGame):
            entry["game"] = game_bound(consts, g)
            entry["mean_over_game_bound"] = row["mean"] / entry["game"]
        bounds_per_n.append(entry)

    results = {"kind": kind, "fit_on": fit_on, "per_n": per_n,
               "slope": slope, "intercept": intercept, "r_squared": r2,
               "fit_error": fit_error, "bounds_per_n": bounds_per_n}
    bounds = evaluate_bounds(consts, bounds_per_n[0]["gamma"], domain, problem)
    write_summary(_out(args, cfg["output"]["json"]), "sweep", cfg, consts, results,
                  _bounds_at_count(bounds, n_grid[0], "experiment.n_grid[0]", True),
                  started, args.workers)

    if "svg" in cfg["output"]:
        series = [{"label": f"mean {kind}", "x": n_grid,
                   "y": [row["mean"] for row in per_n]}]
        if slope is not None:
            series.append({"label": f"fit slope {slope:.2f}", "line": True,
                           "x": n_grid,
                           "y": [math.exp(intercept) * n ** slope for n in n_grid]})
        key = "game" if isinstance(problem, QuadraticGame) else (
            "simplex" if isinstance(domain, Simplex) and domain.d > 1 else "covering")
        if all(key in b for b in bounds_per_n):
            series.append({"label": f"{key} bound", "line": True, "x": n_grid,
                           "y": [b[key] for b in bounds_per_n]})
        _atomic_write(_out(args, cfg["output"]["svg"]),
                      log_log_chart(series, title=f"{kind} vs dataset size",
                                    xlabel="n", ylabel=kind))
    return 0


def cmd_bernstein(args) -> int:
    started = time.time()
    cfg = load_config(args.config, "bernstein", args.seed)
    if cfg["problem"]["kind"] != "game":
        raise ConfigError("bernstein requires 'problem.kind' = 'game'")
    exp = cfg["experiment"]
    z_samples = _int(_require(exp, "z_samples", "experiment"), "experiment.z_samples", lo=1)
    mc_samples = _int(_require(exp, "mc_samples", "experiment"), "experiment.mc_samples", lo=2)
    problem, domain, noise = build_problem(cfg)
    consts = constants(problem, domain)
    res = bernstein_check(problem, domain, noise, z_samples, mc_samples,
                          cfg["problem"]["seed"])
    rows = [(r["index"], r["lhs"], r["rhs"], res.B) for r in res.rows]
    write_csv(_out(args, cfg["output"]["csv"]), ["sample_index", "lhs", "rhs", "B"], rows)
    sc = solver_config(cfg)
    gamma = stability_gamma(consts, mc_samples, sc.eta, noise, domain)
    bounds = evaluate_bounds(consts, gamma, domain, problem)
    write_summary(_out(args, cfg["output"]["json"]), "bernstein", cfg, consts,
                  {"B": res.B, "mc_samples": res.mc_samples, "rows": res.rows,
                   "violations": res.violations},
                  _bounds_at_count(bounds, mc_samples, "experiment.mc_samples"),
                  started, args.workers)
    if res.violations:
        raise BoundViolationError(
            f"Bernstein condition violated at {res.violations} sample point(s)"
        )
    return 0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _parallel_map(fn, payloads, workers: int) -> list:
    if workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


_COMMANDS = {
    "solve": cmd_solve,
    "contraction": cmd_contraction,
    "stability": cmd_stability,
    "sweep": cmd_sweep,
    "bernstein": cmd_bernstein,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vi-lab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out-dir", default=".", help="directory for outputs")
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="parallel trial workers (results are identical)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override problem.seed from the config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, GenerationError, InfeasiblePointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
