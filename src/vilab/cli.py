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
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import (bernstein_check, check_gd_eta, evaluate_bounds, fit_sweep,
                       quantile_fit_on, stability_experiment, stability_gamma,
                       sweep_point)
from .charts import log_log_chart
from .domains import Ball, Box, Domain, Product, Simplex
from .errors import (BoundViolationError, ConfigError, GenerationError,
                     InfeasiblePointError, NumericalError)
from .gaps import gap_report
from .problems import (NoiseModel, constants, empirical_operator,
                       generate_game, generate_operator, sample_dataset)
from .solvers import (SolverConfig, admissible_eta, contraction_ratio,
                      eg_contraction_bound, eg_contraction_coefficient,
                      gd_contraction_bound, in_gd_stability_range, run)

# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------
#
# A table maps each key of one config object to (check, bound, default).
# check: float (a finite int or float), int, bool or str (never a bool for
# the numeric ones); a tuple of allowed strings; a nested table; a list
# [element check, element bound]; or a function (value, path) -> value.
# bound: an interval such as "(0, inf)" that a number, or a list's length,
# must lie in. default: _REQUIRED, None (the key may be absent), or the value
# filled in when the key is absent.

_REQUIRED = object()
_POSITIVE, _NONNEGATIVE, _COUNT, _PAIR = "(0, inf)", "[0, inf)", "[1, inf)", "[2, inf)"
_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "a boolean",
               str: "a string"}


def _within(bound: str, v) -> bool:
    lo, hi = (float(x) for x in bound[1:-1].split(","))
    return ((lo <= v) if bound[0] == "[" else (lo < v)) and \
        ((v <= hi) if bound[-1] == "]" else (v < hi))


def _is(check: type, v) -> bool:
    if check is float:  # finite: no NaN, no infinity, no int beyond float range
        return isinstance(v, (int, float)) and not isinstance(v, bool) and \
            abs(v) <= sys.float_info.max
    return isinstance(v, check) and isinstance(v, bool) == (check is bool)


def _value(check, bound, value, path: str):
    """`value` checked against one table entry; errors name `path`."""
    if isinstance(check, dict):
        return _section(check, value, path)
    if isinstance(check, tuple):
        if value not in check:
            raise ConfigError(f"'{path}' must be one of {'/'.join(check)}, got {value!r}")
        return value
    if isinstance(check, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be a list")
        value = [_value(*check, v, f"{path}[{i}]") for i, v in enumerate(value)]
        if bound is not None and not _within(bound, len(value)):
            raise ConfigError(f"'{path}' needs a length in {bound}, got {len(value)}")
        return value
    if not isinstance(check, type):
        return check(value, path)
    if not _is(check, value):
        raise ConfigError(f"'{path}' must be {_TYPE_NAMES[check]}, got {value!r}")
    if bound is not None and not _within(bound, value):
        raise ConfigError(f"'{path}' must be in {bound}, got {value}")
    return value


def _section(spec: dict, value, path: str) -> dict:
    """A checked copy of the object at `path` (the root when empty): unknown
    keys rejected, missing ones reported, defaults filled in."""
    at = f"{path}." if path else ""
    if not isinstance(value, dict):
        raise ConfigError(f"'{path or 'config'}' must be an object")
    for key in value:
        if key not in spec:
            raise ConfigError(f"unknown config key '{at}{key}'")
    out = {}
    for key, (check, bound, default) in spec.items():
        if key in value:
            out[key] = _value(check, bound, value[key], at + key)
        elif default is _REQUIRED:
            raise ConfigError(f"missing config key '{at}{key}'")
        elif default is not None:
            out[key] = _value(check, bound, default, at + key)
    return out


def _tagged(tables: dict):
    """Check for an object whose 'kind' names the table it is checked against."""
    def check(value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be an object")
        kind = _value(tuple(tables), None, value.get("kind"), f"{path}.kind")
        return _section({"kind": ((kind,), None, _REQUIRED), **tables[kind]}, value, path)
    return check


def _dims(value, path):
    """One size for every player, or a list of one size per player."""
    return _value([int, _COUNT] if isinstance(value, list) else int, _COUNT, value, path)


_DOMAINS = {
    "simplex": {"d": (int, _COUNT, _REQUIRED)},
    "ball": {"center": ([float, None], _COUNT, _REQUIRED),
             "radius": (float, _POSITIVE, _REQUIRED)},
    "box": {"lower": ([float, None], _COUNT, _REQUIRED),
            "upper": ([float, None], _COUNT, _REQUIRED)},
}
_DOMAIN = _tagged(_DOMAINS)
_DOMAINS["product"] = {"factors": ([_DOMAIN, None], _COUNT, _REQUIRED)}

_NOISE = {"kind": (("offset", "matrix"), None, _REQUIRED),
          "magnitude": (float, _NONNEGATIVE, _REQUIRED)}
_INSTANCE = {"seed": (int, _NONNEGATIVE, 0),
             "noise": (_NOISE, None, {"kind": "offset", "magnitude": 0.0}),
             "interior_margin": (float, _NONNEGATIVE, None)}
_PROBLEMS = {
    "operator": {"d": (int, _COUNT, _REQUIRED), "mu": (float, _POSITIVE, _REQUIRED),
                 "L": (float, _POSITIVE, _REQUIRED), "domain": (_DOMAIN, None, _REQUIRED),
                 **_INSTANCE},
    "game": {"k": (int, _COUNT, _REQUIRED), "dims": (_dims, None, _REQUIRED),
             "mu": (float, _POSITIVE, _REQUIRED),
             "coupling": (float, _NONNEGATIVE, _REQUIRED), "domain": (_DOMAIN, None, None),
             **_INSTANCE},
}
_SOLVER = {"method": (("gd", "eg"), None, "gd"), "eta": (float, _POSITIVE, _REQUIRED),
           "T": (int, _NONNEGATIVE, _REQUIRED), "projected": (bool, None, False)}
_EXPERIMENTS = {
    "solve": {"n": (int, _COUNT, _REQUIRED)},
    "contraction": {"pairs": (int, _COUNT, 1000),
                    "eta_grid": ([float, _POSITIVE], _COUNT, None)},
    "stability": {"n_grid": ([int, _COUNT], _COUNT, _REQUIRED),
                  "trials": (int, _COUNT, _REQUIRED)},
    "sweep": {"n_grid": ([int, _COUNT], _PAIR, _REQUIRED), "trials": (int, _PAIR, _REQUIRED),
              "kind": (("gap", "weak_gap", "potential_gap"), None, "gap"),
              "mode": (("mean", "quantile"), None, "mean"),
              "delta": (float, "(0, 1)", 0.1)},
    "bernstein": {"z_samples": (int, _COUNT, _REQUIRED),
                  "mc_samples": (int, _PAIR, _REQUIRED)},
}


def _file_name(value, path):
    """A bare file name, so every output lands inside --out-dir."""
    name = _value(str, None, value, path)
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"'{path}' must be a bare file name, got {value!r}")
    return name


def _output(command: str) -> dict:
    return {"csv": (_file_name, None, f"{command}.csv"),
            "json": (_file_name, None, f"{command}_summary.json"),
            "svg": (_file_name, None, None)}


def _build_domain(spec: dict) -> Domain:
    kind = spec["kind"]
    if kind == "simplex":
        return Simplex(spec["d"])
    if kind == "ball":
        return Ball(np.asarray(spec["center"], dtype=float), spec["radius"])
    if kind == "box":
        return Box(np.asarray(spec["lower"], dtype=float), np.asarray(spec["upper"], dtype=float))
    return Product(tuple(_build_domain(f) for f in spec["factors"]))


def _problem_domain(p: dict) -> Optional[Domain]:
    """The problem's domain (None if a game omits it), checked against its dimensions."""
    if "domain" not in p:
        return None
    try:
        domain = _build_domain(p["domain"])
    except ValueError as exc:
        raise ConfigError(f"invalid domain at 'problem.domain': {exc}") from exc
    if p["kind"] == "game" and not isinstance(domain, Product):
        raise ConfigError("'problem.domain' for a game must be a product domain")
    if p["kind"] == "operator" and domain.dim != p["d"]:
        raise ConfigError(f"'problem.domain' has dim {domain.dim} but 'problem.d' is {p['d']}")
    return domain


def load_config(path: str, command: str, seed_override=None) -> dict:
    """The checked config of `command`, its experiment keys all present."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = normalize_config(cfg, command, seed_override)
    exp = _section(_EXPERIMENTS[command], cfg["experiment"], "experiment")
    if exp.get("mode") == "quantile":
        quantile_fit_on(exp["trials"], exp["delta"])  # the quantile's trial floor
    return cfg


def normalize_config(cfg: dict, command: str, seed_override=None) -> dict:
    """A checked copy of `cfg` with defaults filled in. The command's
    experiment keys are checked when present; load_config requires them."""
    experiment = {key: (check, bound, None if default is _REQUIRED else default)
                  for key, (check, bound, default) in _EXPERIMENTS[command].items()}
    cfg = _section({"problem": (_tagged(_PROBLEMS), None, _REQUIRED),
                    "solver": (_SOLVER, None, {"method": "gd", "eta": 0.1, "T": 1000}),
                    "experiment": (experiment, None, {}),
                    "output": (_output(command), None, {})}, cfg, "")
    p = cfg["problem"]
    if p["kind"] == "operator" and p["mu"] > p["L"]:
        raise ConfigError(f"'problem.mu' must be <= 'problem.L', got {p['mu']} > {p['L']}")
    if p["kind"] == "game" and isinstance(p["dims"], list) and len(p["dims"]) != p["k"]:
        raise ConfigError(f"'problem.dims' must list {p['k']} sizes, got {len(p['dims'])}")
    if command == "bernstein" and p["kind"] != "game":
        raise ConfigError("bernstein requires 'problem.kind' = 'game'")
    kind = cfg["experiment"].get("kind", "gap")
    if kind != "gap" and p["kind"] != "game":
        raise ConfigError(f"'experiment.kind' {kind!r} requires 'problem.kind' = 'game'")
    _problem_domain(p)
    if seed_override is not None:
        p["seed"] = _value(int, _NONNEGATIVE, seed_override, "--seed")
    return cfg


def build_problem(cfg: dict):
    """Instance, its domain, and the noise model from a normalized config."""
    p = cfg["problem"]
    noise = NoiseModel(p["noise"]["kind"], p["noise"]["magnitude"])
    domain, margin = _problem_domain(p), p.get("interior_margin")
    if p["kind"] == "operator":
        problem = generate_operator(p["seed"], p["d"], p["mu"], p["L"],
                                    domain=domain, interior_margin=margin)
        return problem, domain, noise
    game = generate_game(p["seed"], p["k"], p["dims"], p["mu"], p["coupling"],
                         domain=domain, interior_margin=margin)
    return game, game.domain, noise


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating, np.integer))
                         else str(v) for v in row])
    _atomic_write(path, buf.getvalue())


def write_summary(path: str, command: str, cfg: dict, consts, results: dict,
                  bounds, started: float, workers: int) -> None:
    summary = {
        "config": cfg,
        "constants": {
            "mu": consts.mu, "L": consts.L, "K": consts.K, "D": consts.D,
            "per_player": [list(p) for p in consts.per_player],
        },
        "results": results,
        "bounds": bounds,
        "manifest": {
            "package_version": __version__,
            "command": command,
            "base_seed": cfg["problem"]["seed"],
            "workers": workers,
            "wall_clock_seconds": time.time() - started,
        },
    }
    text = json.dumps(summary, indent=2, sort_keys=True,
                      default=lambda o: o.tolist())  # numpy arrays and scalars
    _atomic_write(path, text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class _Outcome(NamedTuple):
    """What a subcommand's experiment hands back to `_run`."""

    results: dict
    # (n, n_source, n_is_dataset_size): the count the summary's bounds take
    # gamma at; an n_source of None leaves the bounds unlabelled
    count: tuple
    csv: Optional[tuple] = None      # (header, rows)
    violation: Optional[str] = None  # set when a measured value broke its bound


def _run(command: str, experiment, args) -> int:
    """One subcommand: load the config, build the problem, run `experiment`,
    write its CSV and summary, then report a bound violation."""
    started = time.time()
    cfg = load_config(args.config, command, args.seed)
    problem, domain, noise = build_problem(cfg)
    built = (problem, domain, noise, constants(problem, domain))
    sc = SolverConfig(**cfg["solver"])
    out = experiment(args, cfg, built, sc)
    if out.csv is not None:
        write_csv(os.path.join(args.out_dir, cfg["output"]["csv"]), *out.csv)
    n, source, dataset_size = out.count
    bounds = _bounds_at(n, sc, built)
    if source is not None:
        bounds.update(n=n, n_source=source, n_is_dataset_size=dataset_size)
    write_summary(os.path.join(args.out_dir, cfg["output"]["json"]), command, cfg, built[3],
                  out.results, bounds, started, args.workers)
    if out.violation:
        raise BoundViolationError(out.violation)
    return 0


def _bounds_at(n: int, sc: SolverConfig, built) -> dict:
    """Every applicable bound, with gamma taken at n."""
    problem, domain, noise, consts = built
    return dataclasses.asdict(evaluate_bounds(
        consts, stability_gamma(consts, n, sc.eta, noise, domain), domain, problem))


def cmd_solve(args, cfg, built, sc) -> _Outcome:
    problem, domain, noise, consts = built
    check_gd_eta(sc, consts)
    n = cfg["experiment"]["n"]
    X = sample_dataset(problem, noise, n, [cfg["problem"]["seed"], n, 0])
    traj = run(empirical_operator(problem, X), domain, sc)
    report = gap_report(problem, X, domain, traj.final)
    results = {
        "final": traj.final, "steps": traj.steps,
        "gap_report": dataclasses.asdict(report),
        "diagnostics": {
            "method": sc.method, "eta": sc.eta, "n": n,
            "gd_stability_range": in_gd_stability_range(sc.eta, consts.mu, consts.L),
            "contraction_bound": (gd_contraction_bound if sc.method == "gd"
                                  else eg_contraction_bound)(consts.mu, consts.L, sc.eta),
        },
    }
    return _Outcome(results, (n, None, None))


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


def cmd_contraction(args, cfg, built, sc) -> _Outcome:
    problem, domain, _noise, consts = built
    exp = cfg["experiment"]
    pairs = exp["pairs"]
    grid = [float(e) for e in exp["eta_grid"]] if "eta_grid" in exp else \
        _default_eta_grid(sc.method, consts.mu, consts.L)

    rng = np.random.default_rng(
        np.random.SeedSequence([cfg["problem"]["seed"]], spawn_key=(5,)))
    Z1 = domain.sample(rng, pairs)
    Z2 = domain.sample(rng, pairs)
    keep = np.linalg.norm(Z1 - Z2, axis=-1) > 1e-12
    Z1, Z2 = Z1[keep], Z2[keep]
    F = problem.as_operator()

    rows, details, violations = [], [], 0
    for eta in grid:
        measured = float(np.max(contraction_ratio(F, Z1, Z2, eta, sc.method)))
        if sc.method == "gd":
            bound = gd_contraction_bound(consts.mu, consts.L, eta)
            gated = True
        else:
            bound = eg_contraction_bound(consts.mu, consts.L, eta)
            gated = eg_contraction_coefficient(consts.mu, consts.L, eta) < 1.0
        violated = gated and measured > bound + 1e-9
        violations += int(violated)
        rows.append((eta, sc.method, measured, bound, int(Z1.shape[0])))
        details.append({"eta": eta, "measured_max_ratio": measured,
                        "theoretical_bound": bound, "gated": gated,
                        "violated": violated})
    return _Outcome(
        {"method": sc.method, "rows": details, "violations": violations},
        (pairs, "experiment.pairs", False),
        (["eta", "method", "measured_max_ratio", "theoretical_bound", "pairs"], rows),
        f"{violations} eta value(s) exceeded the contraction ceiling by > 1e-9"
        if violations else None)


def cmd_stability(args, cfg, built, sc) -> _Outcome:
    problem, domain, noise, consts = built
    n_grid = cfg["experiment"]["n_grid"]
    one_n = functools.partial(stability_experiment, problem, domain, sc,
                              trials=cfg["experiment"]["trials"],
                              seed=cfg["problem"]["seed"], noise=noise, consts=consts)
    per_n = [{"n": res.n, "divergences": res.divergences.tolist(), "bound": res.bound,
              "bound_informational": res.bound_informational,
              "bound_base_K": res.bound_base_K}
             for res in _parallel_map(one_n, n_grid, args.workers)]
    rows = [(b["n"], t, d) for b in per_n for t, d in enumerate(b["divergences"])]
    violations = sum(not b["bound_informational"] and max(b["divergences"]) > b["bound"] + 1e-12
                     for b in per_n)
    return _Outcome(
        {"method": sc.method, "per_n": per_n, "violations": violations},
        (n_grid[0], "experiment.n_grid[0]", True), (["n", "trial", "divergence"], rows),
        f"measured divergence exceeded the stability bound for {violations} n value(s)"
        if violations else None)


def cmd_sweep(args, cfg, built, sc) -> _Outcome:
    problem, domain, noise, consts = built
    exp = cfg["experiment"]
    n_grid, kind = exp["n_grid"], exp["kind"]
    fit_on = quantile_fit_on(exp["trials"], exp["delta"]) if exp["mode"] == "quantile" \
        else "mean"
    one_n = functools.partial(sweep_point, problem, domain, sc, noise,
                              trials=exp["trials"], seed=cfg["problem"]["seed"],
                              kind=kind, delta=exp["delta"], consts=consts)
    per_n = _parallel_map(one_n, n_grid, args.workers)
    slope, intercept, r2, fit_error = fit_sweep(per_n, fit_on)
    rows = [(row["n"], t, v, kind)
            for row in per_n for t, v in enumerate(row["values"])]

    bounds_per_n = []
    for row in per_n:
        entry = {**_bounds_at(row["n"], sc, built), "n": row["n"]}
        for key in ("simplex", "game"):
            if entry[key] is not None:
                entry[f"mean_over_{key}_bound"] = row["mean"] / entry[key]
        bounds_per_n.append(entry)

    if "svg" in cfg["output"]:
        series = [{"label": f"mean {kind}", "x": n_grid,
                   "y": [row["mean"] for row in per_n]}]
        if slope is not None:
            series.append({"label": f"fit slope {slope:.2f}", "line": True,
                           "x": n_grid,
                           "y": [math.exp(intercept) * n ** slope for n in n_grid]})
        # the problem-specific bound when there is one, else the covering bound
        key = next(k for k in ("game", "simplex", "covering") if bounds_per_n[0][k] is not None)
        series.append({"label": f"{key} bound", "line": True, "x": n_grid,
                       "y": [b[key] for b in bounds_per_n]})
        _atomic_write(os.path.join(args.out_dir, cfg["output"]["svg"]),
                      log_log_chart(series, title=f"{kind} vs dataset size",
                                    xlabel="n", ylabel=kind))
    results = {"kind": kind, "fit_on": fit_on, "per_n": per_n,
               "slope": slope, "intercept": intercept, "r_squared": r2,
               "fit_error": fit_error, "bounds_per_n": bounds_per_n}
    return _Outcome(results, (n_grid[0], "experiment.n_grid[0]", True),
                    (["n", "trial", "value", "kind"], rows))


def cmd_bernstein(args, cfg, built, sc) -> _Outcome:
    problem, _domain, noise, _consts = built
    exp = cfg["experiment"]
    res = bernstein_check(problem, noise, exp["z_samples"], exp["mc_samples"],
                          cfg["problem"]["seed"])
    return _Outcome(
        {"B": res.B, "mc_samples": res.mc_samples, "rows": res.rows,
         "violations": res.violations},
        (exp["mc_samples"], "experiment.mc_samples", False),
        (["sample_index", "lhs", "rhs", "B"],
         [(r["index"], r["lhs"], r["rhs"], res.B) for r in res.rows]),
        f"Bernstein condition violated at {res.violations} sample point(s)"
        if res.violations else None)


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
    "solve": functools.partial(_run, "solve", cmd_solve),
    "contraction": functools.partial(_run, "contraction", cmd_contraction),
    "stability": functools.partial(_run, "stability", cmd_stability),
    "sweep": functools.partial(_run, "sweep", cmd_sweep),
    "bernstein": functools.partial(_run, "bernstein", cmd_bernstein),
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
