"""vi-lab: experiments on strongly monotone variational inequalities.

Subcommands
-----------
solve        train on one sampled dataset, report a gap report
contraction  measured per-step contraction ratios vs closed-form ceilings
stability    neighbouring-dataset divergence vs the stability bound
sweep        generalization rate over dataset sizes (mode: mean or quantile)
bernstein    Bernstein-condition check on a quadratic game

Shared flags: --config PATH (JSON), --out-dir DIR, --workers N, --seed S.
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 bound violation.

Outputs are deterministic for a fixed config: CSV files are byte-identical
across runs and across --workers settings (stability and sweep draw each n's
trial datasets on up to --workers threads, default the CPUs this process may
use; trials are pure functions of (base_seed, n, trial) stacked in trial
order); wall-clock time appears only inside the JSON manifest. All files are
written atomically (temp + rename), with the mode the umask gives.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import time
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import (_BERNSTEIN, _STABILITY, _SWEEP, _SWEEP_KINDS, _WORKERS, _check_mode,
                       _default_workers, bernstein_check, evaluate_bounds, generalization_sweep,
                       stability_experiment, trial_dataset_seed)
from .charts import log_log_chart
from .domains import _RADIUS, _SIMPLEX_D, Ball, Box, Domain, Product, Simplex
from .errors import (_COUNT, _PAIR, _POSITIVE, _REQUIRED, BoundViolationError, ConfigError,
                     GenerationError, InfeasiblePointError, NumericalError, _section, _value)
from .gaps import gap_report
from .problems import (_DATASET_SIZE, _GAME, _MARGIN, _NOISE, _OPERATOR, _PLAYER_DIM, _SEED,
                       NoiseModel, _stream, _stream_states, constants, empirical_operator,
                       generate_game, generate_operator, sample_dataset, sampled_constants)
from .solvers import (_SOLVER, SolverConfig, _ceiling_gated, _default_eta_grid, _gd_margin,
                      check_gd_eta, contraction_bound, contraction_ratio, run)

# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------
# Tables of declarations (see errors). A key that a library entry point also
# takes is that module's declaration (solvers._SOLVER, problems._OPERATOR, ...);
# tagged kinds, list shapes, output names and relations between keys are the CLI's.


def _tagged(tables: dict):
    """Check for an object whose 'kind' names the table it is checked against."""
    def check(value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be an object")
        kind = _value((tuple(tables), None), value.get("kind"), f"{path}.kind")
        return _section({"kind": ((kind,), None, _REQUIRED), **tables[kind]}, value, path)
    return check


def _dims(value, path):
    """One size for every player, or a list of one size per player."""
    return _value(([_PLAYER_DIM], _COUNT) if isinstance(value, list) else _PLAYER_DIM, value, path)


_DOMAINS = {
    "simplex": {"d": _SIMPLEX_D},
    "ball": {"center": ([(float, None)], _COUNT, _REQUIRED), "radius": _RADIUS},
    "box": {"lower": ([(float, None)], _COUNT, _REQUIRED),
            "upper": ([(float, None)], _COUNT, _REQUIRED)},
}
_DOMAIN = _tagged(_DOMAINS)
_DOMAINS["product"] = {"factors": ([(_DOMAIN, None)], _COUNT, _REQUIRED)}

_INSTANCE = {"seed": _SEED, "noise": (_NOISE, None, {"kind": "offset", "magnitude": 0.0}),
             "interior_margin": _MARGIN}
_PROBLEMS = {
    "operator": {"d": _OPERATOR["d"], "mu": _OPERATOR["mu"], "L": _OPERATOR["L"],
                 "domain": (_DOMAIN, None, _REQUIRED), **_INSTANCE},
    "game": {"k": _GAME["k"], "dims": (_dims, None, _REQUIRED), "mu": _GAME["mu"],
             "coupling": _GAME["coupling"], "domain": (_DOMAIN, None, None), **_INSTANCE},
}
_EXPERIMENTS = {
    "solve": {"n": _DATASET_SIZE},
    "contraction": {"pairs": (int, _COUNT, 1000),
                    "eta_grid": ([(float, _POSITIVE)], _COUNT, None)},
    "stability": {"n_grid": ([_DATASET_SIZE], _COUNT, _REQUIRED), "trials": _STABILITY["trials"]},
    "sweep": {"n_grid": ([_DATASET_SIZE], _PAIR, _REQUIRED), **_SWEEP},
    "bernstein": _BERNSTEIN,
}


def _file_name(value, path):
    """A bare file name, so every output lands inside --out-dir."""
    name = _value((str, None), value, path)
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"'{path}' must be a bare file name, got {value!r}")
    return name


def _output(command: str) -> dict:
    """`command`'s output file names; only sweep draws a chart (svg)."""
    chart = {"svg": (_file_name, None, None)} if command == "sweep" else {}
    return {"csv": (_file_name, None, f"{command}.csv"),
            "json": (_file_name, None, f"{command}_summary.json"), **chart}


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
    if p["kind"] == "game":
        dims = p["dims"] if isinstance(p["dims"], list) else [p["dims"]] * p["k"]
        got = [f.dim for f in domain.factors] if isinstance(domain, Product) else \
            f"a {p['domain']['kind']} domain"
        if got != dims:
            raise ConfigError(f"'problem.domain' for a game must be a product of factors of "
                              f"dims {dims}, one per player, got {got}")
    if p["kind"] == "operator" and domain.dim != p["d"]:
        raise ConfigError(f"'problem.domain' has dim {domain.dim} but 'problem.d' is {p['d']}")
    return domain


def load_config(path: str, command: str, seed_override=None) -> dict:
    """The config file at `path`, checked by normalize_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, no permission, an I/O error
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return normalize_config(cfg, command, seed_override)


def normalize_config(cfg: dict, command: str, seed_override=None) -> dict:
    """A checked copy of `command`'s config `cfg` with defaults filled in."""
    cfg = _section({"problem": (_tagged(_PROBLEMS), None, _REQUIRED),
                    "solver": (_SOLVER, None, {"eta": 0.1, "T": 1000}),
                    "experiment": (_EXPERIMENTS[command], None, {}),
                    "output": (_output(command), None, {})}, cfg, "")
    p = cfg["problem"]
    if p["kind"] == "operator" and p["mu"] > p["L"]:
        raise ConfigError(f"'problem.mu' must be <= 'problem.L', got {p['mu']} > {p['L']}")
    if p["kind"] == "game" and isinstance(p["dims"], list) and len(p["dims"]) != p["k"]:
        raise ConfigError(f"'problem.dims' must list {p['k']} sizes, got {len(p['dims'])}")
    if command == "bernstein" and p["kind"] != "game":
        raise ConfigError("bernstein requires 'problem.kind' = 'game'")
    exp = cfg["experiment"]
    if _SWEEP_KINDS[exp.get("kind", "gap")] and p["kind"] != "game":
        raise ConfigError(f"'experiment.kind' {exp['kind']!r} requires 'problem.kind' = 'game'")
    if command == "sweep":  # the library's mode check, with its quantile trial floor
        _check_mode(exp["mode"], exp["trials"], exp["delta"])
    out = cfg["output"]  # one file per output: no write replaces another
    for a, b in itertools.combinations(out, 2):
        if out[a] == out[b]:
            raise ConfigError(f"'output.{a}' and 'output.{b}' name the same file {out[a]!r}")
    _problem_domain(p)
    if seed_override is not None:
        p["seed"] = _value(_SEED, seed_override, "--seed")
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
    """Write `text` to a new temp file beside `path` and rename it over `path`;
    the temp file is created with mode 0o666, so the umask sets the mode."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".vilab-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
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


def _run(command: str, args) -> int:
    """One subcommand: load the config, create --out-dir, build the problem
    and check its noise (sampled_constants), run its experiment, write its
    CSV and summary, then report a bound violation."""
    started = time.time()
    cfg = load_config(args.config, command, args.seed)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:  # a file, no permission, an I/O error
        raise ConfigError(f"cannot create --out-dir {args.out_dir}: "
                          f"{exc.strerror or exc}") from exc
    problem, domain, noise = build_problem(cfg)
    consts = constants(problem, domain)
    sampled_constants(consts, noise, domain)  # matrix noise that certifies no mu: exit 2
    built = (problem, domain, noise, consts)
    sc = SolverConfig(**cfg["solver"])
    out = _COMMANDS[command](args, cfg, built, sc)
    if out.csv is not None:
        write_csv(os.path.join(args.out_dir, cfg["output"]["csv"]), *out.csv)
    n, source, dataset_size = out.count
    bounds = evaluate_bounds(problem, domain, consts, noise, n, sc)
    if source is not None:
        bounds.update(n=n, n_source=source, n_is_dataset_size=dataset_size)
    write_summary(os.path.join(args.out_dir, cfg["output"]["json"]), command, cfg, consts,
                  out.results, bounds, started, args.workers)
    if out.violation:
        raise BoundViolationError(out.violation)
    return 0


def cmd_solve(args, cfg, built, sc) -> _Outcome:
    problem, domain, noise, consts = built
    w = check_gd_eta(sc, consts, noise, domain)  # what the empirical operator certifies
    n = cfg["experiment"]["n"]
    X = sample_dataset(problem, noise, n, trial_dataset_seed(cfg["problem"]["seed"], n, 0))
    emp = empirical_operator(problem, X)
    traj = run(emp, domain, sc)
    report = gap_report(problem, emp, domain, traj.final)
    results = {
        "final": traj.final, "steps": traj.steps,
        "gap_report": dataclasses.asdict(report),
        "diagnostics": {
            "method": sc.method, "eta": sc.eta, "n": n,
            "gd_stability_range": _gd_margin(w.mu, w.L, sc.eta) is not None,
            "contraction_bound": contraction_bound(sc.method, w.mu, w.L, sc.eta),
        },
    }
    return _Outcome(results, (n, None, None))


def cmd_contraction(args, cfg, built, sc) -> _Outcome:
    problem, domain, _noise, consts = built
    exp = cfg["experiment"]
    pairs = exp["pairs"]
    grid = [float(e) for e in exp["eta_grid"]] if "eta_grid" in exp else \
        _default_eta_grid(sc.method, consts.mu, consts.L)

    rng, = _stream(_stream_states([cfg["problem"]["seed"]], (5,)))
    Z1 = domain.sample(rng, pairs)
    Z2 = domain.sample(rng, pairs)
    keep = np.linalg.norm(Z1 - Z2, axis=-1) > 1e-12
    Z1, Z2 = Z1[keep], Z2[keep]

    rows, details, violations = [], [], 0
    for eta in grid:
        # the ceiling first: it raises before any step at an eta it cannot bound
        bound = contraction_bound(sc.method, consts.mu, consts.L, eta)
        measured = float(np.max(contraction_ratio(problem, Z1, Z2, eta, sc.method)))
        gated = _ceiling_gated(sc.method, bound)
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
    per_n = []
    for n in n_grid:
        res = stability_experiment(problem, domain, sc, n, cfg["experiment"]["trials"],
                                   cfg["problem"]["seed"], noise, args.workers)
        per_n.append({"n": n, "divergences": res.divergences.tolist(), "bound": res.bound,
                      "bound_base_K": res.bound_base_K})
    rows = [(b["n"], t, d) for b in per_n for t, d in enumerate(b["divergences"])]
    violations = sum(b["bound"] is not None and max(b["divergences"]) > b["bound"] + 1e-12
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
    res = generalization_sweep(problem, domain, sc, noise, n_grid, exp["trials"],
                               cfg["problem"]["seed"], kind, exp["delta"], exp["mode"],
                               args.workers)
    per_n = res.per_n
    rows = [(row["n"], t, v, kind)
            for row in per_n for t, v in enumerate(row["values"])]

    bounds_per_n = []
    for row in per_n:
        entry = {**evaluate_bounds(problem, domain, consts, noise, row["n"], sc),
                 "n": row["n"]}
        for key in ("simplex", "game"):
            if entry[key] is not None:
                entry[f"mean_over_{key}_bound"] = row["mean"] / entry[key]
        bounds_per_n.append(entry)

    if "svg" in cfg["output"]:
        series = [{"label": f"mean {kind}", "x": n_grid,
                   "y": [row["mean"] for row in per_n]}]
        if res.slope is not None:
            series.append({"label": f"fit slope {res.slope:.2f}", "line": True,
                           "x": n_grid,
                           "y": [math.exp(res.intercept) * n ** res.slope for n in n_grid]})
        # the problem-specific bound when there is one, else the covering bound
        key = next(k for k in ("game", "simplex", "covering") if bounds_per_n[0][k] is not None)
        series.append({"label": f"{key} bound", "line": True, "x": n_grid,
                       "y": [b[key] for b in bounds_per_n]})
        _atomic_write(os.path.join(args.out_dir, cfg["output"]["svg"]),
                      log_log_chart(series, title=f"{kind} vs dataset size",
                                    xlabel="n", ylabel=kind))
    results = {"kind": kind, "fit_on": res.fit_on, "per_n": per_n,
               "slope": res.slope, "intercept": res.intercept, "r_squared": res.r_squared,
               "fit_error": res.fit_error, "bounds_per_n": bounds_per_n}
    return _Outcome(results, (n_grid[0], "experiment.n_grid[0]", True),
                    (["n", "trial", "value", "kind"], rows))


def cmd_bernstein(args, cfg, built, sc) -> _Outcome:
    problem, _domain, noise, _consts = built
    exp = cfg["experiment"]
    res = bernstein_check(problem, noise, exp["z_samples"], exp["mc_samples"],
                          cfg["problem"]["seed"])
    return _Outcome(
        {"B": res.B, "mc_samples": exp["mc_samples"], "rows": res.rows,
         "violations": res.violations},
        (exp["mc_samples"], "experiment.mc_samples", False),
        (["sample_index", "lhs", "rhs", "B"],
         [(r["index"], r["lhs"], r["rhs"], res.B) for r in res.rows]),
        f"Bernstein condition violated at {res.violations} sample point(s)"
        if res.violations else None)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


_COMMANDS = {"solve": cmd_solve, "contraction": cmd_contraction, "stability": cmd_stability,
             "sweep": cmd_sweep, "bernstein": cmd_bernstein}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vi-lab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out-dir", default=".", help="directory for outputs")
        sp.add_argument("--workers", type=int, default=_default_workers(),
                        help="threads that draw the trials' datasets (default: the CPUs "
                             "this process may use; results are identical)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override problem.seed from the config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _value(_WORKERS, args.workers, "--workers")
        return _run(args.command, args)
    except (NumericalError, GenerationError, InfeasiblePointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # a ConfigError too
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
