"""Workload inputs, operations and correctness checks.

The `experiments` workload runs both library experiments below, one after
the other, in a fresh worker process (worker.py); `cli_configs` runs the CLI
in fresh subprocesses (run.py). Every input is a function of
the workload seed. Seed 0, the default, reproduces the pinned reference
outputs in reference/.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
DEFAULT_SEED = 0

# Relative tolerance for a non-bitwise match against the reference arrays.
REFERENCE_RTOL = 1e-8

LIBRARY = {
    "stability_matrix": {
        "full": {"d": 4, "ns": (16, 256, 4096), "trials": 200, "T": 2000},
        "smoke": {"d": 4, "ns": (16, 64), "trials": 20, "T": 200},
    },
    "sweep_highdim": {
        "full": {"d": 200, "ns": (16, 64, 256), "trials": 400},
        "smoke": {"d": 20, "ns": (16, 64), "trials": 20},
    },
}

# (config file stem, CLI subcommand); each runs at --workers 1, and the
# POOL_CONFIGS run again at --workers 2.
CLI_CONFIGS = (
    ("bernstein_game", "bernstein"),
    ("contraction_ball", "contraction"),
    ("solve_ball", "solve"),
    ("stability_ball", "stability"),
    ("sweep_game", "sweep"),
    ("sweep_simplex", "sweep"),
)
POOL_CONFIGS = ("stability_ball", "sweep_game", "sweep_simplex")


# ---------------------------------------------------------------------------
# library experiments
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, smoke: bool) -> dict:
    """Instance generation and constants: the set-up a user pays once."""
    import vilab

    spec = LIBRARY[name]["smoke" if smoke else "full"]
    d = spec["d"]
    domain = vilab.Ball(np.zeros(d), 1.0)
    if name == "stability_matrix":
        problem = vilab.generate_operator(seed, d, 0.8, 1.6, domain)
    else:
        # The default margin cannot place a root at this d (see
        # default_margin_failures), so it is passed explicitly.
        problem = vilab.generate_operator(seed, d, 0.5, 2.0, domain, interior_margin=0.01)
    consts = vilab.constants(problem, domain)
    return {"name": name, "spec": spec, "seed": seed, "problem": problem,
            "domain": domain, "constants": consts}


def operations(inst: dict) -> list:
    """The timed experiment calls, one thunk per operation."""
    import vilab

    spec, seed = inst["spec"], inst["seed"]
    problem, domain = inst["problem"], inst["domain"]
    if inst["name"] == "stability_matrix":
        cfg = vilab.SolverConfig("gd", 0.25, spec["T"])
        noise = vilab.NoiseModel("matrix", 0.2)
        return [lambda n=n: vilab.stability_experiment(problem, domain, cfg, n,
                                                       spec["trials"], seed, noise)
                for n in spec["ns"]]
    cfg = vilab.SolverConfig("gd", 0.1, 1000, projected=True)
    noise = vilab.NoiseModel("offset", 0.2)
    return [lambda: vilab.generalization_sweep(problem, domain, cfg, noise, spec["ns"],
                                               spec["trials"], seed, kind="gap")]


def operation_count(smoke: bool) -> int:
    """Experiment calls in one repetition of `experiments`."""
    return len(LIBRARY["stability_matrix"]["smoke" if smoke else "full"]["ns"]) + 1


def output_arrays(name: str, result) -> list:
    """The arrays an operation's correctness is judged on."""
    if name == "stability_matrix":
        return [result.divergences]
    return [row["values"] for row in result.per_n]


def invariant_errors(name: str, result) -> list:
    """Checks that hold for every seed."""
    errors = []
    for arr in output_arrays(name, result):
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            errors.append("non-finite or negative output")
    if name == "stability_matrix":
        if float(np.max(result.divergences)) > result.bound + 1e-12:
            errors.append(f"divergence exceeds the gd stability bound {result.bound}")
    elif result.failures:
        errors.append(f"sweep training failures: {result.failures}")
    return errors


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str) -> list:
    """One list of arrays per operation, as pinned by pin_reference.py."""
    with open(reference_path(name), encoding="utf-8") as fh:
        ops = json.load(fh)["operations"]
    return [[np.asarray(a, dtype=float) for a in op] for op in ops]


def compare(arrays: list, reference: list):
    """(matches within REFERENCE_RTOL, matches bitwise)."""
    if len(arrays) != len(reference) or any(a.shape != r.shape
                                            for a, r in zip(arrays, reference)):
        return False, False
    bitwise = all(np.array_equal(a, r) for a, r in zip(arrays, reference))
    close = all(np.allclose(a, r, rtol=REFERENCE_RTOL, atol=0.0)
                for a, r in zip(arrays, reference))
    return close, bitwise


def digest(arrays: list) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def default_margin_failures(seed: int) -> int:
    """One attempt at the sweep_highdim instance with the default interior
    margin; 1 if generation fails, else 0."""
    import vilab

    d = LIBRARY["sweep_highdim"]["full"]["d"]
    try:
        vilab.generate_operator(seed, d, 0.5, 2.0, vilab.Ball(np.zeros(d), 1.0))
    except vilab.GenerationError:
        return 1
    return 0


# ---------------------------------------------------------------------------
# cli_configs
# ---------------------------------------------------------------------------


def cli_invocations() -> list:
    """(config stem, subcommand, workers) in run order."""
    runs = [(stem, cmd, 1) for stem, cmd in CLI_CONFIGS]
    runs += [(stem, cmd, 2) for stem, cmd in CLI_CONFIGS if stem in POOL_CONFIGS]
    return runs


def cli_seed(root: str, stem: str, seed: int):
    """The --seed to pass: None (the config's own seed) at the default seed,
    else the config's seed shifted by the workload seed."""
    if seed == DEFAULT_SEED:
        return None
    with open(os.path.join(root, "configs", f"{stem}.json"), encoding="utf-8") as fh:
        base = json.load(fh)["problem"].get("seed", 0)
    return base + seed


def cli_output_digest(cmd: str, out_dir: str) -> str:
    """SHA-256 of the CSV the command writes. `solve` writes no CSV, so its
    summary JSON is hashed without the manifest, which holds wall time."""
    if cmd != "solve":
        with open(os.path.join(out_dir, f"{cmd}.csv"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "solve_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.pop("manifest")
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_cli_reference() -> dict:
    with open(os.path.join(REFERENCE_DIR, "cli_sha256.json"), encoding="utf-8") as fh:
        return json.load(fh)
