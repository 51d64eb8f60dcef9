"""In-memory span recorder that traces vilab from the outside.

`Recorder.install()` wraps every public function and every public method of
the seven vilab modules and rebinds each wrapper under every name the
original is reachable by (``vilab.analysis.sample_dataset``,
``vilab.cli.build_problem``, ``Ball.project``, ...). A span is
``(name, start, end, parent)``; nothing is written until the run ends.

`totals()` reduces one process's spans to additive sums and `derive()`
turns summed totals into the per-layer metrics the benchmark reports.
Counts come from the wrapped calls' arguments and return values, never from
timing, so they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("problems", "analysis", "solvers", "gaps", "domains", "cli", "charts")

# Inclusive time of the outermost spans with these names (metric -> names).
FUNCTION_TIMES = {
    "problems.generate_s": ("problems.generate_operator", "problems.generate_game"),
    "problems.constants_s": ("problems.constants",),
    "problems.sample_dataset_s": ("problems.sample_dataset",),
    "problems.replace_record_s": ("problems.replace_record",),
    "gaps.gap_s": ("gaps.gap",),
    "gaps.weak_gap_s": ("gaps.weak_gap",),
    "gaps.potential_gap_s": ("gaps.potential_gap",),
    "gaps.best_response_s": ("gaps.best_response",),
    "solvers.run_s": ("solvers.run",),
    "cli.load_config_s": ("cli.load_config",),
    "cli.build_problem_s": ("cli.build_problem",),
    "cli.write_csv_s": ("cli.write_csv",),
    "cli.write_summary_s": ("cli.write_summary",),
    "charts.log_log_chart_s": ("charts.log_log_chart",),
    "cli.import_s": ("cli.import",),
}
# Self time (duration minus child spans) of these spans.
SELF_TIMES = {
    "analysis.stability_self_s": "analysis.stability_experiment",
    "analysis.sweep_self_s": "analysis.generalization_sweep",
}
# Number of outermost spans with these names.
CALL_COUNTS = {
    "problems.sample_dataset_calls": ("problems.sample_dataset",),
    "gaps.best_response_calls": ("gaps.best_response",),
}
COUNTERS = ("problems.records_drawn", "analysis.train_steps", "analysis.trial_steps",
            "analysis.step_flop_computed", "analysis.step_bytes_computed",
            "solvers.run_steps", "cli.csv_bytes")


def affine_step_cost(d: int, batch: int, stacked: bool, method: str, steps: int):
    """Computed (not measured) FLOP and bytes of `steps` batched affine steps.

    One operator evaluation on a batch of `batch` iterates of dimension d is
    F(Z) = Z M^T + b: 2 d^2 FLOP per iterate, reading M once (once per
    iterate when the matrices are stacked per trial), Z and b, and writing
    F(Z), all float64. The update Z - eta F adds 2 d FLOP per iterate. gd
    evaluates F once per step, eg twice.
    """
    evals = steps * (1 if method == "gd" else 2)
    matrix_bytes = 8 * d * d * (batch if stacked else 1)
    flop = evals * batch * (2 * d * d + 2 * d)
    nbytes = evals * (matrix_bytes + 3 * 8 * batch * d)
    return flop, nbytes


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _count_stability(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cfg, trials = a["config"], a["trials"]
    d = a["problem"].as_operator().dim
    batch = 2 * trials
    flop, nbytes = affine_step_cost(d, batch, a["noise"].kind == "matrix",
                                    cfg.method, cfg.T)
    return {"analysis.train_steps": cfg.T, "analysis.trial_steps": cfg.T * batch,
            "analysis.step_flop_computed": flop, "analysis.step_bytes_computed": nbytes}


def _count_sweep(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cfg, trials = a["config"], a["trials"]
    d = a["problem"].as_operator().dim
    steps = sum(row["train_steps"] for row in result.per_n)
    flop, nbytes = affine_step_cost(d, trials, a["noise"].kind == "matrix",
                                    cfg.method, steps)
    return {"analysis.train_steps": steps, "analysis.trial_steps": steps * trials,
            "analysis.step_flop_computed": flop, "analysis.step_bytes_computed": nbytes}


def _count_csv_bytes(fn, args, kwargs, result):
    return {"cli.csv_bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


_COUNT = {
    "problems.sample_dataset": lambda fn, a, k, r: {"problems.records_drawn": r.n},
    "problems.replace_record": lambda fn, a, k, r: {"problems.records_drawn": 1},
    "analysis.stability_experiment": _count_stability,
    "analysis.generalization_sweep": _count_sweep,
    "solvers.run": lambda fn, a, k, r: {"solvers.run_steps": r.steps},
    "cli.write_csv": _count_csv_bytes,
}


class Recorder:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def open(self, name: str, start: float) -> int:
        idx = len(self.spans)
        self.spans.append([name, start, None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float) -> None:
        self._stack.pop()
        self.spans[idx][2] = end

    def wrap(self, name: str, fn):
        counter = _COUNT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, clock())
            if counter is not None:
                for key, v in counter(fn, args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + v
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of every vilab layer module that is
        imported."""
        mods = [sys.modules[f"vilab.{m}"] for m in LAYERS if f"vilab.{m}" in sys.modules]
        holders = mods + [sys.modules["vilab"]]
        for mod in mods:
            layer = mod.__name__.split(".")[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self.wrap(f"{layer}.{name}", obj)
                    for holder in holders:
                        for attr, val in list(vars(holder).items()):
                            if val is obj:
                                setattr(holder, attr, new)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        new = self.wrap(f"{layer}.{name}.{meth}", fn)
                        for attr, val in list(vars(obj).items()):
                            if val is fn:   # aliases such as __call__ = evaluate
                                setattr(obj, attr, new)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _outermost(spans, idx: int) -> bool:
    name, parent = spans[idx][0], spans[idx][3]
    while parent != -1:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def _is_project(name: str) -> bool:
    return name.startswith("domains.") and name.endswith(".project")


def totals(spans, counts, window_start: float, window_end: float) -> dict:
    """Additive per-process sums: layer self times, outermost inclusive
    times and call counts, counters, and the part of the timed window
    [window_start, window_end] that no root span covers."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent != -1:
            child_time[parent] += end - start
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for key in (*FUNCTION_TIMES, *SELF_TIMES, *CALL_COUNTS, *COUNTERS,
                "domains.project_s", "domains.project_calls"):
        out[key] = 0
    by_name = {}
    for key, names in FUNCTION_TIMES.items():
        for n in names:
            by_name.setdefault(n, []).append(("time", key))
    for key, names in CALL_COUNTS.items():
        for n in names:
            by_name.setdefault(n, []).append(("calls", key))
    self_by_name = {n: key for key, n in SELF_TIMES.items()}
    covered = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[idx]
        out[f"{name.split('.')[0]}.self_s"] += self_s
        if parent == -1 and start >= window_start:
            covered += dur
        if name in self_by_name:
            out[self_by_name[name]] += self_s
        targets = by_name.get(name, [])
        if _is_project(name):
            targets = targets + [("time", "domains.project_s"),
                                 ("calls", "domains.project_calls")]
        if targets and _outermost(spans, idx):
            for what, key in targets:
                out[key] += dur if what == "time" else 1
    for key, v in counts.items():
        out[key] += v
    out["window_s"] = window_end - window_start
    out["unattributed_s"] = out["window_s"] - covered
    return out


def unit(metric: str) -> str:
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_flop_computed"):
        return "flop"
    if metric.endswith("_bytes_computed") or metric.endswith("_bytes"):
        return "bytes"
    return "count"


def add(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def derive(t: dict) -> dict:
    """Per-layer metrics from summed totals (ratios are taken after summing)."""
    out = {k: v for k, v in t.items() if k != "window_s"}
    records_s = t["problems.sample_dataset_s"] + t["problems.replace_record_s"]
    out["problems.records_per_s"] = t["problems.records_drawn"] / records_s if records_s else 0.0
    train_s = t["analysis.stability_self_s"] + t["analysis.sweep_self_s"]
    out["analysis.trial_steps_per_s"] = t["analysis.trial_steps"] / train_s if train_s else 0.0
    out["unattributed_share"] = t["unattributed_s"] / t["window_s"] if t["window_s"] else 0.0
    return out
