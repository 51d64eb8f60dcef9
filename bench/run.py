"""vi-lab benchmark: one workload, repeated in fresh processes for --seconds.

    python3 bench/run.py --workload {experiments,cli_configs}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the repository root is the parent of this directory and
vilab is imported from its src/ (nothing is installed). Every repetition is
a fresh interpreter. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1 (see
README.md). The full result and run record go to bench/.out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spans
import workloads

BENCH_DIR = workloads.BENCH_DIR
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, ".out")
DEADLINE_S = 170.0   # every run must end within 180 s
WORKLOADS = ("experiments", "cli_configs")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import vilab.cli; "
                "print(time.perf_counter() - t)")


class Runner:
    """Spawns children with vilab on their path and collects their usage."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old
        self.count = 0

    def spawn(self, argv: list) -> dict:
        """Run argv to completion: exit code, wall time, peak RSS (MiB, the
        child and its own children) and captured output."""
        self.count += 1
        out_path = os.path.join(self.tmp, f"child{self.count}.out")
        err_path = os.path.join(self.tmp, f"child{self.count}.err")
        lock, done = threading.Lock(), []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)

            def kill():
                with lock:
                    if not done:
                        proc.kill()

            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                with lock:
                    done.append(True)
                    proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {"exit": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}


def last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def median_dict(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def repeat(args, start: float, untraced, traced):
    """Untraced repetitions (alternating with traced ones under --trace 1)
    until the next one would, at the mean pace so far, end after --seconds."""
    plain, done = [], []
    while True:
        if args.trace and len(plain) > len(done):
            done.append(traced(len(done)))
        else:
            plain.append(untraced())
        count = len(plain) + len(done)
        elapsed = time.perf_counter() - start
        if (done or not args.trace) and elapsed * (count + 1) / count > args.seconds:
            return plain, done


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def library_rep(runner: Runner, args, trace_path=None) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    if trace_path:
        argv += ["--trace", trace_path]
    child = runner.spawn(argv)
    rep = last_json(child["stdout"]) if child["exit"] == 0 else None
    if rep is None:
        ops = workloads.operation_count(args.smoke)
        return {"ok": False, "attempted": ops, "failed": ops, "digest": None,
                "errors": [f"worker exit {child['exit']}: {child['stderr'][-2000:]}"]}
    rep.update(ok=True, rss_mb=child["rss_mb"])
    return rep


def run_library(runner: Runner, args, start: float) -> dict:
    trace_dir = os.path.join(OUT_DIR, f"spans-{args.workload}")
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    plain, traced = repeat(
        args, start, lambda: library_rep(runner, args),
        lambda k: library_rep(runner, args, os.path.join(trace_dir, f"rep{k}.json")))
    reps = plain + traced
    digests = [r["digest"] for r in reps if r["ok"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    for r in reps:
        if r["ok"] and r["digest"] != digests[0] and not r["failed"]:
            failed += r["attempted"]
            errors.append("outputs differ between repetitions of the same seed")
    good = [r for r in plain if r["ok"]]
    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "repetitions": {"untraced": len(plain), "traced": len(traced)},
              "bitwise_reference_match": (all(r["bitwise"] for r in good)
                                          if good and good[0]["bitwise"] is not None else None)}
    if good:
        result["samples"] = {"setup_s": [r["setup_s"] for r in good],
                             "wall_s": [r["wall_s"] for r in good],
                             "peak_rss_mb": [r["rss_mb"] for r in good]}
    traced_ok = [r for r in traced if r["ok"]]
    if args.trace and good and traced_ok:
        layers = median_dict([spans.derive(r["layers"]) for r in traced_ok])
        layers["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced_ok)
                                      - statistics.median(r["wall_s"] for r in good))
        layers["cli.pool_s"] = 0.0
        result["per_layer"] = layers
    return result


# ---------------------------------------------------------------------------
# cli_configs
# ---------------------------------------------------------------------------


def cli_rep(runner: Runner, args, reference, traced_dir=None) -> dict:
    """The nine invocations (only the six --workers 1 ones when traced)."""
    rep_dir = tempfile.mkdtemp(dir=runner.tmp)
    rep = {"walls": {}, "digests": {}, "errors": [], "attempted": 0, "failed": 0,
           "rss_mb": 0.0, "layers": None}
    if traced_dir is None:
        probe = runner.spawn([sys.executable, "-c", IMPORT_PROBE])
        rep["setup_s"] = float(probe["stdout"]) if probe["exit"] == 0 else None
    for stem, cmd, workers in workloads.cli_invocations():
        if traced_dir is not None and workers != 1:
            continue
        out_dir = os.path.join(rep_dir, f"{stem}-w{workers}")
        cli_args = [cmd, "--config", os.path.join("configs", f"{stem}.json"),
                    "--out-dir", out_dir, "--workers", str(workers)]
        seed = workloads.cli_seed(ROOT, stem, args.seed)
        if seed is not None:
            cli_args += ["--seed", str(seed)]
        if traced_dir is None:
            argv = [sys.executable, "-m", "vilab.cli"] + cli_args
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"),
                    os.path.join(traced_dir, f"{stem}.json")] + cli_args
        child = runner.spawn(argv)
        key = (stem, workers)
        rep["attempted"] += 1
        rep["walls"][key] = child["wall_s"]
        rep["rss_mb"] = max(rep["rss_mb"], child["rss_mb"])
        error = None
        if child["exit"] != 0:
            error = f"exit {child['exit']}: {child['stderr'][-2000:]}"
        else:
            error = check_cli_output(rep, key, cmd, out_dir, reference)
        if traced_dir is not None and error is None:
            layers = (last_json(child["stdout"]) or {}).get("layers")
            if layers is None:
                error = "traced invocation printed no span totals"
            else:
                rep["layers"] = layers if rep["layers"] is None else spans.add(rep["layers"], layers)
        if error:
            rep["failed"] += 1
            rep["errors"].append(f"{stem} --workers {workers}: {error}")
    shutil.rmtree(rep_dir)
    return rep


def check_cli_output(rep: dict, key: tuple, cmd: str, out_dir: str, reference):
    """Hash the invocation's output into rep; return an error or None."""
    stem, workers = key
    try:
        digest = rep["digests"][key] = workloads.cli_output_digest(cmd, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if reference is not None and digest != reference[stem]:
        return "output hash differs from the pinned hash"
    if workers != 1 and digest != rep["digests"].get((stem, 1)):
        return "--workers 2 output differs from --workers 1"
    return None


def run_cli(runner: Runner, args, start: float) -> dict:
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = workloads.load_cli_reference()
    trace_dir = os.path.join(OUT_DIR, "spans-cli_configs")
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)

    def traced_rep(k):
        rep_dir = os.path.join(trace_dir, f"rep{k}")
        os.makedirs(rep_dir)
        return cli_rep(runner, args, reference, rep_dir)

    plain, traced = repeat(args, start, lambda: cli_rep(runner, args, reference), traced_rep)
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    first = plain[0]["digests"]
    for r in reps:
        for key, digest in r["digests"].items():
            if key in first and digest != first[key]:
                failed += 1
                errors.append(f"{key[0]} --workers {key[1]}: output differs between repetitions")
    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "repetitions": {"untraced": len(plain), "traced": len(traced)}}
    setups = [r["setup_s"] for r in plain if r["setup_s"] is not None]
    if setups:
        result["samples"] = {"setup_s": setups,
                             "wall_s": [sum(r["walls"].values()) for r in plain],
                             "peak_rss_mb": [r["rss_mb"] for r in plain]}
    traced_ok = [r for r in traced if not r["failed"]]
    if args.trace and traced_ok:
        layers = median_dict([spans.derive(r["layers"]) for r in traced_ok])

        def w1_wall(r):
            return sum(w for (stem, workers), w in r["walls"].items() if workers == 1)

        layers["trace_overhead_s"] = (statistics.median(w1_wall(r) for r in traced_ok)
                                      - statistics.median(w1_wall(r) for r in plain))
        layers["cli.pool_s"] = statistics.median(
            sum(r["walls"][(s, 2)] - r["walls"][(s, 1)] for s in workloads.POOL_CONFIGS)
            for r in plain)
        result["per_layer"] = layers
    return result


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD from the .git directory, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small library sizes, for the benchmark's own tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "vilab", "__init__.py")):
        print(f"no vilab sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = Runner(tmp, time.monotonic() + DEADLINE_S)
        run = run_cli if args.workload == "cli_configs" else run_library
        result = run(runner, args, start)
    if "samples" not in result or (args.trace and "per_layer" not in result):
        print("no repetition completed:\n" + "\n".join(result["errors"]), file=sys.stderr)
        return 1
    result["end_to_end"] = {k: statistics.median(v) for k, v in result["samples"].items()}
    if args.trace:
        result["per_layer"]["problems.default_margin_generate_failures"] = \
            default_margin_failures(args.seed)
    result["record"] = run_record(args)
    result["failed_share"] = result["failed"] / result["attempted"]
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={result['repetitions']}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_share':<14} {result['failed_share']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    if result.get("bitwise_reference_match") is not None:
        print(f"  bitwise match with the pinned reference: {result['bitwise_reference_match']}")
    for err in result["errors"]:
        print(f"  error: {err}")
    print("record " + json.dumps(result["record"], sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": spans.unit(k)}
                   for k, v in sorted(result["per_layer"].items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def default_margin_failures(seed: int) -> int:
    """Untimed probe, in a fresh process like every other vilab call."""
    code = (f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import workloads; "
            f"print(workloads.default_margin_failures({seed}))")
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        child = Runner(tmp, time.monotonic() + 60.0).spawn([sys.executable, "-c", code])
    return int(child["stdout"]) if child["exit"] == 0 else -1


if __name__ == "__main__":
    sys.exit(main())
