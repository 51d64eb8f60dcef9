"""Self-checks of the benchmark at small sizes.

    python3 -m pytest -q bench

Not part of the repository's test suite (pyproject's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, seed, trace, cwd=ROOT, smoke=True):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, 0, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_non_default_seed_checks_invariants_only():
    proc = run_bench("experiments", 7, 0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench("experiments", 0, 0, cwd=str(tmp_path), smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_totals_self_time_and_unattributed():
    # root A [0, 10] holds child B [1, 4] which holds child B [2, 3]; root C
    # [11, 12] sits in the window [0, 14].
    recorded = [["problems.sample_dataset", 0.0, 10.0, -1],
                ["gaps.best_response", 1.0, 4.0, 0],
                ["gaps.best_response", 2.0, 3.0, 1],
                ["domains.Ball.project", 11.0, 12.0, -1]]
    t = spans.totals(recorded, {"problems.records_drawn": 5}, 0.0, 14.0)
    assert t["problems.self_s"] == 7.0
    assert t["gaps.self_s"] == 3.0
    assert t["gaps.best_response_s"] == 3.0          # outermost span only
    assert t["gaps.best_response_calls"] == 1
    assert t["domains.project_calls"] == 1
    assert t["unattributed_s"] == 3.0
    metrics = spans.derive(t)
    assert metrics["problems.records_per_s"] == 0.5
    assert metrics["unattributed_share"] == 3.0 / 14.0


def test_affine_step_cost_counts_matrix_once_when_shared():
    flop, nbytes = spans.affine_step_cost(d=2, batch=3, stacked=False, method="gd", steps=1)
    assert flop == 3 * (2 * 4 + 2 * 2)
    assert nbytes == 8 * 4 + 3 * 8 * 3 * 2
    flop_eg, _ = spans.affine_step_cost(d=2, batch=3, stacked=True, method="eg", steps=1)
    assert flop_eg == 2 * flop
