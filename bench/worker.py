"""One repetition of the `experiments` workload in a fresh interpreter.

    python bench/worker.py --seed N [--smoke] [--trace SPANS.json]

Sets up both library experiments, then runs their calls. Prints one JSON
line: set-up and wall time, operations attempted and failed with their
errors, whether outputs match the reference bitwise, and an output digest.
With --trace, vilab is wrapped by spans.Recorder, the spans are written to
SPANS.json and their totals are added to the line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
    import vilab

    expected = os.path.join(os.path.dirname(workloads.BENCH_DIR), "src", "vilab")
    if os.path.dirname(os.path.abspath(vilab.__file__)) != expected:
        print(f"vilab imported from {vilab.__file__}, expected {expected}", file=sys.stderr)
        return 2
    if recorder is not None:
        recorder.install()

    insts = [workloads.setup(name, args.seed, args.smoke) for name in workloads.LIBRARY]
    t1 = time.perf_counter()
    results = []
    for inst in insts:
        for op in workloads.operations(inst):
            try:
                results.append((inst["name"], op()))
            except Exception as exc:  # an operation failure is counted, not fatal
                results.append((inst["name"], exc))
    t2 = time.perf_counter()

    check_reference = args.seed == workloads.DEFAULT_SEED and not args.smoke
    references = {name: workloads.load_reference(name) if check_reference else None
                  for name in workloads.LIBRARY}
    errors, arrays, bitwise, failed = [], [], True, 0
    op_index = {name: 0 for name in workloads.LIBRARY}
    for name, res in results:
        i = op_index[name]
        op_index[name] += 1
        if isinstance(res, Exception):
            op_errors = [f"{type(res).__name__}: {res}"]
            bitwise = False
        else:
            op_arrays = workloads.output_arrays(name, res)
            arrays.extend(op_arrays)
            op_errors = workloads.invariant_errors(name, res)
            if references[name] is not None:
                close, same = workloads.compare(op_arrays, references[name][i])
                bitwise = bitwise and same
                if not close:
                    op_errors.append("output differs from the pinned reference")
        failed += bool(op_errors)
        errors.extend(f"{name} operation {i}: {e}" for e in op_errors)
    out = {"setup_s": t1 - T0, "wall_s": t2 - t1, "attempted": len(results),
           "failed": failed, "errors": errors,
           "bitwise": bitwise if check_reference else None,
           "digest": workloads.digest(arrays)}
    if recorder is not None:
        out["layers"] = spans.totals(recorder.spans, recorder.counts, t1, t2)
        recorder.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
