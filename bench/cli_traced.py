"""One traced CLI invocation in a fresh interpreter.

    python bench/cli_traced.py SPANS.json <vilab.cli arguments>

Times `import vilab.cli` as the span `cli.import`, wraps vilab with
spans.Recorder, runs `vilab.cli.main`, writes the spans to SPANS.json and
prints their totals as one JSON line. Exits with main's exit code.
"""

import json
import os
import sys
import time

import spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    t0 = time.perf_counter()
    idx = recorder.open("cli.import", t0)
    import vilab.cli
    recorder.close(idx, time.perf_counter())

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    expected = os.path.join(os.path.dirname(bench_dir), "src", "vilab")
    if os.path.dirname(os.path.abspath(vilab.__file__)) != expected:
        print(f"vilab imported from {vilab.__file__}, expected {expected}", file=sys.stderr)
        return 2
    recorder.install()
    code = vilab.cli.main(argv)
    totals = spans.totals(recorder.spans, recorder.counts, t0, time.perf_counter())
    recorder.dump(spans_path)
    print(json.dumps({"layers": totals}))
    return code


if __name__ == "__main__":
    sys.exit(main())
