"""Pin the reference outputs at the default seed into bench/reference/.

    PYTHONPATH=src python3 bench/pin_reference.py

Writes the stability divergences and sweep values of the two library
experiments (floats as repr, so they round-trip exactly) and the SHA-256 of
each sample config's CLI output. Run it only when a change is meant to alter
those outputs, and say so in the change.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads


def main() -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in workloads.LIBRARY:
        inst = workloads.setup(name, workloads.DEFAULT_SEED, smoke=False)
        ops = [[a.tolist() for a in workloads.output_arrays(name, op())]
               for op in workloads.operations(inst)]
        with open(workloads.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump({"seed": workloads.DEFAULT_SEED, "operations": ops}, fh)
            fh.write("\n")

    root = os.path.dirname(workloads.BENCH_DIR)
    out_root = os.path.join(workloads.BENCH_DIR, ".out")
    os.makedirs(out_root, exist_ok=True)
    hashes = {}
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        for stem, cmd in workloads.CLI_CONFIGS:
            out_dir = os.path.join(tmp, stem)
            subprocess.run([sys.executable, "-m", "vilab.cli", cmd, "--config",
                            os.path.join("configs", f"{stem}.json"), "--out-dir", out_dir,
                            "--workers", "1"], cwd=root, check=True)
            hashes[stem] = workloads.cli_output_digest(cmd, out_dir)
    with open(os.path.join(workloads.REFERENCE_DIR, "cli_sha256.json"), "w",
              encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
