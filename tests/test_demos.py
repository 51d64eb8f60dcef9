"""Every example under demos/ still runs against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo), "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(tmp_path.iterdir())
