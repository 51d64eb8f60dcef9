"""Every example under demos/ and in README.md still runs against the library."""

import os
import re
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


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(_readme_python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_readme_python_blocks())))
def test_readme_block_runs(index, capsys):
    exec(compile(_readme_python_blocks()[index], f"README.md block {index}", "exec"), {})
    assert capsys.readouterr().out
