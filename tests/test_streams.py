"""Every random stream of the library comes from problems._stream.

Draws are keyed by (seed, key) so that outputs repeat bit for bit. A
generator built by hand elsewhere could drift from that keying unseen, so
this check parses each src/vilab/*.py with ast and fails on any call of
default_rng, SeedSequence or Generator (bare or as an attribute, such as
np.random.default_rng) outside the body of problems._stream.
"""

import ast
import pathlib

import numpy as np
import pytest

from vilab.problems import _stream

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vilab"
MODULES = sorted(SRC.glob("*.py"))
CONSTRUCTORS = {"default_rng", "SeedSequence", "Generator"}


def stream_calls(source: str, home: str = "") -> list:
    """(line, name) of each generator-constructor call outside the function
    named `home` (empty: no function is exempt)."""
    tree = ast.parse(source)
    exempt = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == home for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CONSTRUCTORS:
                out.append((node.lineno, name))
    return sorted(out)


def test_checker_sees_constructor_calls():
    source = ("import numpy as np\nfrom numpy.random import Generator, PCG64\n"
              "def _stream(s):\n    return np.random.default_rng(np.random.SeedSequence(s))\n"
              "def other(s):\n    return np.random.default_rng(s)\n"
              "g = Generator(PCG64(0))\nh: np.random.Generator = g\n")
    assert stream_calls(source, "_stream") == [(6, "default_rng"), (7, "Generator")]
    assert stream_calls(source) == [(4, "SeedSequence"), (4, "default_rng"),
                                    (6, "default_rng"), (7, "Generator")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_streams_come_from_one_constructor(path):
    home = "_stream" if path.name == "problems.py" else ""
    assert stream_calls(path.read_text(encoding="utf-8"), home) == []


def test_empty_key_is_the_plain_seed_sequence():
    # key () draws what SeedSequence(seed) draws, the stream the instance
    # generators and spectral_norm take, and a spawn key keys it as numpy does
    for seed in (0, 7, [3, 5]):
        want = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(8)
        assert _stream(seed, ()).standard_normal(8).tobytes() == want.tobytes()
    want = np.random.default_rng(np.random.SeedSequence([3], spawn_key=(5,))).random(8)
    assert _stream([3], (5,)).random(8).tobytes() == want.tobytes()
