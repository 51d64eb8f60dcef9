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
from hypothesis import given, settings
from hypothesis import strategies as st

from vilab.problems import _stream, _stream_states

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
        assert next(_stream(_stream_states([seed], ()))).standard_normal(8).tobytes() \
            == want.tobytes()
    want = np.random.default_rng(np.random.SeedSequence([3], spawn_key=(5,))).random(8)
    assert next(_stream(_stream_states([[3]], (5,)))).random(8).tobytes() == want.tobytes()


SEEDS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5]),
                  st.lists(st.one_of(st.just(0), st.integers(0, 2 ** 32 - 1),
                                     st.integers(0, 2 ** 100)), min_size=1, max_size=6))
KEYS = [(), (0,), (1,), (9,), (11,), (13,), (5,), (0, 1)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=8), key=st.sampled_from(KEYS),
       draw=st.sampled_from(["standard_normal", "random", "integers"]))
def test_bulk_streams_draw_what_numpy_draws(seeds, key, draw):
    # one seeding pass over rows of every width (words past the pool of 4
    # included) gives, row by row, the draws of numpy's own constructor
    args = (1000,) if draw == "integers" else ()
    got = [getattr(rng, draw)(*args, size=7).tobytes()
           for rng in _stream(_stream_states(seeds, key))]
    want = [getattr(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)),
                    draw)(*args, size=7).tobytes() for seed in seeds]
    assert got == want
