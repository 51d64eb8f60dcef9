"""Every vilab name that the benchmark's span recorder traces exists.

bench/spans.py names the spans its metrics read ("analysis.generalization_sweep",
"domains.Ball.project", ...). Its Recorder wraps the public functions of each
vilab layer module, and the public methods of its classes, defined in that
module, so a span name exists only if it names one of those. A rename that
misses bench/spans.py would silently read 0 for a layer metric; this check
fails instead. bench/spans.py is read, never edited.
"""

import importlib
import importlib.util
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Names traced that no vilab callable provides: a span that
# bench/cli_traced.py opens around the CLI's import, and a function deleted
# from problems.py whose metric waits for the next benchmark change.
EXEMPT = {"cli.import", "problems.replace_record"}


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names(spans) -> set:
    names = set(spans.SELF_TIMES.values()) | set(spans._COUNT)
    for table in (spans.FUNCTION_TIMES, spans.CALL_COUNTS):
        names.update(n for group in table.values() for n in group)
    return names


def recordable_names(layers) -> set:
    """The span names the Recorder can open: one per public function, and per
    public method of a public class, defined in each layer module."""
    out = set()
    for layer in layers:
        mod = importlib.import_module(f"vilab.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.add(f"{layer}.{name}")
            elif inspect.isclass(obj):
                out.update(f"{layer}.{name}.{meth}" for meth, fn in vars(obj).items()
                           if not meth.startswith("_") and inspect.isfunction(fn))
    return out


def test_every_traced_name_resolves():
    spans = _spans_module()
    traced = traced_names(spans)
    assert len(traced) > len(EXEMPT)
    assert traced - recordable_names(spans.LAYERS) == EXEMPT
