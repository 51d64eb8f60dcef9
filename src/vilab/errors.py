"""Failure types shared across the library, and the one input rule.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericalError -> 3, BoundViolationError -> 4. Everything else is a bug.

Each checked input is declared once, in a table of the module that takes
it, and the CLI's config schema is built from those declarations. A table
maps each key of an object to (check, bound, default). check: float, int,
bool or str, or a tuple of allowed strings; a nested table; a list holding
each element's declaration; or a function (value, path) -> value. bound:
an interval such as "(0, inf)" for a number or a list's length. default:
_REQUIRED, None (the key may be absent), or the value filled in.

One walker (`_section` for an object, `_value` for one value) checks them
and names a value by its path: "eta" in the library, "solver.eta" in the
CLI. At the leaves `_checked` is the one input rule: a finite number (a
real, not a bool, within float range), an integer (not a bool), a boolean
or a string, in its interval; or one of a tuple of choices. Else
ConfigError, e.g. `'eta' must be in (0, inf), got -1.0`.
"""

import numbers
import sys


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (unknown key, bad range, ...)."""


class NumericalError(RuntimeError):
    """Divergence, non-convergence, or a singular system at runtime."""


class BoundViolationError(RuntimeError):
    """A measured quantity exceeded a closed-form ceiling it must respect."""


class GenerationError(RuntimeError):
    """Instance generation could not meet its certificates within budget."""


class InfeasiblePointError(ValueError):
    """A point lies outside the domain beyond the allowed tolerance."""


_POSITIVE, _NONNEGATIVE, _COUNT, _PAIR = "(0, inf)", "[0, inf)", "[1, inf)", "[2, inf)"
_TYPES = {float: ("a finite number", numbers.Real), int: ("an integer", numbers.Integral),
          bool: ("a boolean", bool), str: ("a string", str)}
_REQUIRED = object()


def _within(bound: str, v) -> bool:
    lo, hi = (float(x) for x in bound[1:-1].split(","))
    return ((lo <= v) if bound[0] == "[" else (lo < v)) and \
        ((v <= hi) if bound[-1] == "]" else (v < hi))


def _checked(value, name: str, check, bound=None):
    """`value` if it is one of the tuple `check` or a `check` in `bound`; else ConfigError."""
    if isinstance(check, tuple):
        if value not in check:
            raise ConfigError(f"'{name}' must be one of {'/'.join(check)}, got {value!r}")
        return value
    what, kind = _TYPES[check]
    ok = isinstance(value, kind) and isinstance(value, bool) == (check is bool)
    if ok and check is float:  # finite: no NaN, no infinity, no int beyond float range
        ok = abs(value if isinstance(value, int) else float(value)) <= sys.float_info.max
    if not ok:
        raise ConfigError(f"'{name}' must be {what}, got {value!r}")
    if bound is not None and not _within(bound, value):
        raise ConfigError(f"'{name}' must be in {bound}, got {value}")
    return value


def _value(declaration, value, path: str):
    """`value` checked against one declaration; errors name `path`."""
    check, bound = declaration[:2]
    if isinstance(check, dict):
        return _section(check, value, path)
    if isinstance(check, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be a list")
        value = [_value(check[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        if bound is not None and not _within(bound, len(value)):
            raise ConfigError(f"'{path}' needs a length in {bound}, got {len(value)}")
        return value
    if not isinstance(check, (type, tuple)):
        return check(value, path)
    return _checked(value, path, check, bound)


def _section(spec: dict, value, path: str) -> dict:
    """A checked copy of the object at `path` (the root when empty): unknown
    keys rejected, missing ones reported, defaults filled in."""
    at = f"{path}." if path else ""
    if not isinstance(value, dict):
        raise ConfigError(f"'{path or 'config'}' must be an object")
    for key in value:
        if key not in spec:
            raise ConfigError(f"unknown config key '{at}{key}'")
    out = {}
    for key, declaration in spec.items():
        if key in value:
            out[key] = _value(declaration, value[key], at + key)
        elif declaration[2] is _REQUIRED:
            raise ConfigError(f"missing config key '{at}{key}'")
        elif declaration[2] is not None:
            out[key] = _value(declaration, declaration[2], at + key)
    return out
