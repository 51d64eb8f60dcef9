"""Failure types shared across the library, and the one input rule.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericalError -> 3, BoundViolationError -> 4. Everything else is a bug.

`_checked` checks every scalar input, the CLI schema's and the library's:
a finite number (a real, not a bool, within float range), an integer (not
a bool), a boolean or a string, in an interval such as "(0, inf)"; or one
of a tuple of choices. Else ConfigError, e.g. `'eta' must be in (0, inf),
got -1.0`.
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
