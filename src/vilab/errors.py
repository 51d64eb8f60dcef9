"""Failure types shared across the library.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericalError -> 3, BoundViolationError -> 4. Everything else is a bug.
"""


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
