"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: configuration problems exit with 1,
runtime/numeric problems with 2.
"""


class UnlearnkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(UnlearnkitError, ValueError):
    """Invalid configuration value, unknown method/generator, bad knob range."""


class ShapeError(UnlearnkitError, ValueError):
    """Array or vector dimensions do not line up."""


class DomainError(UnlearnkitError, ValueError):
    """Numeric argument outside a function's mathematical domain."""


class NumericError(UnlearnkitError, ArithmeticError):
    """Non-finite value encountered during computation."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


class BudgetError(UnlearnkitError, RuntimeError):
    """Unlearning exceeded its wall-clock budget."""


class InsufficientDataError(UnlearnkitError, ValueError):
    """Too few samples to compute a statistic reliably."""
