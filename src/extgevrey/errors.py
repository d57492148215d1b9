"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage/domain problems
exit with 2, numerical failures with 3.
"""

__all__ = ["DivergenceError", "DomainError", "NumericalError", "RangeError", "UsageError"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(ValueError):
    """Index or parameter outside the admitted range."""


class UsageError(ValueError):
    """Malformed request (unknown condition identifier, bad grid spec, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost too much accuracy."""


class DivergenceError(NumericalError):
    """A supremum is unbounded on the search interval."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap
