"""Exception types shared across the package."""


class LazyStatesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(LazyStatesError, ValueError):
    """A density matrix violates one of its structural invariants."""


class DimensionMismatchError(LazyStatesError, ValueError):
    """Operands disagree on subsystem dimensions or shapes.

    A malformed or out-of-range integer argument, such as a subsystem
    dimension of 2.5 or 0, is not a disagreement: it raises a plain
    ValueError naming the argument and its range.
    """


class UnphysicalFormError(LazyStatesError, ValueError):
    """A covariance matrix or standard form is not positive definite or fails
    the uncertainty relation nu_minus >= 1."""


class TruncationError(LazyStatesError, ArithmeticError):
    """A number-basis truncation drops too much trace to be trusted."""
