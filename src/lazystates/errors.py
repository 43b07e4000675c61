"""Exception types shared across the package."""


class LazyStatesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(LazyStatesError, ValueError):
    """A density matrix violates one of its structural invariants."""


class DimensionMismatchError(LazyStatesError, ValueError):
    """Operands disagree on subsystem dimensions or shapes."""


class UnphysicalFormError(LazyStatesError, ValueError):
    """A covariance matrix or standard form fails the uncertainty relation."""


class TruncationError(LazyStatesError, ArithmeticError):
    """A number-basis truncation drops too much trace to be trusted."""
