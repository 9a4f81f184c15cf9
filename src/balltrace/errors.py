"""Exception hierarchy shared across the package.

Each class carries the CLI's process exit code as the class attribute
exit_code, and subclasses inherit it: BalltraceError and UsageError -> 1
(bad flags or input documents), PreconditionError -> 2 (violated operation
preconditions and domain restrictions), NumericalError -> 3.  The CLI adds
the builtin cases (I/O -> 4, any other exception -> 5).  Library users can
catch the base class BalltraceError.
"""

from __future__ import annotations


class BalltraceError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class UsageError(BalltraceError):
    """Malformed invocation: bad flags or an unreadable input document."""


class SchemaError(UsageError):
    """Input document parsed but does not match the expected schema."""


class PreconditionError(BalltraceError):
    """An operation was called outside its stated precondition."""
    exit_code = 2


class DimensionMismatchError(PreconditionError):
    """Operands live in different ambient dimensions."""


class DominationError(PreconditionError):
    """Componentwise subtraction requested where the minuend does not dominate."""


class DomainError(PreconditionError):
    """Argument outside the mathematical domain (e.g. point not inside the ball)."""


class NumericalError(BalltraceError):
    """Numerical failure: singularity, divergence, lost convergence."""
    exit_code = 3


class SingularityError(NumericalError):
    """Kernel evaluated too close to its singular set."""


class DivergenceError(NumericalError):
    """Series evaluation requested where the series diverges."""


class ConvergenceError(NumericalError):
    """Requested tolerance not reachable within the implementation's order cap."""


class EvaluationError(NumericalError):
    """A black-box integrand produced a non-finite value.

    Carries the offending sample point in .point when available.
    """

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point
