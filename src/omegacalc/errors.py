"""Exception hierarchy shared by all omegacalc modules."""


class OmegaError(Exception):
    """Base class for every math-level error raised by this library."""


class DivisionByZero(OmegaError):
    """Inversion or division where the divisor is exactly zero."""


class TruncationUnderflow(OmegaError):
    """An operation left no exactly-known coefficient in its result."""


class IndistinguishableAtTruncation(OmegaError):
    """All known coefficients agree but unknown tails could still differ.

    Raised instead of guessing an ordering; callers can retry at a
    higher working order.  ``known_through`` is the last o-exponent
    known on the side or sides tested, or None where no such exponent
    exists: a rerun with ``--order`` greater than it can decide the
    question.
    """

    def __init__(self, message: str, *, known_through: int | None = None):
        super().__init__(message)
        self.known_through = known_through


class NotInRo(OmegaError):
    """Operation defined only for finite values (no negative o-powers)."""


class OrderExceedsKnown(OmegaError):
    """Truncation requested beyond the exactly-known range."""


class NonRepresentableBase(OmegaError):
    """A fractional power whose leading value is irrational."""


class DomainError(OmegaError):
    """Argument outside the mathematical domain of the operation."""


class NoStabilization(OmegaError):
    """A sequence's leading moments did not settle within the step budget."""


class PredecessorOfZero(OmegaError):
    """predecessor(0) is undefined on the nonnegative integers."""


class OutOfDomain(OmegaError):
    """Value outside the domain of a grid/integer correspondence map."""


class NotInfinitesimal(OmegaError):
    """A displacement that must be infinitesimal is not."""


class UnsupportedBasePoint(OmegaError):
    """Named function has no exact rational coefficient stream there,
    or no builtin has that name."""


class SingularDerivative(OmegaError):
    """Coefficientwise solving needs a nonzero standard derivative."""


class SeedMismatch(OmegaError):
    """The seed's standard image does not match the target's."""


class IndexOutOfRange(OmegaError):
    """Coefficient-table index outside the table's domain."""
