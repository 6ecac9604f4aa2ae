"""Exception types shared across the package."""


class BuyholdError(Exception):
    """Base class for every error raised by this package."""


class SingularMatrixError(BuyholdError):
    """Best available pivot fell below the singularity threshold."""


class NumericalFailure(BuyholdError):
    """An iterative routine stalled or exceeded its iteration cap."""


class PreconditionViolated(BuyholdError):
    """An argument failed a documented precondition."""


class DimensionMismatch(BuyholdError):
    """Array shapes or index sets do not line up."""


class LengthMismatch(BuyholdError):
    """Vector lengths disagree."""


class NonPositiveEntry(BuyholdError):
    """A payoff matrix entry is zero, negative, or not finite."""


class ParseError(BuyholdError):
    """Malformed input data."""

    def __init__(self, reason, row=None, column=None):
        self.reason = reason
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{reason}{loc}")


class NonPositivePrice(ParseError):
    """A price is zero, negative, not finite or below the normal float range."""


class DuplicateDate(ParseError):
    """The same trading date appears twice."""
