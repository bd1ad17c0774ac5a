"""Exception types shared across the package."""


class RankdepError(Exception):
    """Base class for all errors raised by this package."""


class TiesPresent(RankdepError):
    """Tied values found in a column while the tie policy is Reject."""

    def __init__(self, column: int, value: float):
        self.column = column
        self.value = value
        super().__init__(f"tied value {value!r} in column {column}")


class LengthMismatch(RankdepError):
    """Two rank vectors passed to a pairwise statistic differ in length."""


class SampleTooSmall(RankdepError):
    """Sample size below the minimum required by the requested statistic."""


class ExactnessCeiling(RankdepError, ValueError):
    """Sample size above the largest n at which a pair statistic is exact."""


class DegenerateColumn(RankdepError):
    """A data column's variance is zero or not finite, so its correlations are undefined."""


class WrongArity(RankdepError):
    """Kernel evaluated on a tuple whose size is not the kernel degree."""


class UnknownConstant(RankdepError):
    """A required limiting constant is not available for this statistic."""


class DomainError(RankdepError):
    """Argument outside the domain of a calibration function."""


class InfeasibleSignal(RankdepError):
    """Requested signal level cannot be represented by the scatter family."""


class NotPositiveDefinite(RankdepError):
    """Scatter matrix is not positive definite."""


class ParseError(RankdepError):
    """Input file could not be parsed as a numeric data matrix."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where += f" at row {row}"
        if column is not None:
            where += f", column {column}"
        super().__init__(message + where)


class ConfigError(RankdepError):
    """Invalid run configuration (bad statistic name, alpha, reps, ...)."""
