"""Exception hierarchy.

Grouped so the CLI can map failures onto exit codes, each group's
`exit_code`: configuration problems exit 1, data problems exit 2,
numerical problems exit 3.
"""


class TrafficNmfError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TrafficNmfError):
    """Invalid configuration or usage."""

    exit_code = 1


class DataError(TrafficNmfError):
    """Input data cannot be used as requested."""

    exit_code = 2


class NumericalError(TrafficNmfError):
    """A numerical routine received or produced invalid values."""

    exit_code = 3


class MissingInputError(DataError):
    """An input file does not exist or cannot be opened."""


class MissingColumnError(DataError):
    """The column mapping names a column absent from the header."""


class EmptyInputError(DataError):
    """No usable data rows."""


class HourBinMismatchError(DataError):
    """Two pattern sets do not share the same hour bins."""


class ZeroTotalError(DataError):
    """The reference period has a zero grand total, so percentage change is undefined."""


class InvalidRankError(ConfigError):
    """Requested factorization rank is outside 1..min(n_rows, n_cols)."""


class NonNegativityError(NumericalError):
    """A matrix that must be nonnegative contains a negative entry."""


class NonFiniteError(NumericalError):
    """A matrix that must be finite contains a NaN or infinite entry."""
