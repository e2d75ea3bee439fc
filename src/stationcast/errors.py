"""Exception types shared across the package."""


class StationcastError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(StationcastError):
    """Operands disagree in shape where agreement is required."""


class ConfigurationError(StationcastError):
    """A configuration value is invalid or inconsistent."""


class ContractError(StationcastError):
    """An operation was called outside its contract."""


class IngestionError(StationcastError):
    """Raw data could not be parsed, validated, or imputed."""


class NumericalError(StationcastError):
    """A computation produced a non-finite or degenerate value."""


class InfiniteScoreError(NumericalError):
    """A perfect prediction makes the inverse-MSE score infinite."""


class UsageError(StationcastError):
    """Command line arguments are invalid or inconsistent."""
