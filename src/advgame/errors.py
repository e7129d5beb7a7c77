"""Exception hierarchy shared across the package."""


class AdvGameError(Exception):
    """Base class for all package errors."""


class InvalidInput(AdvGameError, ValueError):
    """Malformed or out-of-contract argument."""


class WrongType(InvalidInput):
    """A field of a serialized object holds a value of the wrong type or shape."""

    def __init__(self, key: str, value):
        super().__init__(f"{key} has the wrong type or shape: {value!r}")
        self.key, self.value = key, value


class DimensionMismatch(InvalidInput):
    """Point dimension does not match the object it is used with."""


class UnsupportedDimension(AdvGameError):
    """Operation only defined for low-dimensional inputs (d <= 1 or d <= 2)."""


class UnsupportedKind(AdvGameError):
    """Hypothesis / attack kind not supported by the requested operation."""


class BudgetViolation(AdvGameError):
    """An attack moved a point farther than its budget allows."""


class ConfigError(AdvGameError, ValueError):
    """Invalid experiment or game configuration."""


class TheoremRangeError(ConfigError):
    """Parameter outside the admissible interval of the theorem being checked."""
