"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(ValueError):
    """An argument lies outside the supported domain."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class EnumerationBudgetError(ValueError):
    """Requested enumeration exceeds the exhaustive-search budget."""


class InsufficientDataError(ValueError):
    """Not enough usable data points for the requested estimate."""
