"""Exception hierarchy shared across the package."""


class PdqError(Exception):
    """Base class for every error raised by this package."""


class InputError(PdqError, ValueError):
    """Malformed or out-of-contract arguments."""


class SingularPriorError(PdqError):
    """Prior density vanishes where a positive density is required."""


class DomainError(PdqError, ValueError):
    """Data values violate the domain a query type requires."""


class DegenerateProfileError(InputError):
    """A profile vector has zero norm, so cosine similarity is undefined."""


class WeightValidityError(InputError):
    """Derived query weights contain a zero entry."""


class InfeasibleTargetError(PdqError):
    """No modification of the sampled data can produce the requested output."""


class DegenerateScalingError(PdqError):
    """Selected weights sum to zero; the answer cannot be rescaled."""


class NoDataError(PdqError):
    """An answer was requested from an empty selection."""


class SolverError(PdqError):
    """An iterative solver failed to converge within its iteration budget."""


class SchemaError(PdqError):
    """A declared column is missing from a tabular file."""


class ParseError(PdqError):
    """A cell could not be parsed as a number."""


class EmptyDatasetError(PdqError):
    """A tabular file contains no usable rows."""


class ConfigError(PdqError):
    """An experiment configuration is inconsistent."""


class NonFiniteResultError(PdqError):
    """A run produced a float that is not finite, so no CSV is written."""
