"""The errors this package raises, one type for each way a caller handles them."""


class PdqError(Exception):
    """Base class for every error raised by this package."""


class InputError(PdqError, ValueError):
    """An argument, config value, data file or data value the package cannot use."""


class SolverError(PdqError):
    """The input was valid, but the threshold solver gave up."""


class DegenerateScalingError(PdqError):
    """Selected weights sum to zero; the answer cannot be rescaled."""
