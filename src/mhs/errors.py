"""Exception types shared across the package."""


class MhsError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(MhsError, ValueError):
    """An argument violates a documented precondition."""


class OutOfWindowError(MhsError):
    """Energy outside the oscillatory window of the rotational profile."""


class IntegrationFailureError(MhsError):
    """An integral along the profile failed its consistency check."""


class NoSolutionError(MhsError):
    """No profile curve exists for the requested rotation number."""


class ConvergenceError(MhsError):
    """Iterative root finding stagnated before reaching tolerance."""


class GenerationFailedError(MhsError):
    """A generated surface failed its minimality self-check."""


class DegenerateElementError(MhsError):
    """A mesh triangle has (numerically) zero area."""


class MeshFormatError(MhsError, ValueError):
    """A mesh JSON document violates the interchange schema."""


class NumericalFailureError(MhsError):
    """An eigenvalue solve or factorization broke down."""


class ShiftRetryExhaustedError(NumericalFailureError):
    """The shifted matrix stayed singular after jitter retries."""


class MultiplicityWarningError(NumericalFailureError):
    """The computed ground state changes sign: the ground level is
    numerically multiple, or not resolved as simple at this resolution."""
