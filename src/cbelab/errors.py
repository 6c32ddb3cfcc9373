"""Exception hierarchy shared across the package."""


class CbelabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CbelabError, ValueError):
    """An argument lies outside the mathematically admissible domain."""


class GridMismatchError(CbelabError, ValueError):
    """Two grid functions do not live on the same grid."""


class UnknownCaseError(CbelabError, KeyError):
    """Requested benchmark case id is not registered."""

    __str__ = Exception.__str__  # the plain message, not KeyError's quoted key


class NoExactReferenceError(CbelabError, LookupError):
    """The case has no closed-form reference for the requested quantity."""


class NoOracleError(CbelabError, LookupError):
    """No hard-coded closed-form series term for this (case, method, order)."""


class NumericalError(CbelabError, RuntimeError):
    """A numerical procedure failed or produced a non-finite intermediate result."""


class StiffnessError(NumericalError):
    """An adaptive Taylor stage of the time stepper fell below ten ulps of t."""


class DivergenceError(NumericalError):
    """Non-finite values appeared in the time stepper's Taylor rows or state."""
