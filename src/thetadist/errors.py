"""Exception hierarchy shared across the package."""


class ThetadistError(Exception):
    """Base class for all package errors."""


class PrecisionTooLow(ThetadistError):
    """A result needs more precision than the computation kept."""


class ConfigRejected(ThetadistError):
    """A configuration violates a validity or budget constraint."""


class HypothesisViolated(ThetadistError):
    """A hypothesis required by the bound assembly does not hold."""


class BudgetExceeded(ThetadistError):
    """An enumeration or evaluation budget guard fired."""


class InvalidInput(ThetadistError):
    """An argument is outside the domain of the operation."""


class InvalidPeriodMatrix(InvalidInput):
    """Period matrix is not symmetric or Im(tau) is not positive definite."""


class NotPIntegral(ThetadistError):
    """A divisor coefficient has a denominator divisible by p."""


class UnsupportedPrime(ThetadistError):
    """The prime is a prime of bad reduction for the curve."""


class RepresentationDegenerate(ThetadistError):
    """A ring division by a non-unit occurred during residue-ring arithmetic."""
