"""Exception hierarchy shared by all avgcase modules."""


class AvgCaseError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(AvgCaseError, ValueError):
    """A parameter violates a structural precondition (divisibility, range, bound)."""


class AdversaryViolation(AvgCaseError, ValueError):
    """A semirandom adversary tried to act on a protected (planted) pair."""


class FeasibilityError(AvgCaseError):
    """A brute-force computation would exceed its enumeration guard."""
