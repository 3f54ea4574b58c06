"""Exception hierarchy for the i-operator library."""


class IopsimError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(IopsimError):
    pass


class NotFinite(IopsimError):
    pass


class NotHermitian(IopsimError):
    pass


class NotUnitary(IopsimError):
    pass


class NoConvergence(IopsimError):
    pass


class TraceNotOne(IopsimError):
    pass


class NotPositive(IopsimError):
    pass


class ResultNotIOperator(IopsimError):
    pass


class SupportViolation(IopsimError):
    pass


class ZeroWeight(IopsimError):
    """A label or outcome whose weight is at most iop.ZERO_WEIGHT_FLOOR."""


class ZeroProbabilityLabel(ZeroWeight):
    pass


class ZeroProbabilityOutcome(ZeroWeight):
    pass


class UnknownLabel(IopsimError, KeyError):
    """A label that the structure or measurement system does not have."""

    __str__ = IopsimError.__str__  # the message, not KeyError's repr of it


class NotDefinitive(IopsimError):
    pass


class NotPure(IopsimError):
    pass


class ZeroVector(IopsimError):
    pass


class InsufficientPoints(IopsimError):
    pass


class BadSlitGeometry(IopsimError):
    pass


class BadParameter(IopsimError, ValueError):
    """A malformed argument: out of range, misaligned or of the wrong kind."""


class ParseError(IopsimError):
    pass
