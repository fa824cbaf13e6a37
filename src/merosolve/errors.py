"""Exception hierarchy shared across the package."""


class MerosolveError(Exception):
    """Base class for all library errors."""


class OdeSyntaxError(MerosolveError):
    """Raised on malformed ODE text; carries the source position."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NormalizationError(MerosolveError):
    """The expression cannot be brought to cleared polynomial form."""


class UnboundParameterError(NormalizationError):
    """A parameter appearing in the expression has no bound value."""


class TruncationError(MerosolveError):
    """A series is not known to high enough order for the request."""


class DegenerateFamilyError(MerosolveError):
    """The perturbation polynomial of a balance family vanished identically."""


class InternalInconsistencyError(MerosolveError):
    """A structural self-check failed (maps to CLI exit code 3)."""


class EvaluationDomainError(MerosolveError):
    """A closed-form solution was evaluated where it is not defined."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NotLaurentError(MerosolveError):
    """An operation requiring integer-exponent local data got branched data."""


class NoPeriodicCandidateError(MerosolveError):
    """No finite period matches the supplied local expansion."""


class ExponentUnresolvedError(MerosolveError):
    """The local-exponent fit did not meet the quality threshold."""

    def __init__(self, message, r_squared=None):
        super().__init__(message)
        self.r_squared = r_squared
