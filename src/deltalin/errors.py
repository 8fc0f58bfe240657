"""Exception hierarchy shared across the package."""


class DeltaLinError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(DeltaLinError, ValueError):
    """Malformed input: a bad prime, size or polynomial, or malformed coefficients."""


class DomainError(DeltaLinError, ValueError):
    """An operand from another ring, or a value outside an operation's domain."""


class NotUnitError(DomainError):
    """Inversion of an element with valuation >= 1."""


class SingularMatrixError(DomainError):
    """Matrix not invertible mod p: not in GL_n."""


class PrecisionError(DeltaLinError):
    """Operation needs more known digits than the input carries."""


class AlgebraInvariantError(DeltaLinError):
    """An internal exact identity failed; signals a bug, not a user error."""
