"""Exception types raised by the library.

Everything derives from QschlichtError so callers can catch broadly; the
subclasses mirror the distinct failure modes of the numeric contracts.
"""


class QschlichtError(Exception):
    """Base class for library errors."""


class RangeError(QschlichtError, ValueError):
    """A numeric argument is outside its documented domain."""


class ZeroConstantTermError(QschlichtError, ValueError):
    """Reciprocal requested for a series with vanishing constant term."""


class NonzeroConstantTermError(QschlichtError, ValueError):
    """Formal exponential requires constant term zero."""


class ConstantTermNotOneError(QschlichtError, ValueError):
    """Formal logarithm requires constant term one."""


class OrderTooSmallError(QschlichtError, ValueError):
    """The series does not carry enough coefficients for the functional."""


class EvaluationSingularityError(QschlichtError, ArithmeticError):
    """A certificate hit a grid point where the denominator vanishes."""


class NonConvergenceError(QschlichtError, ArithmeticError):
    """An iterative summation failed to decay within the iteration cap."""


class AlphaUnsupportedError(QschlichtError, ValueError):
    """Operation is only defined for order alpha = 0."""


class ConfigError(QschlichtError, ValueError):
    """A sweep or CLI configuration is inconsistent."""
