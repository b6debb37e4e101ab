"""Exception types raised by the library.

Everything derives from QschlichtError so callers can catch broadly.  An
argument outside its domain is a RangeError (a ValueError), whatever the
argument; a certificate or summation that cannot finish is an
ArithmeticError.
"""


class QschlichtError(Exception):
    """Base class for library errors."""


class RangeError(QschlichtError, ValueError):
    """A numeric argument is outside its documented domain."""


class ConfigError(QschlichtError, ValueError):
    """A sweep or CLI configuration is inconsistent."""


class EvaluationSingularityError(QschlichtError, ArithmeticError):
    """A certificate hit a grid point where the denominator vanishes."""


class NonConvergenceError(QschlichtError, ArithmeticError):
    """An iterative summation failed to decay within the iteration cap."""
