"""Exception types raised by the library.

Everything derives from QschlichtError so callers can catch broadly.  An
argument outside its domain or inconsistent with another is a RangeError (a
ValueError), whatever the argument and whichever entry point sees it; a
certificate or summation that cannot finish is an ArithmeticError.
"""


class QschlichtError(Exception):
    """Base class for library errors."""


class RangeError(QschlichtError, ValueError):
    """An argument outside its domain or inconsistent with another one."""


class EvaluationSingularityError(QschlichtError, ArithmeticError):
    """A certificate hit a grid point where the denominator vanishes."""


class NonConvergenceError(QschlichtError, ArithmeticError):
    """An iterative summation failed to decay within the iteration cap."""
