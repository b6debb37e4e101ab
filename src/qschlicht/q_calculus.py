"""The q-difference operator, the Jackson q-integral, and derived constants.

For 0 < q < 1 the q-difference operator acts on coefficients by
``c_n z^n -> c_n [n]_q z^(n-1)`` with the q-bracket ``[n]_q = (1-q^n)/(1-q)``,
which is the coefficient form of ``(f(z) - f(qz)) / (z (1-q))``.  The Jackson
integral inverts it: ``c_n z^n -> c_n z^(n+1) / [n+1]_q``.  The integral
raises the truncation order by one so that the round trips

    iq(dq(f)) == f - f(0)        dq(iq(f)) == f

hold without losing the top coefficient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, RangeError
from .power_series import MAX_ORDER, TruncatedSeries, zero


def _check_q(q: float) -> float:
    q = float(q)
    if not (0.0 < q < 1.0):
        raise RangeError(f"q must lie strictly inside (0, 1), got {q}")
    return q


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise RangeError(f"alpha must lie in [0, 1), got {alpha}")
    return alpha


def _check_count(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int in [lo, hi] (no upper limit when hi is None), else
    RangeError; a float count is refused, not truncated."""
    try:
        n = operator.index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, got {value!r}") from None
    if n < lo or (hi is not None and n > hi):
        raise RangeError(f"{name} must be at least {lo}, got {n}" if hi is None
                    else f"{name} must lie in [{lo}, {hi}], got {n}")
    return n


@dataclass(frozen=True)
class ClassParams:
    """Parameters shared by every class construction: q, alpha, order."""

    q: float
    alpha: float = 0.0
    order: int = 32

    def __post_init__(self):
        _check_q(self.q)
        _check_alpha(self.alpha)
        object.__setattr__(self, "order",
                           _check_count(self.order, "order", 4, MAX_ORDER))


def q_powers(q: float, n_max: int) -> np.ndarray:
    """[1, q, q^2, ..., q^n_max] by cumulative multiplication, in order.

    Every q-bracket in the library derives its powers from this one routine,
    so dq and iq multiply and divide by the same brackets.
    """
    out = np.full(n_max + 1, float(q))
    out[0] = 1.0
    return np.multiply.accumulate(out, out=out)


def q_bracket(n: int, q: float) -> float:
    """[n]_q = (1 - q^n)/(1 - q); equals n in the limit q -> 1."""
    q = _check_q(q)
    if n < 0:
        raise RangeError("q-bracket needs n >= 0")
    return float((1.0 - q_powers(q, n)[n]) / (1.0 - q))


def _brackets(n_max: int, q: float) -> np.ndarray:
    return (1.0 - q_powers(q, n_max)) / (1.0 - q)


def _dq_core(c: np.ndarray, q: float) -> np.ndarray:
    """q-difference along axis 0: out[n] = c[n+1] [n+1]_q."""
    br = _brackets(c.shape[0] - 1, q)[1:]
    return c[1:] * br.reshape(br.shape + (1,) * (c.ndim - 1))


def dq(a: TruncatedSeries, q: float) -> TruncatedSeries:
    """q-difference operator on a series; order drops by one."""
    q = _check_q(q)
    if a.order == 0:
        return zero(0)
    return TruncatedSeries(_dq_core(a.coeffs, q))


def _iq_core(d: np.ndarray, q: float) -> np.ndarray:
    """Jackson q-integral along axis 0: out[n] = d[n-1] / [n]_q, out[0] = 0."""
    out = np.zeros((d.shape[0] + 1,) + d.shape[1:], dtype=np.complex128)
    br = _brackets(d.shape[0], q)[1:]
    br = br.reshape(br.shape + (1,) * (d.ndim - 1))
    # componentwise: complex/real promotion rounds differently
    np.divide(d.real, br, out=out.real[1:])
    np.divide(d.imag, br, out=out.imag[1:])
    return out


def iq(a: TruncatedSeries, q: float) -> TruncatedSeries:
    """Jackson q-integral on a series; order grows by one.

    Raising the order keeps ``iq(dq(f)) == f - f(0)`` exact coefficientwise.
    """
    return TruncatedSeries(_iq_core(a.coeffs, _check_q(q)))


def jackson_sum(fn, x: float, q: float) -> complex:
    """Numeric Jackson integral x(1-q) sum_n q^n fn(x q^n).

    The sum is cut once the geometric tail bound x * q^(n+1) * sup|fn| drops
    below 1e-12; the sup is tracked from the evaluated points, which is
    sound for fn bounded on [0, x].  Raises NonConvergenceError if the terms
    fail to decay within 100000 terms.
    """
    q = _check_q(q)
    total = 0.0 + 0.0j
    bound = 0.0
    qn = 1.0
    for _ in range(100_000):
        value = complex(fn(x * qn))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise NonConvergenceError("integrand returned a non-finite value")
        total += qn * value
        bound = max(bound, abs(value))
        qn *= q
        if abs(x) * qn * max(bound, 1.0) < 1e-12:
            return x * (1.0 - q) * total
    raise NonConvergenceError("q-sum did not converge within 100000 terms")
