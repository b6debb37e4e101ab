"""Coefficient functionals and the stated bound formulas.

Values are computed from series coefficients; bounds from the class
exponent F_n = 2 L_alpha/(q^n - 1) of :func:`.extremal.f_exponent_series`,
read as Python floats from its memoized table.  For alpha > 0 every bound is
a conjectured formula (the candidate extremals are not proven sharp) and
carries ``conjectural=True``; the library never reports a conjecture as a
theorem.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .extremal import eq_series, f_exponent_series
from .power_series import TruncatedSeries, _columns
from .q_calculus import ClassParams


@dataclass(frozen=True)
class Bound:
    """A stated bound value plus its epistemic status."""

    value: float
    conjectural: bool


def _fs(a, mu):
    """|a3 - mu a2^2| along axis 0; the one Fekete-Szego expression."""
    return np.abs(a[3] - mu * a[2] ** 2)


def _h2(a):
    """a_2 a_4 - a_3^2 along axis 0; the one Hankel expression."""
    return a[2] * a[4] - a[3] ** 2


def fekete_szego_value(f: TruncatedSeries, mu: complex) -> float:
    """|a3 - mu a2^2| for a normalized series, bitwise the sweep's score of
    the same member."""
    if f.order < 3:
        raise RangeError("need coefficients up to a3")
    return float(_fs(_columns(f.coeffs), complex(mu))[0])


def _exponent_terms(params: ClassParams, count: int) -> list[float]:
    """F_1..F_count of the class exponent, as Python floats."""
    return [float(f) for f in f_exponent_series(params).coeffs.real[1:count + 1]]


def fs_bound(params: ClassParams, mu: complex) -> Bound:
    """Stated Fekete-Szego bound:
    max{ |2(1-2mu) r_1^2 + 2 r_2| , 2 r_2 } with r_n = F_n/2 = L_alpha/(q^n-1).

    Sharp at alpha = 0 (attained by the one- and two-atom extremals);
    conjectural otherwise.
    """
    mu = complex(mu)
    if not cmath.isfinite(mu):
        raise RangeError(f"mu must be finite, got {mu}")
    r1, r2 = (f / 2.0 for f in _exponent_terms(params, 2))
    try:
        value = max(abs(2.0 * (1.0 - 2.0 * mu) * r1 * r1 + 2.0 * r2), 2.0 * r2)
    except OverflowError:  # the modulus of a finite complex can overflow
        value = math.inf
    if not math.isfinite(value):
        raise RangeError(f"fs bound at mu = {mu} is not finite")
    return Bound(value=float(value), conjectural=params.alpha > 0.0)


def hankel_value(f: TruncatedSeries) -> float:
    """|a2 a4 - a3^2|, bitwise the sweep's h22 score."""
    if f.order < 4:
        raise RangeError(f"need coefficients up to a_4, have order {f.order}")
    return float(np.abs(_h2(_columns(f.coeffs)))[0])


def hankel_bound(params: ClassParams) -> Bound:
    """Stated bound F_2^2 = 4 (L_alpha/(q^2-1))^2 for |a2 a4 - a3^2|."""
    _, f2 = _exponent_terms(params, 2)
    return Bound(value=f2 * f2, conjectural=params.alpha > 0.0)


@functools.lru_cache(maxsize=None)
def _bieberbach_bound_table(params: ClassParams) -> np.ndarray:
    """Read-only bounds (1-q)/(1-q^n) c_n for n = 0..order: the real
    coefficients of E_q from one eq_series call, so the extremal attains
    every bound bitwise (the Jackson integral performs that very division).
    Entries 0 and 1 are unused.  Memoized per params."""
    table = eq_series(params).coeffs.real.copy()
    table.setflags(write=False)
    return table


def bieberbach_bound_convex(params: ClassParams, n: int) -> float:
    """Coefficient bound (1-q)/(1-q^n) c_n for the convex-type class,
    attained by the q-integral extremal."""
    if n < 2:
        raise RangeError("bound is stated for n >= 2")
    if n > params.order:
        raise RangeError(f"n = {n} exceeds params.order = {params.order}")
    return float(_bieberbach_bound_table(params)[n])


def t4_scalars(c: float, rho: float, q: float) -> tuple[float, float, float]:
    """The scalar majorants (F(rho; c), G(c), A) behind the Hankel bound.

    With P = L1 L3 and S = L2^2:

        A      = L1^4 - 3 P + 3 S                       (positive on (0,1))
        F(rho) = c^4/12 A + (4-c^2) c/2 P
                 + c^2/2 (4-c^2)(P - S) rho
                 + (4-c^2)/4 [ (4-c^2) S + c(c-2) P ] rho^2
        G(c)   = F(1) = c^4/12 (L1^4 - 12P + 12S) + c^2 (3P - 4S) + 4S

    with L_n = F_n/2 = ln q/(q^n - 1) of the alpha = 0 class exponent.
    G(0) = 4 L2^2 is the stated bound, bitwise hankel_bound at alpha = 0;
    note G(2) = (4/3) A exceeds it for 0 < q < 1, and the one-atom generator
    attains G(2) -- the harness reports that tension instead of hiding it.
    """
    l1, l2, l3 = (f / 2.0 for f in
                  _exponent_terms(ClassParams(q, 0.0, order=4), 3))
    c = float(c)
    rho = float(rho)
    if not (0.0 <= c <= 2.0):
        raise RangeError("c must lie in [0, 2]")
    if not (0.0 <= rho <= 1.0):
        raise RangeError("rho must lie in [0, 1]")
    p_term = l1 * l3
    s_term = l2 * l2
    a_val = l1 ** 4 - 3.0 * p_term + 3.0 * s_term
    s4 = 4.0 - c * c
    f_val = (c ** 4 / 12.0 * a_val
             + s4 * c / 2.0 * p_term
             + c * c / 2.0 * s4 * (p_term - s_term) * rho
             + s4 / 4.0 * (s4 * s_term + c * (c - 2.0) * p_term) * rho * rho)
    g_val = (c ** 4 / 12.0 * (l1 ** 4 - 12.0 * p_term + 12.0 * s_term)
             + c * c * (3.0 * p_term - 4.0 * s_term)
             + 4.0 * s_term)
    return f_val, g_val, a_val
