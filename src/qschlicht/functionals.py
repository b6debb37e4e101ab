"""Coefficient functionals and the stated bound formulas.

Values are computed from series coefficients; bounds from the log-ratio
constants.  For alpha > 0 every bound is a conjectured formula (the candidate
extremals are not proven sharp) and carries ``conjectural=True``; the library
never reports a conjecture as a theorem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import OrderTooSmallError, RangeError
from .power_series import TruncatedSeries
from .q_calculus import ClassParams, QLogRatios, _brackets, _check_q


@dataclass(frozen=True)
class Bound:
    """A stated bound value plus its epistemic status."""

    value: float
    conjectural: bool


@dataclass(frozen=True)
class BoundComparison:
    """Empirical functional value against a stated bound."""

    functional_value: float
    stated_bound: float
    slack: float
    attained: bool


def compare_bound(value: float, bound: float, tol: float = 1e-9) -> BoundComparison:
    slack = bound - value
    return BoundComparison(functional_value=float(value), stated_bound=float(bound),
                           slack=float(slack), attained=bool(abs(slack) <= tol))


def fekete_szego_value(f: TruncatedSeries, mu: complex) -> float:
    """|a3 - mu a2^2| for a normalized series."""
    if f.order < 3:
        raise OrderTooSmallError("need coefficients up to a3")
    a2, a3 = f.coeffs[2], f.coeffs[3]
    return float(abs(a3 - complex(mu) * a2 * a2))


def fs_bound(params: ClassParams, mu: complex) -> Bound:
    """Stated Fekete-Szego bound:
    max{ |2(1-2mu) (L/(q-1))^2 + 2 L/(q^2-1)| , 2 L/(q^2-1) } with L = L_alpha.

    Sharp at alpha = 0 (attained by the one- and two-atom extremals);
    conjectural otherwise.
    """
    r = QLogRatios.from_params(params)
    q = params.q
    r1 = r.lalpha / (q - 1.0)
    r2 = r.lalpha / (q * q - 1.0)
    first = abs(2.0 * (1.0 - 2.0 * complex(mu)) * r1 * r1 + 2.0 * r2)
    value = max(first, 2.0 * r2)
    return Bound(value=float(value), conjectural=params.alpha > 0.0)


def hankel_value(f: TruncatedSeries, k: int, n: int, signed: bool = False):
    """Determinant of the k x k matrix with entries a_{n+i+j}.

    Returns |det| by default; with ``signed=True`` the complex determinant
    (useful for sign checks such as the classical value -1 of the k=2, n=2
    determinant of the Koebe-limit coefficients).
    """
    if k < 1 or n < 1:
        raise RangeError("need k >= 1 and n >= 1")
    if f.order < n + 2 * k - 2:
        raise OrderTooSmallError(
            f"need coefficients up to a_{n + 2 * k - 2}, have order {f.order}")
    m = np.empty((k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            m[i, j] = f.coeffs[n + i + j]
    det = complex(np.linalg.det(m)) if k > 1 else complex(m[0, 0])
    return det if signed else float(abs(det))


def hankel_bound(params: ClassParams) -> Bound:
    """Stated bound 4 (L_alpha/(q^2-1))^2 for |a2 a4 - a3^2|."""
    r = QLogRatios.from_params(params)
    value = 4.0 * (r.lalpha / (params.q ** 2 - 1.0)) ** 2
    return Bound(value=float(value), conjectural=params.alpha > 0.0)


@functools.lru_cache(maxsize=None)
def _bieberbach_bound_table(params: ClassParams) -> np.ndarray:
    """Read-only bounds (1-q)/(1-q^n) c_n for n = 0..order from one
    eq_series call; entries 0 and 1 are unused.  Memoized per params."""
    from .extremal import eq_series  # local import to avoid a cycle

    c = eq_series(params).c
    table = np.full(params.order + 1, np.nan)
    # same division the q-integral performs, so the extremal attains the
    # bound bitwise
    table[2:] = c[2:] / _brackets(params.order, params.q)[2:]
    table.setflags(write=False)
    return table


def bieberbach_bound_convex(params: ClassParams, n: int) -> float:
    """Coefficient bound (1-q)/(1-q^n) c_n for the convex-type class,
    attained by the q-integral extremal."""
    if n < 2:
        raise RangeError("bound is stated for n >= 2")
    if n > params.order:
        raise OrderTooSmallError(f"n = {n} exceeds params.order = {params.order}")
    return float(_bieberbach_bound_table(params)[n])


def t4_scalars(c: float, rho: float, q: float) -> tuple[float, float, float]:
    """The scalar majorants (F(rho; c), G(c), A) behind the Hankel bound.

    With P = L1 L3 and S = L2^2:

        A      = L1^4 - 3 P + 3 S                       (positive on (0,1))
        F(rho) = c^4/12 A + (4-c^2) c/2 P
                 + c^2/2 (4-c^2)(P - S) rho
                 + (4-c^2)/4 [ (4-c^2) S + c(c-2) P ] rho^2
        G(c)   = F(1) = c^4/12 (L1^4 - 12P + 12S) + c^2 (3P - 4S) + 4S

    G(0) = 4 L2^2 is the stated bound; note G(2) = (4/3) A exceeds it for
    0 < q < 1, and the one-atom generator attains G(2) -- the harness reports
    that tension instead of hiding it.
    """
    q = _check_q(q)
    c = float(c)
    rho = float(rho)
    if not (0.0 <= c <= 2.0):
        raise RangeError("c must lie in [0, 2]")
    if not (0.0 <= rho <= 1.0):
        raise RangeError("rho must lie in [0, 1]")
    r = QLogRatios(q, 0.0)
    p_term = r.l1 * r.l3
    s_term = r.l2 * r.l2
    a_val = r.l1 ** 4 - 3.0 * p_term + 3.0 * s_term
    s4 = 4.0 - c * c
    f_val = (c ** 4 / 12.0 * a_val
             + s4 * c / 2.0 * p_term
             + c * c / 2.0 * s4 * (p_term - s_term) * rho
             + s4 / 4.0 * (s4 * s_term + c * (c - 2.0) * p_term) * rho * rho)
    g_val = (c ** 4 / 12.0 * (r.l1 ** 4 - 12.0 * p_term + 12.0 * s_term)
             + c * c * (3.0 * p_term - 4.0 * s_term)
             + 4.0 * s_term)
    return f_val, g_val, a_val
