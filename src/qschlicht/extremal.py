"""Closed-form candidate extremals and the q-integral extremal.

All of them are exponentials of one explicit series, the class exponent F
built from the log-ratio constant L_alpha = ln(q/(1 - alpha(1-q))):

    exponent F(z)   : coefficients F_n = 2 L_alpha / (q^n - 1)    (n >= 1)
    one-atom  F1    : z exp(F(z))
    two-atom  F2    : z exp(sum_n F_{2n} z^{2n}), F with its odd terms zeroed
    q-integral E_q  : Jackson integral of exp(F), with coefficients
                      b_n = (1-q)/(1-q^n) c_n where c_n comes from z exp(F).

:func:`f_exponent_series` is the one place L_alpha and F_n are computed, and
every bound formula of the functionals module reads its table.  q^n is libm
``pow`` (Python's ``q ** n``), so F does not depend on which SIMD kernel
numpy dispatches ``np.power`` to.

At alpha = 0 these specialize to the sharp extremals of the starlike-type
coefficient bounds; for alpha > 0 they are candidate extremals only and the
bound formulas built on them are flagged as conjectural by the functionals
module.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import power_series as ps
from .caratheodory import AtomicMeasure, _moments
from .errors import RangeError
from .power_series import TruncatedSeries
from .q_calculus import ClassParams, _iq_core


@functools.lru_cache(maxsize=None)
def f_exponent_series(params: ClassParams) -> TruncatedSeries:
    """The class exponent F: coefficient n is 2 L_alpha/(q^n - 1), n >= 1,
    all positive.  Memoized per params; the coefficients are read-only."""
    q = float(params.q)
    ratio = q / (1.0 - params.alpha * (1.0 - q))
    # in (0, 1) in exact arithmetic, but it can round to 1.0 as
    # alpha -> 1 (it does at q 0.5, alpha 1 - 2**-53)
    if not (0.0 < ratio < 1.0):
        raise RangeError(f"log-ratio argument {ratio} escaped (0, 1)")
    two_l = 2.0 * math.log(ratio)
    return TruncatedSeries(np.array(
        [0.0] + [two_l / (q ** n - 1.0) for n in range(1, params.order + 1)]))


@functools.lru_cache(maxsize=None)
def _generators(params: ClassParams) -> tuple[TruncatedSeries, TruncatedSeries]:
    """f1 and f2, the members of a unit mass at 0 and of half masses at 0 and
    pi, as two columns of one exp; each equals the exp of its exponent alone.
    Memoized per params, like the exponent; the series are read-only."""
    moments = np.ones((params.order, 2))
    moments[1::2, 1] = 0.0
    a = _exponent_core(f_exponent_series(params).coeffs[:params.order], moments)
    return TruncatedSeries(a[:, 0]), TruncatedSeries(a[:, 1])


def f1_series(params: ClassParams) -> TruncatedSeries:
    """One-atom candidate extremal z exp(F(z))."""
    return _generators(params)[0]


def f2_series(params: ClassParams) -> TruncatedSeries:
    """Two-atom candidate extremal z exp(sum_n F_{2n} z^{2n}): the exponent
    is F with its odd terms zeroed, so every even coefficient of f
    vanishes."""
    return _generators(params)[1]


def _exponent_core(f_exp: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """a_0..a_{N+1} of z exp(sum_n F_n m_n z^n) for the real exponent
    F_0..F_N and the moments m_0..m_N on axis 0; the exp is built in a[1:]."""
    cm = ps._columns(moments)
    a = np.empty((cm.shape[0] + 1, cm.shape[1]), dtype=np.complex128,
                 order=ps._order(cm))
    a[0] = 0.0
    ps._exp_into(cm, f_exp.real, a[1:])
    return a.reshape(a.shape[:1] + moments.shape[1:])


def eq_series(params: ClassParams) -> TruncatedSeries:
    """The q-integral of f1/z, so that z (Dq E_q) = f1 = z exp(F).

    Coefficient n is exactly (1-q)/(1-q^n) c_n for the coefficients c_n of
    f1 (all real), because the Jackson integral performs that very
    division."""
    return TruncatedSeries(_iq_core(f1_series(params).coeffs[1:], params.q))


def herglotz_starlike(m: AtomicMeasure, params: ClassParams) -> TruncatedSeries:
    """Measure-generated starlike member z exp(sum_j t_j F(sigma_j z)).

    Only defined at alpha = 0, where the measure representation of the
    starlike class is available; a unit mass at angle 0 gives f1_series.
    It is bitwise ``starlike_from_p(p_series(m, N), params)``, which builds
    the same exp at alpha = 0.
    """
    if params.alpha != 0.0:
        raise RangeError("measure representation requires alpha = 0")
    n = params.order
    return TruncatedSeries(_exponent_core(f_exponent_series(params).coeffs[:n],
                                          _moments(m.weights, m.angles, n - 1)))
