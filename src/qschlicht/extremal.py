"""Closed-form candidate extremals and the q-integral extremal.

All of them are exponentials of explicit series built from the log-ratio
constant L_alpha = ln(q/(1 - alpha(1-q))):

    exponent F(z)   : coefficients 2 L_alpha / (q^n - 1)          (n >= 1)
    one-atom  F1    : z exp(F(z))
    two-atom  F2    : z exp(sum_n 2 L_alpha/(q^{2n}-1) z^{2n})
    q-integral E_q  : Jackson integral of exp(F), with coefficients
                      b_n = (1-q)/(1-q^n) c_n where c_n comes from z exp(F).

At alpha = 0 these specialize to the sharp extremals of the starlike-type
coefficient bounds; for alpha > 0 they are candidate extremals only and the
bound formulas built on them are flagged as conjectural by the functionals
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import power_series as ps
from .caratheodory import AtomicMeasure, _moments
from .errors import AlphaUnsupportedError
from .power_series import TruncatedSeries
from .q_calculus import ClassParams, QLogRatios, iq


def f_exponent_series(params: ClassParams) -> TruncatedSeries:
    """The class exponent F: coefficient n is 2 L_alpha/(q^n - 1), n >= 1."""
    ratios = QLogRatios.from_params(params)
    n = np.arange(params.order + 1, dtype=np.float64)
    coeffs = np.zeros(params.order + 1, dtype=np.complex128)
    coeffs[1:] = 2.0 * ratios.lalpha / (np.power(params.q, n[1:]) - 1.0)
    return TruncatedSeries(coeffs)


def f1_series(params: ClassParams) -> TruncatedSeries:
    """One-atom candidate extremal z exp(F(z))."""
    exponent = ps.truncate(f_exponent_series(params), params.order - 1)
    return ps.exp(exponent).times_z()


def f2_series(params: ClassParams) -> TruncatedSeries:
    """Two-atom candidate extremal: exponent supported on even powers only,
    so every even coefficient of f vanishes."""
    ratios = QLogRatios.from_params(params)
    coeffs = np.zeros(params.order, dtype=np.complex128)
    for n in range(2, params.order, 2):
        coeffs[n] = 2.0 * ratios.lalpha / (params.q ** n - 1.0)
    return ps.exp(TruncatedSeries(coeffs)).times_z()


@dataclass(frozen=True)
class EqResult:
    """The q-integral extremal and the coefficients c_n of z exp(F).

    ``e_q.coeffs[n] == (1-q)/(1-q^n) * c[n]`` holds exactly as computed
    because the Jackson integral performs that very division.
    """

    e_q: TruncatedSeries
    c: np.ndarray


def eq_series(params: ClassParams) -> EqResult:
    """Jackson integral of exp(F) together with the c_n coefficient list."""
    exponent = ps.truncate(f_exponent_series(params), params.order - 1)
    d_series = ps.exp(exponent)          # Dq of the result
    e_q = iq(d_series, params.q)         # z + sum b_n z^n, order restored
    c = np.empty(params.order + 1, dtype=np.float64)
    c[0] = 0.0
    c[1:] = d_series.coeffs.real         # coefficients of z exp(F) are real
    return EqResult(e_q=ps.truncate(e_q, params.order), c=c)


def herglotz_starlike(m: AtomicMeasure, params: ClassParams) -> TruncatedSeries:
    """Measure-generated starlike member z exp(sum_j t_j F(sigma_j z)).

    Only defined at alpha = 0, where the measure representation of the
    starlike class is available; a unit mass at angle 0 gives f1_series.
    """
    if params.alpha != 0.0:
        raise AlphaUnsupportedError("measure representation requires alpha = 0")
    f_exp = f_exponent_series(params).coeffs[: params.order]
    exponent = f_exp * _moments(m.weights, m.angles, params.order - 1)
    return ps.exp(TruncatedSeries(exponent)).times_z()
