"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite runs a bundle of identity, bound, or certificate checks at the
given (q, alpha) with a seeded sample budget and returns CheckResult rows;
the CLI prints one PASS/FAIL line per row.  A FAIL here means the library's
own consistency broke, with one deliberate exception: the ``hankel`` suite
treats the one-atom generator exceeding the stated determinant bound as the
expected, documented outcome and only fails when the empirical maximum
escapes the scalar-majorant envelope G(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import power_series as ps
from .caratheodory import AtomicMeasure, mm_gap, p_series, recover_xi_zeta, \
    rotation_normalized, sample_measure
from .errors import RangeError
from .extremal import eq_series, f1_series, f2_series, herglotz_starlike
from .functionals import bieberbach_bound_convex, fekete_szego_value, fs_bound, \
    hankel_bound, hankel_value, t4_scalars
from .q_calculus import ClassParams, QLogRatios, dq, iq, jackson_sum
from .schlicht import convex_from_h, convex_from_measure, membership_convex, \
    membership_starlike, rho_map, starlike_from_p

SUITES = ("qcalc", "fs", "hankel", "bieberbach", "herglotz", "membership")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sample_seeds(seed: int, count: int):
    return [int(s) for s in
            np.random.SeedSequence(int(seed)).generate_state(count, np.uint64)]


def run_suite(suite: str, q: float, alpha: float, samples: int,
              seed: int) -> list[CheckResult]:
    if suite not in SUITES:
        raise RangeError(f"unknown suite {suite!r}; choose from {SUITES}")
    fn = globals()[f"_suite_{suite}"]
    return fn(q, alpha, samples, seed)


def _suite_qcalc(q, alpha, samples, seed) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_round = 0.0
    worst_inv = 0.0
    for _ in range(max(samples, 10)):
        coeffs = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        f = ps.TruncatedSeries(coeffs)
        back = iq(dq(f, q), q)
        target = coeffs.copy()
        target[0] = 0.0
        worst_round = max(worst_round, float(np.abs(back.coeffs - target).max()))
        forward = dq(iq(f, q), q)
        worst_inv = max(worst_inv, float(np.abs(forward.coeffs - coeffs).max()))
    cubic = ps.from_coeffs(rng.standard_normal(4))
    x = 0.7
    js = jackson_sum(lambda t: ps.eval_at(cubic, t), x, q)
    series_val = ps.eval_at(iq(cubic, q), x)
    return [
        CheckResult("iq(dq(f)) == f - f(0)", worst_round <= 1e-12,
                    f"max coeff error {worst_round:.3e}"),
        CheckResult("dq(iq(f)) == f", worst_inv <= 1e-12,
                    f"max coeff error {worst_inv:.3e}"),
        CheckResult("jackson_sum matches series integral",
                    abs(js - series_val) <= 1e-10,
                    f"|difference| {abs(js - series_val):.3e}"),
    ]


def _suite_fs(q, alpha, samples, seed) -> list[CheckResult]:
    params = ClassParams(q=q, alpha=alpha, order=8)
    bound0 = fs_bound(params, 0.0)
    mus = (-1.0, -0.5, 0.0, 0.5, 1.0, 0.5 + 0.5j)
    worst_slack = math.inf
    for s in _sample_seeds(seed, samples):
        m = sample_measure(s, 1 + s % 4)
        f = starlike_from_p(p_series(m, params.order), params)
        for mu in mus:
            slack = fs_bound(params, mu).value - fekete_szego_value(f, mu)
            worst_slack = min(worst_slack, slack)
    f1 = f1_series(params)
    att = abs(fekete_szego_value(f1, 0.0) - bound0.value)
    label = "conjectured bound" if bound0.conjectural else "stated bound"
    results = [
        CheckResult(f"samples stay under the {label}", worst_slack >= -1e-7,
                    f"min slack {worst_slack:.3e} over {samples} samples x 6 mu"),
    ]
    if alpha == 0.0:
        results.append(CheckResult("one-atom generator attains the mu=0 bound",
                                   att <= 1e-8, f"|gap| {att:.3e}"))
    return results


def _suite_hankel(q, alpha, samples, seed) -> list[CheckResult]:
    params = ClassParams(q=q, alpha=alpha, order=8)
    bound = hankel_bound(params)
    f1 = f1_series(params)
    f2 = f2_series(params)
    v1 = hankel_value(f1, 2, 2)
    v2 = hankel_value(f2, 2, 2)
    _, g2, _ = t4_scalars(2.0, 1.0, q)
    emp = 0.0
    for s in _sample_seeds(seed, samples):
        m = sample_measure(s, 1 + s % 4)
        f = starlike_from_p(p_series(m, params.order), params)
        emp = max(emp, hankel_value(f, 2, 2))
    results = [
        CheckResult("two-atom generator attains the stated bound",
                    abs(v2 - bound.value) <= 1e-8, f"|gap| {abs(v2 - bound.value):.3e}"),
    ]
    if alpha == 0.0:
        # the exceedance (4/3)A > 4 L2^2 is specific to alpha = 0; for
        # alpha > 0 the one-atom candidate may sit below the conjectured bound
        results.append(CheckResult(
            "one-atom value exceeds the stated bound (documented)",
            v1 > bound.value, f"value {v1:.9f} vs bound {bound.value:.9f}"))
        results.append(CheckResult(
            "empirical max within the scalar-majorant envelope G(2)",
            emp <= g2 * (1 + 1e-9) + 1e-7,
            f"empirical {emp:.9f} vs G(2) {g2:.9f}"))
    else:
        results.append(CheckResult(
            "empirical max vs conjectured bound (report only)", True,
            f"empirical {emp:.9f} vs bound {bound.value:.9f}, one-atom {v1:.9f}"))
    return results


def _suite_bieberbach(q, alpha, samples, seed) -> list[CheckResult]:
    params = ClassParams(q=q, alpha=alpha, order=12)
    bounds = {n: bieberbach_bound_convex(params, n) for n in range(2, 11)}
    worst = 0.0
    for i, s in enumerate(_sample_seeds(seed, samples)):
        m = sample_measure(s, 1 + s % 4)
        if i % 2 == 0:
            f = convex_from_h(p_series(m, params.order), params)
        else:
            f = convex_from_measure(m, params)
        for n, b in bounds.items():
            worst = max(worst, abs(f.coeffs[n]) / b)
    res = eq_series(params)
    eq_gap = max(abs(abs(res.e_q.coeffs[n]) - bounds[n]) for n in bounds)
    return [
        CheckResult("sampled members respect the coefficient bounds",
                    worst <= 1.0 + 1e-7, f"worst ratio {worst:.12f}"),
        CheckResult("q-integral extremal attains equality",
                    eq_gap <= 1e-9, f"max |gap| {eq_gap:.3e}"),
    ]


def _suite_herglotz(q, alpha, samples, seed) -> list[CheckResult]:
    if alpha != 0.0:
        return [CheckResult("measure representation requires alpha = 0", False,
                            f"alpha = {alpha}")]
    params = ClassParams(q=q, alpha=0.0, order=16)
    worst = 0.0
    for s in _sample_seeds(seed, samples):
        m = sample_measure(s, 1 + s % 4)
        f_a = starlike_from_p(p_series(m, params.order), params)
        f_b = herglotz_starlike(m, params)
        worst = max(worst, float(np.abs(f_a.coeffs - f_b.coeffs).max()))
    lnq = math.log(q)
    worst_log = 0.0
    for s in _sample_seeds(seed + 1, samples):
        m = sample_measure(s, 1 + s % 4)
        p = p_series(m, params.order)
        f = starlike_from_p(p, params)
        phi = ps.log(f.div_z())
        # log(f/z) has order N - 1, one below p
        target = p.coeffs[1:params.order] * lnq / (
            np.power(q, np.arange(1, params.order)) - 1.0)
        worst_log = max(worst_log, float(np.abs(phi.coeffs[1:] - target).max()))
    return [
        CheckResult("functional-equation and exponent routes agree",
                    worst <= 1e-9, f"max coeff diff {worst:.3e}"),
        CheckResult("log(f/z) matches the exponent coefficients",
                    worst_log <= 1e-10, f"max diff {worst_log:.3e}"),
    ]


def _suite_membership(q, alpha, samples, seed) -> list[CheckResult]:
    params = ClassParams(q=q, alpha=alpha, order=192)
    results = []
    for name, f, check in (
        ("one-atom generator", f1_series(params), membership_starlike),
        ("two-atom generator", f2_series(params), membership_starlike),
        ("q-integral extremal", eq_series(params).e_q, membership_convex),
    ):
        rep = check(f, params)
        results.append(CheckResult(
            f"{name} certificate", rep.passed,
            f"worst margin {rep.worst_margin:.3e} at {rep.worst_point:.3f},"
            f" unresolved {rep.unresolved}"))
    worst = -math.inf
    ok = True
    for s in _sample_seeds(seed, max(2, samples // 10)):
        m = sample_measure(s, 1 + s % 4)
        f = convex_from_h(p_series(m, params.order), params)
        rep = membership_convex(f, params)
        ok = ok and rep.passed
        worst = max(worst, rep.worst_margin)
    results.append(CheckResult("product-route members certify convex", ok,
                               f"worst margin {worst:.3e}"))
    return results
