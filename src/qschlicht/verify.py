"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite runs a bundle of identity, bound, or certificate checks at the
given (q, alpha) with a seeded sample budget and returns CheckResult rows;
the CLI prints one PASS/FAIL line per row.  A FAIL here means the library's
own consistency broke, with one deliberate exception: the ``hankel`` suite
treats the one-atom generator exceeding the stated determinant bound as the
expected, documented outcome and only fails when the empirical maximum
escapes the scalar-majorant envelope G(2).

Batch contract: a suite scores its samples as sweeps do, in blocks through
:func:`.explorer._sample_maxima`, and reads each statistic back as a per-key
maximum; the fs, hankel and bieberbach suites score with the sweeps' own
scorer, :func:`.explorer._scorer`.  Every suite keeps it: at seed s its
samples are samples 0..samples-1 of group 0 of a k_atoms = 4 sweep at seed
s (sample i keeps (i % 3) + 2 atoms, atom 0 at angle 0), drawn once and
scored for all of the suite's sampled rows in one pass, and a block column
equals the member built alone, so the rows, limits and verdicts are those
of building the members one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import power_series as ps
from .caratheodory import _check_seed, _moments, _p_coeffs
from .errors import RangeError
from .explorer import _sample_maxima, _scorer, resolve_workers
from .extremal import _generators, f1_series, f_exponent_series
from .functionals import bieberbach_bound_convex, fekete_szego_value, fs_bound, \
    hankel_bound, hankel_value, t4_scalars
from .q_calculus import ClassParams, _check_count, _dq_core, _iq_core, iq, \
    jackson_sum
from .schlicht import _certify, _functional_equation_core, _starlike_core, \
    membership_starlike

SUITES = ("qcalc", "fs", "hankel", "bieberbach", "herglotz", "membership")
_HERGLOTZ_MIN_Q = 0.2  # below it the log row loses 1e-10 to cancellation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _maxima(score, seed: int, count: int) -> dict:
    """Per key, the largest score of the first count samples at this seed."""
    top = _sample_maxima(score, seed, 0, 4, count, resolve_workers())
    return {key: v for key, (v, _) in top.items()}


def run_suite(suite: str, q: float, alpha: float, samples: int,
              seed: int) -> list[CheckResult]:
    if suite not in SUITES:
        raise RangeError(f"unknown suite {suite!r}; choose from {SUITES}")
    samples = _check_count(samples, "samples", 1)
    ClassParams(q=q, alpha=alpha)  # validates q and alpha for every suite
    fn = globals()[f"_suite_{suite}"]
    return fn(q, alpha, samples, _check_seed(seed))


def _suite_qcalc(q, alpha, samples, seed) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    # the same stream as one real and one imaginary draw of 33 per series
    draws = rng.standard_normal((max(samples, 10), 2, 33))
    coeffs = (draws[:, 0] + 1j * draws[:, 1]).T  # one column per series
    back = _iq_core(_dq_core(coeffs, q), q)  # iq(dq f)
    target = coeffs.copy()
    target[0] = 0.0
    worst_round = float(np.abs(back - target).max())
    forward = _dq_core(_iq_core(coeffs, q), q)  # dq(iq f)
    worst_inv = float(np.abs(forward - coeffs).max())
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
    top = _maxima(_scorer("fs", q, alpha, mus, 10), seed, samples)
    # b - v rounds monotonically in v, so this is the least per-sample slack
    worst_slack = min(fs_bound(params, mu).value - v for mu, v in top.items())
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
    v1, v2 = (hankel_value(f) for f in _generators(params))
    _, g2, _ = t4_scalars(2.0, 1.0, q)
    emp = max(0.0, _maxima(_scorer("h22", q, alpha, (None,), 10),
                           seed, samples)[None])
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
    worst = max(0.0, _maxima(_scorer("bieberbach", q, alpha, (None,), 10),
                             seed, samples)[None])
    # the table is E_q's own coefficients, so E_q is checked by a second
    # route: the q-integral of the functional-equation member of p = (1 +
    # z)/(1 - z), a unit atom at 0, which is E_q at alpha = 0 and falls short
    # of the table for alpha > 0 (README finding 3)
    p = np.full(max(bounds), 2.0 + 0j)  # up to p_9, for b_2..b_10
    p[0] = 1.0
    one_atom = _iq_core(_functional_equation_core(p, q, alpha)[1:], q)
    ratios = [abs(one_atom[n]) / bounds[n] for n in bounds]
    gap = max(abs(r - 1.0) for r in ratios)
    return [
        CheckResult("sampled members respect the coefficient bounds",
                    worst <= 1.0 + 1e-7, f"worst ratio {worst:.12f}"),
        CheckResult("q-integral extremal attains equality",
                    alpha > 0.0 or gap <= 1e-9,
                    f"one-atom member, max relative gap {gap:.3e}" if alpha == 0.0
                    else "not attained for alpha > 0 (report only): one-atom member"
                    f" |b_n|/bound_n {min(ratios):.6f} .. {max(ratios):.6f}, n = 2..10"),
    ]


def _suite_herglotz(q, alpha, samples, seed) -> list[CheckResult]:
    if alpha != 0.0:
        return [CheckResult("measure representation requires alpha = 0", False,
                            f"alpha = {alpha}")]
    if q < _HERGLOTZ_MIN_Q:
        raise RangeError(f"the herglotz suite needs q >= {_HERGLOTZ_MIN_Q}, got"
                         f" {q}: below it log(f/z) cancels past its 1e-10 limit")
    params = ClassParams(q=q, alpha=0.0, order=16)
    n = params.order
    half_f = f_exponent_series(params).coeffs.real[1:n, None] / 2.0

    def score(w, a):
        p = _p_coeffs(_moments(w, a, n - 1))
        f_a = _functional_equation_core(p, q, 0.0)[1:]  # f/z, order N - 1
        f_b = _starlike_core(p, q, 0.0)[1:]  # starlike_from_p's exponent route
        phi = ps._log_core(f_a)  # log(f/z) has coefficients p_n ln q/(q^n - 1)
        # relative to max(1, |a_n|): the coefficients reach about 1e4 at q 0.2
        return {"routes": (np.abs(f_a - f_b) / np.maximum(1.0, np.abs(f_a))).max(axis=0),
                "log": np.abs(phi[1:] - p[1:n] * half_f).max(axis=0)}

    top = _maxima(score, seed, samples)
    return [
        CheckResult("functional-equation and exponent routes agree",
                    top["routes"] <= 1e-9, f"max relative coeff diff {top['routes']:.3e}"),
        CheckResult("log(f/z) matches the exponent coefficients",
                    top["log"] <= 1e-10, f"max diff {top['log']:.3e}"),
    ]


def _suite_membership(q, alpha, samples, seed) -> list[CheckResult]:
    params = ClassParams(q=q, alpha=alpha, order=192)
    # Dq E_q = f1/z, so the convex certificate of the q-integral extremal
    # checks the same ratio as the starlike certificate of f1
    f1, f2 = _generators(params)
    one_atom, two_atom = membership_starlike(f1, params), membership_starlike(f2, params)
    results = []
    for name, rep in (("one-atom generator", one_atom),
                      ("two-atom generator", two_atom),
                      ("q-integral extremal", one_atom)):
        results.append(CheckResult(
            f"{name} certificate", rep.passed,
            f"worst margin {rep.worst_margin:.3e} at {rep.worst_point:.3f},"
            f" unresolved {rep.unresolved}"))

    def certify(w, a):  # 64 members at a time, in one batched certificate
        scores = np.empty((w.shape[1], 2))  # worst margin, failed
        for cols in (slice(lo, lo + 64) for lo in range(0, w.shape[1], 64)):
            m = _moments(w[:, cols], a[:, cols], params.order - 1)
            # f/z of the starlike member f is Dq of the convex member
            dq_members = _starlike_core(_p_coeffs(m), q, alpha)[1:]
            if not np.all(np.isfinite(dq_members)):  # as a TruncatedSeries would
                raise ValueError("coefficients must all be finite")
            scores[cols] = [(rep.worst_margin, not rep.passed) for rep in
                            _certify(dq_members, params, "convex")]
        return {"margin": scores[:, 0], "failed": scores[:, 1]}

    top = _maxima(certify, seed, max(2, samples // 10))
    results.append(CheckResult("product-route members certify convex",
                               not top["failed"], f"worst margin {top['margin']:.3e}"))
    return results
