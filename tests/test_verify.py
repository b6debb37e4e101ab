"""The verify suites score their samples in the sweeps' blocks; these tests
hold them to the same samples, rows and verdicts as building each member one
at a time.

The ``_loop_*`` functions are that reference: each builds its members one
sample at a time through the public constructors and functionals.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschlicht import power_series as ps
from qschlicht import explorer, q_calculus, verify
from qschlicht.caratheodory import MAX_ATOMS, AtomicMeasure, p_series, \
    sample_measure
from qschlicht.errors import ConfigError, RangeError
from qschlicht.explorer import BLOCK, SweepConfig, _bieberbach_scores, \
    _starlike_scores, group_samples, run_sweep
from qschlicht.extremal import eq_series, f1_series, f2_series, \
    herglotz_starlike
from qschlicht.functionals import bieberbach_bound_convex, \
    fekete_szego_value, fs_bound, hankel_bound, hankel_value, t4_scalars
from qschlicht.q_calculus import ClassParams, dq, iq, jackson_sum
from qschlicht.schlicht import convex_from_h, convex_from_measure, \
    membership_convex, membership_starlike, starlike_from_p
from qschlicht.verify import SUITES, CheckResult, run_suite
from sampler_reference import reference_group_samples


# -- reference: one member at a time ------------------------------------------


def _suite_samples(seed, count):
    """The suite's samples at seed as (weights, angles), (4, count) each: the
    first samples of group 0 of a k_atoms = 4 sweep."""
    cfg = SweepConfig(functional="h22", seed=seed, samples=count, q_grid=(0.5,))
    return group_samples(cfg, 0)


def _measures(seed, count):
    """The suite's samples at seed, one measure each, from the oracle."""
    weights, angles = reference_group_samples(seed, 0, count, 4)
    return [AtomicMeasure(w[w > 0], a[w > 0]) for w, a in zip(weights, angles)]


def _loop_qcalc(q, alpha, samples, seed):
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


def _loop_fs(q, alpha, samples, seed):
    params = ClassParams(q=q, alpha=alpha, order=8)
    bound0 = fs_bound(params, 0.0)
    mus = (-1.0, -0.5, 0.0, 0.5, 1.0, 0.5 + 0.5j)
    worst_slack = math.inf
    for m in _measures(seed, samples):
        f = starlike_from_p(p_series(m, params.order), params)
        for mu in mus:
            slack = fs_bound(params, mu).value - fekete_szego_value(f, mu)
            worst_slack = min(worst_slack, slack)
    att = abs(fekete_szego_value(f1_series(params), 0.0) - bound0.value)
    label = "conjectured bound" if bound0.conjectural else "stated bound"
    results = [
        CheckResult(f"samples stay under the {label}", worst_slack >= -1e-7,
                    f"min slack {worst_slack:.3e} over {samples} samples x 6 mu"),
    ]
    if alpha == 0.0:
        results.append(CheckResult("one-atom generator attains the mu=0 bound",
                                   att <= 1e-8, f"|gap| {att:.3e}"))
    return results


def _loop_hankel(q, alpha, samples, seed):
    params = ClassParams(q=q, alpha=alpha, order=8)
    bound = hankel_bound(params)
    v1 = hankel_value(f1_series(params))
    v2 = hankel_value(f2_series(params))
    _, g2, _ = t4_scalars(2.0, 1.0, q)
    emp = 0.0
    for m in _measures(seed, samples):
        f = starlike_from_p(p_series(m, params.order), params)
        emp = max(emp, hankel_value(f))
    results = [
        CheckResult("two-atom generator attains the stated bound",
                    abs(v2 - bound.value) <= 1e-8, f"|gap| {abs(v2 - bound.value):.3e}"),
    ]
    if alpha == 0.0:
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


def _loop_bieberbach(q, alpha, samples, seed):
    params = ClassParams(q=q, alpha=alpha, order=12)
    bounds = {n: bieberbach_bound_convex(params, n) for n in range(2, 11)}
    worst = 0.0
    multi = None
    for m in _measures(seed, samples):
        # the scorer's member: at alpha = 0 the p-route member is the
        # measure-exponent one, which it builds in closed form
        if alpha == 0.0:
            f = convex_from_measure(m, params)
        else:
            f = convex_from_h(p_series(m, params.order), params)
        ratio = max(abs(f.coeffs[n]) / b for n, b in bounds.items())
        worst = max(worst, ratio)
        if m.weights.size > 1:
            multi = max(ratio, multi or 0.0)
    multi = "none" if multi is None else f"{multi:.12f}"
    one_atom = convex_from_h(p_series(AtomicMeasure(np.array([1.0]), np.array([0.0])),
                                      params.order), params)
    ratios = [abs(one_atom.coeffs[n]) / b for n, b in bounds.items()]
    gap = max(abs(r - 1.0) for r in ratios)
    if alpha > 0.0:  # E_q is not attained: report only
        attains = CheckResult("q-integral extremal attains equality", True,
                              "not attained for alpha > 0 (report only): one-atom member"
                              f" |b_n|/bound_n {min(ratios):.6f} .. {max(ratios):.6f},"
                              " n = 2..10")
    else:
        attains = CheckResult("q-integral extremal attains equality", gap <= 1e-9,
                              f"one-atom member, max relative gap {gap:.3e}")
    return [
        CheckResult("sampled members respect the coefficient bounds",
                    worst <= 1.0 + 1e-7,
                    f"worst ratio {worst:.12f}; multi-atom worst {multi}"),
        attains,
    ]


def _loop_herglotz(q, alpha, samples, seed):
    if alpha != 0.0:
        return [CheckResult("measure representation requires alpha = 0", False,
                            f"alpha = {alpha}")]
    params = ClassParams(q=q, alpha=0.0, order=16)
    worst = 0.0
    for m in _measures(seed, samples):
        f_a = starlike_from_p(p_series(m, params.order), params)
        f_b = herglotz_starlike(m, params)
        diff = np.abs(f_a.coeffs - f_b.coeffs) / np.maximum(1.0, np.abs(f_a.coeffs))
        worst = max(worst, float(diff.max()))
    lnq = math.log(q)
    worst_log = 0.0
    for m in _measures(seed + 1, samples):
        p = p_series(m, params.order)
        f = starlike_from_p(p, params)
        phi = ps.log(ps.div_z(f))
        target = p.coeffs[1:params.order] * lnq / (
            np.power(q, np.arange(1, params.order)) - 1.0)
        worst_log = max(worst_log, float(np.abs(phi.coeffs[1:] - target).max()))
    return [
        CheckResult("functional-equation and exponent routes agree",
                    worst <= 1e-9, f"max relative coeff diff {worst:.3e}"),
        CheckResult("log(f/z) matches the exponent coefficients",
                    worst_log <= 1e-10, f"max diff {worst_log:.3e}"),
    ]


def _loop_membership(q, alpha, samples, seed):
    params = ClassParams(q=q, alpha=alpha, order=192)
    results = []
    for name, f, check in (
        ("one-atom generator", f1_series(params), membership_starlike),
        ("two-atom generator", f2_series(params), membership_starlike),
        ("q-integral extremal", eq_series(params), membership_convex),
    ):
        rep = check(f, params)
        results.append(CheckResult(
            f"{name} certificate", rep.passed,
            f"worst margin {rep.worst_margin:.3e} at {rep.worst_point:.3f},"
            f" unresolved {rep.unresolved}"))
    worst = -math.inf
    ok = True
    for m in _measures(seed, max(2, samples // 10)):
        f = convex_from_h(p_series(m, params.order), params)
        rep = membership_convex(f, params)
        ok = ok and rep.passed
        worst = max(worst, rep.worst_margin)
    results.append(CheckResult("product-route members certify convex", ok,
                               f"worst margin {worst:.3e}"))
    return results


LOOPS = {"qcalc": _loop_qcalc, "fs": _loop_fs, "hankel": _loop_hankel,
         "bieberbach": _loop_bieberbach, "herglotz": _loop_herglotz,
         "membership": _loop_membership}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _agree(a: float, b: float) -> bool:
    """Equal, or within 1e-12 relative to max(|a|, |b|, 1): the fs slack
    is a difference of O(1) bound and value, so near zero it is absolute."""
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


# -- batch against the reference ----------------------------------------------


@pytest.mark.parametrize(("seed", "samples", "block"),
                         [(1, 100, None), (2, 100, None), (3, 100, None),
                          (1, 200, 16)],
                         ids=["1", "2", "3", "1-200-block16"])
@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("suite", SUITES)
def test_batch_matches_one_at_a_time(suite, q, alpha, seed, samples, block,
                                     monkeypatch):
    """With 16-sample blocks every statistic crosses block boundaries, on one
    thread and on three (membership's 20 certificates span two blocks)."""
    runs = []
    if block:
        monkeypatch.setattr(explorer, "BLOCK", block)
        for threads in ("1", "3"):
            monkeypatch.setenv("QSCHLICHT_THREADS", threads)
            runs.append(run_suite(suite, q, alpha, samples, seed))
    else:
        runs.append(run_suite(suite, q, alpha, samples, seed))
    want = LOOPS[suite](q, alpha, samples, seed)
    for got in runs:
        assert [(r.name, r.passed) for r in got] == [(r.name, r.passed)
                                                      for r in want]
        for g, w in zip(got, want):
            if g.detail == w.detail:
                continue
            # only the printed digits may differ, and only by rounding
            assert _NUMBER.sub("#", g.detail) == _NUMBER.sub("#", w.detail)
            pairs = zip(_NUMBER.findall(g.detail), _NUMBER.findall(w.detail))
            assert all(_agree(float(x), float(y)) for x, y in pairs), (g, w)


def test_herglotz_rows_pass_down_to_their_smallest_q():
    # the log row's 1e-10 limit is lost to cancellation below q 0.2 (at
    # q 1e-12 by 6.8e2); smaller q is refused, not reported as FAIL
    for seed in range(1, 41):
        assert all(r.passed for r in run_suite("herglotz", 0.2, 0.0, 200, seed))
    for q in (0.199, 1e-12):
        with pytest.raises(RangeError, match="herglotz suite needs q >= 0.2"):
            run_suite("herglotz", q, 0.0, 200, 1)


@pytest.mark.parametrize("seed", [-3, 1.5, np.float64(2.0)])
@pytest.mark.parametrize("suite", SUITES)
def test_seed_must_be_a_non_negative_integer(suite, seed):
    # 1.5 would otherwise draw seed 1's samples (qcalc: a numpy TypeError)
    with pytest.raises(ConfigError, match="seed"):
        run_suite(suite, 0.5, 0.0, 5, seed)


@pytest.mark.parametrize("suite", SUITES)
def test_samples_must_be_an_integer(suite):
    # 2.5 used to end in a bare numpy TypeError
    with pytest.raises(RangeError, match="samples must be an integer"):
        run_suite(suite, 0.5, 0.0, 2.5, 1)


@pytest.mark.parametrize("q", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_bieberbach_equality_row_checks_a_second_route(q, monkeypatch):
    """The bound table is E_q's own coefficients, so the row compares it
    with the one-atom p-route member; a table off by 1e-8 fails it."""
    row = run_suite("bieberbach", q, 0.0, 10, 1)[1]
    assert row.name == "q-integral extremal attains equality" and row.passed
    assert float(row.detail.rsplit(" ", 1)[1]) <= 1e-13
    table = verify.bieberbach_bound_convex
    monkeypatch.setattr(verify, "bieberbach_bound_convex",
                        lambda params, n: table(params, n) * (1.0 + 1e-8))
    assert not run_suite("bieberbach", q, 0.0, 10, 1)[1].passed


def test_bieberbach_equality_row_reports_the_shortfall_for_positive_alpha():
    # E_q is not attained in the class for alpha > 0 (README finding 3)
    row = run_suite("bieberbach", 0.5, 0.3, 10, 1)[1]
    assert row.name == "q-integral extremal attains equality" and row.passed
    assert row.detail.startswith("not attained for alpha > 0 (report only)")
    assert "|b_n|/bound_n 0.036841 .. 0.914394" in row.detail


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_membership_extremal_row_is_the_one_atom_certificate(q, alpha):
    """Dq E_q = f1/z: the q-integral extremal row reuses the one-atom
    certificate, and prints what E_q's own convex certificate prints."""
    rows = {r.name: r for r in run_suite("membership", q, alpha, 20, 1)}
    one = rows["one-atom generator certificate"]
    eq = rows["q-integral extremal certificate"]
    assert (eq.passed, eq.detail) == (one.passed, one.detail)
    params = ClassParams(q=q, alpha=alpha, order=192)
    rep = membership_convex(eq_series(params), params)
    assert rep.passed == eq.passed
    assert eq.detail == (f"worst margin {rep.worst_margin:.3e} at"
                         f" {rep.worst_point:.3f}, unresolved {rep.unresolved}")


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_per_sample_scores_match_the_constructors(q, alpha):
    """The suite statistics are extremes that one-atom samples often pin
    (the Bieberbach worst ratio reads 1 exactly), so check every sample."""
    rows = _suite_samples(7, 60)
    ratios = _bieberbach_scores(*rows, q, alpha, 10)
    mus = (-1.0, 0.5 + 0.5j)
    fs = _starlike_scores("fs", *rows, q, alpha, mus)
    h22 = _starlike_scores("h22", *rows, q, alpha, (None,))[None]
    params = ClassParams(q=q, alpha=alpha, order=12)
    for i, m in enumerate(_measures(7, 60)):
        p = p_series(m, params.order)
        f = convex_from_h(p, params)
        # numpy's array abs and its scalar abs may differ in the last bit
        assert _agree(ratios[i], max(abs(f.coeffs[n]) / bieberbach_bound_convex(
            params, n) for n in range(2, 11)))
        f = starlike_from_p(p, params)
        for mu in mus:
            assert fs[mu][i] == fekete_szego_value(f, mu)
        assert h22[i] == hankel_value(f)


def test_qcalc_suite_fails_on_a_wrong_dq_core(monkeypatch):
    # the round trips run the core dq runs, so a broken dq fails them
    assert verify._dq_core is q_calculus._dq_core

    def wrong(c, q):  # [n]_q one degree off
        br = q_calculus._brackets(c.shape[0] - 1, q)[:-1]
        return c[1:] * br.reshape(br.shape + (1,) * (c.ndim - 1))

    monkeypatch.setattr(verify, "_dq_core", wrong)
    rows = run_suite("qcalc", 0.5, 0.0, 10, 1)
    assert [r.passed for r in rows] == [False, False, True]


@pytest.mark.parametrize("samples", [1, 10, 37])
def test_qcalc_single_draw_is_the_sequential_stream(samples):
    n = max(samples, 10)
    one = np.random.default_rng(samples)
    draws = one.standard_normal((n, 2, 33))
    seq = np.random.default_rng(samples)
    for row in draws:
        assert np.array_equal(row[0], seq.standard_normal(33))
        assert np.array_equal(row[1], seq.standard_normal(33))
    # the draw after the batch (the jackson_sum cubic) is the same too
    assert np.array_equal(one.standard_normal(4), seq.standard_normal(4))


# -- one sampler ---------------------------------------------------------------


@given(seed=st.integers(0, 2**63), count=st.integers(1, 40),
       alpha=st.sampled_from([0.0, 0.3]))
@settings(max_examples=40)
def test_suite_rows_are_the_first_rows_of_a_sweep_group(seed, count, alpha):
    # the oracle's rows are the sweep's, and the hankel suite's empirical
    # maximum is that of an h22 sweep group over the same samples
    weights, angles = _suite_samples(seed, count)
    ref_w, ref_a = reference_group_samples(seed, 0, count, 4)
    assert np.array_equal(weights, ref_w.T)
    assert np.array_equal(angles, ref_a.T)
    cfg = SweepConfig(functional="h22", seed=seed, samples=count,
                      q_grid=(0.5,), alpha_grid=(alpha,), k_atoms=4,
                      include_extremals=False)
    (cell,) = run_sweep(cfg, workers=1)["cells"]
    detail = run_suite("hankel", 0.5, alpha, count, seed)[-1].detail
    empirical = re.match(r"empirical (\S+) vs", detail).group(1)
    assert empirical == f"{cell['empirical_max']:.9f}"


def test_suite_memory_does_not_grow_with_samples(monkeypatch):
    # blocks are drawn and reduced one at a time, so the traced peak is one
    # block's arrays at any sample count; on one thread, since with two the
    # overlap of their blocks' arrays moves the peak by about 2 MB run to run
    monkeypatch.setenv("QSCHLICHT_THREADS", "1")
    runs = [(suite, 0.0, BLOCK) for suite in ("fs", "hankel", "bieberbach",
                                              "herglotz")]
    runs.append(("membership", 0.3, 64))  # ten samples per certificate
    for suite, alpha, block in runs:
        monkeypatch.setattr(explorer, "BLOCK", block)
        peaks = []
        for samples in ((4 * block, 32 * block) if suite != "membership"
                        else (40 * block, 320 * block)):
            run_suite(suite, 0.5, alpha, samples, 1)  # its scratch buffers
            tracemalloc.start()
            try:
                run_suite(suite, 0.5, alpha, samples, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6, (suite, peaks)


@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, MAX_ATOMS))
@settings(max_examples=80)
def test_sample_measure_is_the_documented_draw(seed, k):
    m = sample_measure(seed, k)
    # the seed-to-measure map as documented, computed alone
    draws = np.random.default_rng(seed).random(2 * k)
    raw = 0.05 + 0.95 * draws[k:]
    total = 0.0
    for w in raw:  # the weights' sum in atom-index order
        total += float(w)
    assert np.array_equal(m.weights, raw / total)
    assert np.array_equal(m.angles, np.mod(2.0 * math.pi * draws[:k],
                                           2.0 * math.pi))
