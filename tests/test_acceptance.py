"""End-to-end acceptance checks: closed-form targets and property sweeps at
pinned tolerances.  Each criterion prints one PASS/FAIL line (run with -s).

C8 documents a genuine finding rather than a bug: the exp-form candidate
extremals and the q-integral extremal leave their classes for large alpha
(the defining inequality fails on the evaluation grid), and the classical
half-plane map is only convex-type of order alpha at alpha = 0.  The failing
cells are listed by the test and re-derived from closed forms in
test_c08_supporting_closed_form, which passes: the library detects the
violations correctly; the blanket membership claim itself is false.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qschlicht as qs
from qschlicht import power_series as ps
from qschlicht.caratheodory import p_series, sample_measure
from qschlicht.explorer import SweepConfig, canonical_json, run_sweep
from qschlicht.q_calculus import ClassParams, dq, iq, jackson_sum
from qschlicht.schlicht import _POINTS
from parametrization_inverse import DegenerateParametrizationError, \
    recover_xi_zeta, rotation_normalized

Q_GRID = (0.2, 0.5, 0.8)
ALPHA_GRID = (0.0, 0.3, 0.7)
MU_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0, 0.5 + 0.5j)
SEED = 20260810


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_c01_q_calculus_identities():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_a = worst_b = 0.0
    for i in range(100):
        q = (0.2, 0.5, 0.8)[i % 3]
        f = ps.from_coeffs(rng.standard_normal(33) + 1j * rng.standard_normal(33))
        target = f.coeffs.copy()
        target[0] = 0.0
        worst_a = max(worst_a, float(np.abs(iq(dq(f, q), q).coeffs - target).max()))
        worst_b = max(worst_b, float(np.abs(dq(iq(f, q), q).coeffs - f.coeffs).max()))
    worst_j = 0.0
    for i in range(20):
        q = (0.2, 0.5, 0.8)[i % 3]
        poly = ps.from_coeffs(rng.standard_normal(4))
        x = 0.2 + 0.6 * rng.random()
        js = jackson_sum(lambda t: ps.eval_at(poly, t), x, q)
        worst_j = max(worst_j, abs(js - ps.eval_at(iq(poly, q), x)))
    elapsed = time.time() - t0
    ok = worst_a <= 1e-12 and worst_b <= 1e-12 and worst_j <= 1e-10 and elapsed < 1.0
    _report("C1 (q-calculus identities)", ok,
            f"roundtrips {worst_a:.2e}/{worst_b:.2e}, jackson {worst_j:.2e}, "
            f"{elapsed:.2f}s")
    assert worst_a <= 1e-12
    assert worst_b <= 1e-12
    assert worst_j <= 1e-10
    assert elapsed < 1.0


def test_c02_construction_consistency_alpha_zero():
    from qschlicht.schlicht import _functional_equation_core, starlike_from_p

    # starlike_from_p is the exponent route at alpha = 0, so the
    # functional-equation recursion is built explicitly as the second route
    worst_pair = worst_log = 0.0
    for q in Q_GRID:
        params = ClassParams(q=q, order=16)
        lnq = math.log(q)
        denom = np.power(q, np.arange(1.0, 16.0)) - 1.0
        for seed in range(1000):
            m = sample_measure(seed, 1 + seed % 4)
            p = p_series(m, 16)
            fa = ps.TruncatedSeries(_functional_equation_core(p.coeffs[:16], q, 0.0))
            fb = starlike_from_p(p, params)
            worst_pair = max(worst_pair, float(np.abs(fa.coeffs - fb.coeffs).max()))
            phi = ps.log(ps.div_z(fa))
            target = p.coeffs[1:16] * lnq / denom
            worst_log = max(worst_log, float(np.abs(phi.coeffs[1:] - target).max()))
    ok = worst_pair <= 1e-9 and worst_log <= 1e-10
    _report("C2 (construction consistency)", ok,
            f"route gap {worst_pair:.2e}, exponent gap {worst_log:.2e}")
    assert worst_pair <= 1e-9
    assert worst_log <= 1e-10


def test_c03_fekete_szego_attainment():
    worst = 0.0
    for q in Q_GRID:
        params = ClassParams(q=q, order=6)
        value = qs.fekete_szego_value(qs.f1_series(params), 0.0)
        bound = qs.fs_bound(params, 0.0).value
        worst = max(worst, abs(value - bound))
        if q == 0.5:
            mid_gap = abs(value - 5.6920166)
    ok = worst <= 1e-8 and mid_gap <= 1e-6
    _report("C3 (Fekete-Szego attainment)", ok,
            f"max |value-bound| {worst:.2e}, q=0.5 anchor gap {mid_gap:.2e}")
    assert worst <= 1e-8
    assert mid_gap <= 1e-6


def test_c04_fekete_szego_sweep():
    t0 = time.time()
    cfg = SweepConfig(functional="fs", seed=SEED, samples=100_000,
                      q_grid=Q_GRID, alpha_grid=(0.0,), mu_grid=MU_GRID)
    rep = run_sweep(cfg)
    elapsed = time.time() - t0
    min_slack = min(c["slack"] for c in rep["cells"])
    violated = [c for c in rep["cells"] if c["violated"]]
    ok = not violated and min_slack >= -1e-7 and elapsed < 180
    _report("C4 (bound sweep, 1e5 samples)", ok,
            f"18 cells, min slack {min_slack:.2e}, {elapsed:.1f}s")
    assert not violated
    assert min_slack >= -1e-7
    assert elapsed < 180


def test_c05_hankel_values_and_flagged_sweep():
    params = ClassParams(q=0.5, order=6)
    v2 = qs.hankel_value(qs.f2_series(params))
    v1 = qs.hankel_value(qs.f1_series(params))
    bound = qs.hankel_bound(params).value
    cfg = SweepConfig(functional="h22", seed=SEED, samples=5000, q_grid=(0.5,))
    rep_a = run_sweep(cfg)
    rep_b = run_sweep(cfg)
    cell = rep_a["cells"][0]
    reproducible = canonical_json(rep_a) == canonical_json(rep_b)
    ok = (abs(v2 - bound) <= 1e-8 and abs(v1 - 3.9483237) <= 1e-5
          and cell["violated"] and reproducible
          and abs(cell["extremals"]["f1"] - v1) <= 1e-9)
    _report("C5 (Hankel values; flagged exceedance)", ok,
            f"F2 gap {abs(v2 - bound):.2e}, F1 {v1:.7f} flagged="
            f"{cell['violated']}, reproducible={reproducible}")
    assert abs(v2 - bound) <= 1e-8
    assert abs(v1 - 3.9483237) <= 1e-5
    # the one-atom value exceeds the stated bound; the sweep must flag it
    assert cell["violated"] and reproducible


def test_c06_scalar_majorants():
    worst_fg = 0.0
    for q in np.arange(0.1, 0.95, 0.1):
        for c in (0.0, 0.5, 1.0, 1.5, 2.0):
            f_val, g_val, _ = qs.t4_scalars(c, 1.0, float(q))
            worst_fg = max(worst_fg, abs(f_val - g_val))
    a_min = min(qs.t4_scalars(1.0, 0.5, float(q))[2]
                for q in np.arange(0.05, 0.951, 0.05))
    exact = all(
        qs.t4_scalars(0.0, 1.0, q)[1] == qs.hankel_bound(ClassParams(q)).value
        for q in Q_GRID)
    ok = worst_fg <= 1e-12 and a_min > 0 and exact
    _report("C6 (scalar majorants)", ok,
            f"max |F(1)-G| {worst_fg:.2e}, min A {a_min:.4f}, G(0)=4L2^2 {exact}")
    assert worst_fg <= 1e-12
    assert a_min > 0
    assert exact


def test_c07_classical_limits():
    q = 1 - 1e-4
    params = ClassParams(q=q, order=16)
    worst_fs = max(abs(qs.fs_bound(params, mu).value
                       - max(1.0, abs(3.0 - 4.0 * mu))) for mu in MU_GRID)
    hank_gap = abs(qs.hankel_bound(params).value - 1.0)
    worst_bieb = max(abs(qs.bieberbach_bound_convex(params, n) - 1.0)
                     for n in range(2, 9))
    c = qs.f1_series(ClassParams(q=q, alpha=0.5, order=8)).coeffs.real
    worst_cn = max(abs(c[n] - 1.0) for n in range(2, 7))
    ok = (worst_fs <= 5e-3 and hank_gap <= 2e-3 and worst_bieb <= 2e-3
          and worst_cn <= 1e-2)
    _report("C7 (classical limits)", ok,
            f"fs {worst_fs:.2e}, hankel {hank_gap:.2e}, coeff {worst_bieb:.2e}, "
            f"c_n {worst_cn:.2e}")
    assert worst_fs <= 5e-3
    assert hank_gap <= 2e-3
    assert worst_bieb <= 2e-3
    assert worst_cn <= 1e-2


def _closed_form_grid():
    return _POINTS.ravel()


def _closed_form_excess(kind, q, alpha):
    """Truncation-free class-inequality excess for the named generators."""
    z = _closed_form_grid()
    la = math.log(q / (1 - alpha * (1 - q)))
    if kind == "f1_or_eq":
        g = q * np.exp(2 * la * z / (1 - z))
    elif kind == "f2":
        g = q * np.exp(2 * la * z * z / (1 - z * z))
    else:  # classical half-plane map, convex criterion
        g = q * (1 - z) / (1 - q * q * z)
    return float((np.abs(g - alpha * q) - (1 - alpha)).max())


def test_c08_membership_certificates():
    failures = []
    geo = ps.TruncatedSeries(np.r_[0.0, np.ones(192)])
    for q in Q_GRID:
        for alpha in ALPHA_GRID:
            params = ClassParams(q=q, alpha=alpha, order=192)
            checks = [
                ("f1/starlike", qs.membership_starlike(qs.f1_series(params), params)),
                ("f2/starlike", qs.membership_starlike(qs.f2_series(params), params)),
                ("eq/convex", qs.membership_convex(qs.eq_series(params), params)),
                ("geo/convex", qs.membership_convex(geo, params)),
            ]
            for seed in range(3):
                member = qs.convex_from_h(
                    p_series(sample_measure(seed, 1 + seed % 3), params.order),
                    params)
                checks.append((f"product{seed}/convex",
                               qs.membership_convex(member, params)))
            for name, rep in checks:
                if not rep.passed:
                    failures.append((name, q, alpha, round(rep.worst_margin, 4)))
    bad = ps.from_coeffs([0, 1, 5] + [0] * 30)
    bad_fails = not qs.membership_starlike(bad, ClassParams(q=0.5, order=32)).passed
    ok = not failures and bad_fails
    _report("C8 (membership certificates)", ok,
            f"violating cells: {failures or 'none'}; z+5z^2 rejected: {bad_fails}")
    assert bad_fails
    if failures:
        pytest.fail(
            "stated membership fails at these (generator, q, alpha, excess) "
            f"cells: {failures}. The violations are genuine (see "
            "test_c08_supporting_closed_form): for alpha(1+q) near/above 1 the "
            "candidate extremals leave the class, and the half-plane map is "
            "only order-0 convex-type. The certificates are reporting "
            "correctly; the blanket claim is false.")


def test_c08_supporting_closed_form():
    """Every cell C8 flags is violated in exact arithmetic as well, and every
    cell C8 certifies is clean in exact arithmetic on the same grid."""
    mismatches = []
    for q in Q_GRID:
        for alpha in ALPHA_GRID:
            params = ClassParams(q=q, alpha=alpha, order=192)
            pairs = [
                ("f1_or_eq", qs.membership_starlike(qs.f1_series(params), params)),
                ("f2", qs.membership_starlike(qs.f2_series(params), params)),
                ("geo", qs.membership_convex(
                    ps.TruncatedSeries(np.r_[0.0, np.ones(192)]), params)),
            ]
            for kind, rep in pairs:
                exact_excess = _closed_form_excess(kind, q, alpha)
                if rep.passed and exact_excess > 1e-7:
                    # certificate may honestly under-resolve edge-of-disk
                    # violations when the series has not converged there
                    if rep.unresolved == 0:
                        mismatches.append(("missed", kind, q, alpha, exact_excess))
                if not rep.passed and exact_excess <= 0:
                    mismatches.append(("spurious", kind, q, alpha, exact_excess))
    _report("C8-support (closed-form cross-check)", not mismatches,
            f"mismatches: {mismatches or 'none'}")
    assert not mismatches


def test_c09_bieberbach_sweep():
    cfg = SweepConfig(functional="bieberbach", seed=SEED, samples=10_000,
                      q_grid=Q_GRID, alpha_grid=ALPHA_GRID, n_check=10)
    rep = run_sweep(cfg)
    worst_ratio = max(c["empirical_max"] for c in rep["cells"])
    eq_gap = max(abs(c["extremals"]["eq"] - 1.0) for c in rep["cells"])
    ok = worst_ratio <= 1 + 1e-7 and eq_gap <= 1e-9
    _report("C9 (coefficient-bound sweep)", ok,
            f"worst ratio {worst_ratio:.12f}, extremal gap {eq_gap:.2e}")
    assert worst_ratio <= 1 + 1e-7
    assert eq_gap <= 1e-9


def test_c10_parametrization_properties():
    worst_xi = worst_zeta = 0.0
    degenerate = 0
    for seed in range(10_000):
        m = rotation_normalized(sample_measure(seed, 1 + seed % 4))
        p = p_series(m, 3)
        p1 = float(p.coeffs[1].real)
        try:
            xi, zeta = recover_xi_zeta(p1, p.coeffs[2], p.coeffs[3])
        except DegenerateParametrizationError:
            degenerate += 1
            continue
        worst_xi = max(worst_xi, abs(xi))
        worst_zeta = max(worst_zeta, abs(zeta))
    lams = np.linspace(-2.0, 2.0, 41)
    worst_gap = math.inf
    for seed in range(10_000):
        p = p_series(sample_measure(seed, 1 + seed % 6), 2)
        p1, p2 = p.coeffs[1], p.coeffs[2]
        for lam in lams:
            gap = 2.0 * max(1.0, abs(2 * lam - 1)) - abs(p2 - lam * p1 * p1)
            worst_gap = min(worst_gap, gap)
    ok = worst_xi <= 1 + 1e-9 and worst_zeta <= 1 + 1e-6 and worst_gap >= -1e-9
    _report("C10 (coefficient parametrization)", ok,
            f"|xi| max {worst_xi:.9f}, |zeta| max {worst_zeta:.9f}, "
            f"{degenerate} degenerate skipped, min inequality slack {worst_gap:.2e}")
    assert worst_xi <= 1 + 1e-9
    assert worst_zeta <= 1 + 1e-6
    assert worst_gap >= -1e-9


def test_c11_search_determinism(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"report_w{workers}.json"
        env = dict(os.environ, QSCHLICHT_THREADS=str(workers))
        subprocess.run(
            [sys.executable, "-m", "qschlicht.cli", "search",
             "--functional", "fs", "--q-grid", "0.3,0.6",
             "--alpha-grid", "0,0.5", "--mu-grid", "0,0.5+0.5j",
             "--samples", "3000", "--seed", "77", "--out", str(out)],
            check=True, env=env, capture_output=True)
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report("C11 (worker-count determinism)", ok,
            f"{len(outputs[0])} bytes, identical across 1/2/8 workers: {ok}")
    assert ok
    json.loads(outputs[0])  # remains valid JSON
