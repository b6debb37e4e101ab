import math

import numpy as np
import pytest

from qschlicht import extremal
from qschlicht import power_series as ps
from qschlicht.caratheodory import p_series, sample_measure
from qschlicht.errors import OrderTooSmallError, RangeError
from qschlicht.extremal import eq_series, f1_series, f2_series
from qschlicht.functionals import (bieberbach_bound_convex, compare_bound,
                                   fekete_szego_value, fs_bound, hankel_bound,
                                   hankel_value, t4_scalars)
from qschlicht.q_calculus import ClassParams, QLogRatios
from qschlicht.schlicht import starlike_from_p

MU_GRID = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 0.5 + 0.5j)


class TestFeketeSzego:
    def test_identity_member_is_zero(self):
        assert fekete_szego_value(ps.identity(4), 0.7) == 0.0

    def test_one_atom_value_mu_zero(self):
        f = f1_series(ClassParams(q=0.5, order=6))
        assert fekete_szego_value(f, 0.0) == pytest.approx(5.6920165928387989,
                                                           abs=1e-11)

    def test_two_atom_value_any_mu(self):
        f = f2_series(ClassParams(q=0.5, order=6))
        for mu in MU_GRID:
            assert fekete_szego_value(f, mu) == pytest.approx(
                1.8483924814931875, abs=1e-12)

    def test_order_guard(self):
        with pytest.raises(OrderTooSmallError):
            fekete_szego_value(ps.identity(2), 0.0)


class TestFsBound:
    def test_value_mu_zero(self):
        b = fs_bound(ClassParams(q=0.5), 0.0)
        assert b.value == pytest.approx(5.6920165928387989, abs=1e-12)
        assert not b.conjectural

    def test_branches_coincide_at_half(self):
        b = fs_bound(ClassParams(q=0.5), 0.5)
        assert b.value == pytest.approx(1.8483924814931875, abs=1e-12)

    def test_classical_limit(self):
        params = ClassParams(q=1 - 1e-4)
        for mu in (-1.0, 0.0, 0.5, 1.0, 2.0):
            target = max(1.0, abs(3.0 - 4.0 * mu))
            assert abs(fs_bound(params, mu).value - target) <= 1e-3

    def test_conjectural_flag(self):
        assert fs_bound(ClassParams(q=0.5, alpha=0.2), 0.0).conjectural

    def test_branch_attainment(self):
        # one-atom generator attains the first branch, two-atom the second
        for q in (0.2, 0.5, 0.8):
            params = ClassParams(q=q, order=6)
            r = QLogRatios(q, 0.0)
            f1, f2 = f1_series(params), f2_series(params)
            for mu in (0.0, 0.25, 0.5, 1.0):
                first = abs(2 * (1 - 2 * mu) * r.l1 ** 2 + 2 * r.l2)
                second = 2 * r.l2
                assert abs(fekete_szego_value(f1, mu) - first) <= 1e-8
                assert abs(fekete_szego_value(f2, mu) - second) <= 1e-8

    def test_scalar_inequality_chain(self):
        # the route through |p2 - lam p1^2| <= 2 max(1, |2 lam - 1|) majorizes
        # the functional for measure-generated members at alpha = 0
        q = 0.5
        params = ClassParams(q=q, order=8)
        r = QLogRatios(q, 0.0)
        for seed in range(200):
            f = starlike_from_p(p_series(sample_measure(seed, 1 + seed % 4), 8),
                                params)
            for mu in (-0.5, 0.0, 0.5, 1.0):
                lam = (2 * mu - 1) * r.l1 ** 2 / (2 * r.l2)
                majorant = r.l2 * 2 * max(1.0, abs(2 * lam - 1))
                assert fekete_szego_value(f, mu) <= majorant + 1e-9


class TestHankel:
    def test_h21_equals_fekete_at_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            coeffs = np.r_[0.0, 1.0, rng.standard_normal(4)]
            f = ps.from_coeffs(coeffs)
            assert hankel_value(f, 2, 1) == pytest.approx(
                fekete_szego_value(f, 1.0), abs=1e-13)

    def test_two_atom_value(self):
        f = f2_series(ClassParams(q=0.5, order=6))
        assert hankel_value(f, 2, 2) == pytest.approx(3.4165547656405435,
                                                      abs=1e-11)

    def test_one_atom_value(self):
        f = f1_series(ClassParams(q=0.5, order=6))
        assert hankel_value(f, 2, 2) == pytest.approx(3.9483235986370536,
                                                      abs=1e-10)

    def test_signed_classical_koebe(self):
        koebe = ps.from_coeffs(np.arange(7, dtype=float))
        det = hankel_value(koebe, 2, 2, signed=True)
        assert det == pytest.approx(-1.0)

    def test_order_guard(self):
        with pytest.raises(OrderTooSmallError):
            hankel_value(ps.identity(3), 2, 2)

    def test_bound_values(self):
        assert hankel_bound(ClassParams(q=0.5)).value == pytest.approx(
            3.4165547656405435, abs=1e-12)
        assert hankel_bound(ClassParams(q=0.5, alpha=0.5)).value == pytest.approx(
            1.1690805610180653, abs=1e-12)
        assert hankel_bound(ClassParams(q=0.5, alpha=0.5)).conjectural

    def test_bound_classical_limit(self):
        assert abs(hankel_bound(ClassParams(q=1 - 1e-4)).value - 1.0) <= 1e-3

    def test_p_coefficient_identity(self):
        # a2 a4 - a3^2 collapses to p1 p3 L1 L3 - p2^2 L2^2 - p1^4 L1^4/12
        q = 0.5
        r = QLogRatios(q, 0.0)
        params = ClassParams(q=q, order=8)
        for seed in range(200):
            p = p_series(sample_measure(seed, 1 + seed % 4), 8)
            f = starlike_from_p(p, params)
            p1, p2, p3 = p.coeffs[1], p.coeffs[2], p.coeffs[3]
            target = abs(p1 * p3 * r.l1 * r.l3 - p2 ** 2 * r.l2 ** 2
                         - p1 ** 4 * r.l1 ** 4 / 12)
            assert hankel_value(f, 2, 2) == pytest.approx(target, abs=1e-9)


class TestBieberbachBound:
    def test_value_n2(self):
        assert bieberbach_bound_convex(ClassParams(q=0.5), 2) == pytest.approx(
            1.8483924814931875, abs=1e-12)

    def test_classical_limit(self):
        params = ClassParams(q=1 - 1e-4, order=16)
        for n in range(2, 9):
            assert abs(bieberbach_bound_convex(params, n) - 1.0) <= 1e-3

    def test_extremal_attains_exactly(self):
        params = ClassParams(q=0.5, alpha=0.3, order=12)
        res = eq_series(params)
        for n in range(2, 13):
            assert abs(res.e_q.coeffs[n]) == bieberbach_bound_convex(params, n)

    def test_n_guard(self):
        with pytest.raises(RangeError):
            bieberbach_bound_convex(ClassParams(q=0.5), 1)

    def test_one_table_per_params(self, monkeypatch):
        calls = []
        monkeypatch.setattr(extremal, "eq_series",
                            lambda params: calls.append(params) or eq_series(params))
        params = ClassParams(q=0.4375, alpha=0.125, order=11)
        first = [bieberbach_bound_convex(params, n) for n in range(2, 12)]
        again = [bieberbach_bound_convex(ClassParams(q=0.4375, alpha=0.125,
                                                     order=11), n)
                 for n in range(2, 12)]
        assert calls == [params]
        assert first == again


class TestT4Scalars:
    def test_g_at_zero_is_stated_bound(self):
        for q in (0.2, 0.5, 0.8):
            r = QLogRatios(q, 0.0)
            _, g, _ = t4_scalars(0.0, 1.0, q)
            assert g == 4.0 * (r.l2 * r.l2)

    def test_f_at_one_equals_g(self):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            for c in (0.0, 0.5, 1.0, 1.5, 2.0):
                f, g, _ = t4_scalars(c, 1.0, q)
                assert abs(f - g) <= 1e-12

    def test_a_positive_on_grid(self):
        for q in np.arange(0.05, 0.96, 0.05):
            _, _, a = t4_scalars(1.0, 0.5, float(q))
            assert a > 0

    def test_g_at_two_exceeds_stated_bound(self):
        # the one-atom generator value (4/3) A sits above G(0) = 4 L2^2
        _, g2, a = t4_scalars(2.0, 1.0, 0.5)
        _, g0, _ = t4_scalars(0.0, 1.0, 0.5)
        assert g2 == pytest.approx(4.0 / 3.0 * a, abs=1e-12)
        assert g2 == pytest.approx(3.9483235986370536, abs=1e-10)
        assert g2 > g0

    def test_f_increasing_in_rho(self):
        for q in (0.2, 0.5, 0.8):
            for c in (0.0, 0.5, 1.0, 1.5, 2.0):
                values = [t4_scalars(c, rho, q)[0]
                          for rho in np.linspace(0, 1, 11)]
                assert np.all(np.diff(values) >= -1e-14)

    def test_domain_guards(self):
        with pytest.raises(RangeError):
            t4_scalars(-0.1, 0.5, 0.5)
        with pytest.raises(RangeError):
            t4_scalars(1.0, 1.5, 0.5)
        with pytest.raises(RangeError):
            t4_scalars(1.0, 0.5, 1.0)


def test_compare_bound():
    cmp = compare_bound(1.0, 1.0 + 5e-10, tol=1e-9)
    assert cmp.attained and cmp.slack == pytest.approx(5e-10)
    cmp = compare_bound(2.0, 1.0, tol=1e-9)
    assert not cmp.attained and cmp.slack == -1.0
