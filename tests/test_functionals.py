import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschlicht import functionals
from qschlicht import power_series as ps
from qschlicht.caratheodory import MAX_ATOMS, p_series, sample_measure
from qschlicht.errors import RangeError
from qschlicht.explorer import _starlike_scores
from qschlicht.extremal import eq_series, f1_series, f2_series, \
    f_exponent_series
from qschlicht.functionals import (bieberbach_bound_convex,
                                   fekete_szego_value, fs_bound, hankel_bound,
                                   hankel_value, t4_scalars)
from qschlicht.q_calculus import ClassParams
from qschlicht.schlicht import starlike_from_p

MU_GRID = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 0.5 + 0.5j)


def half_exponent(q):
    """ln q/(q^n - 1) = F_n/2 at alpha = 0 for n = 1, 2, 3, as Python
    floats."""
    f = f_exponent_series(ClassParams(q)).coeffs.real
    return tuple(float(x) / 2.0 for x in f[1:4])


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
        with pytest.raises(RangeError, match="need coefficients up to a3"):
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

    @pytest.mark.parametrize("mu", [math.nan, math.inf, complex(0.5, -math.inf)])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(RangeError):
            fs_bound(ClassParams(q=0.5), mu)

    def test_branch_attainment(self):
        # one-atom generator attains the first branch, two-atom the second
        for q in (0.2, 0.5, 0.8):
            params = ClassParams(q=q, order=6)
            l1, l2 = half_exponent(q)[:2]
            f1, f2 = f1_series(params), f2_series(params)
            for mu in (0.0, 0.25, 0.5, 1.0):
                first = abs(2 * (1 - 2 * mu) * l1 ** 2 + 2 * l2)
                second = 2 * l2
                assert abs(fekete_szego_value(f1, mu) - first) <= 1e-8
                assert abs(fekete_szego_value(f2, mu) - second) <= 1e-8

    def test_scalar_inequality_chain(self):
        # the route through |p2 - lam p1^2| <= 2 max(1, |2 lam - 1|) majorizes
        # the functional for measure-generated members at alpha = 0
        q = 0.5
        params = ClassParams(q=q, order=8)
        l1, l2 = half_exponent(q)[:2]
        for seed in range(200):
            f = starlike_from_p(p_series(sample_measure(seed, 1 + seed % 4), 8),
                                params)
            for mu in (-0.5, 0.0, 0.5, 1.0):
                lam = (2 * mu - 1) * l1 ** 2 / (2 * l2)
                majorant = l2 * 2 * max(1.0, abs(2 * lam - 1))
                assert fekete_szego_value(f, mu) <= majorant + 1e-9


class TestHankel:
    def test_two_atom_value(self):
        f = f2_series(ClassParams(q=0.5, order=6))
        assert hankel_value(f) == pytest.approx(3.4165547656405435, abs=1e-11)

    def test_one_atom_value(self):
        f = f1_series(ClassParams(q=0.5, order=6))
        assert hankel_value(f) == pytest.approx(3.9483235986370536, abs=1e-10)

    def test_order_guard(self):
        with pytest.raises(RangeError, match="need coefficients up to a_4,"
                           " have order 3"):
            hankel_value(ps.identity(3))
        # hankel_value takes no n or signed: such a call fails instead of
        # returning |a2 a4 - a3^2| for it
        f = f2_series(ClassParams(q=0.5, order=6))
        for args in ((f, 1), (f, 2, 2)):
            with pytest.raises(TypeError):
                hankel_value(*args)
        with pytest.raises(TypeError):
            hankel_value(f, signed=True)

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
        l1, l2, l3 = half_exponent(q)
        params = ClassParams(q=q, order=8)
        for seed in range(200):
            p = p_series(sample_measure(seed, 1 + seed % 4), 8)
            f = starlike_from_p(p, params)
            p1, p2, p3 = p.coeffs[1], p.coeffs[2], p.coeffs[3]
            target = abs(p1 * p3 * l1 * l3 - p2 ** 2 * l2 ** 2
                         - p1 ** 4 * l1 ** 4 / 12)
            assert hankel_value(f) == pytest.approx(target, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(1, MAX_ATOMS),
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       alpha=st.sampled_from((0.0, 0.3, 0.7)),
       mu=st.one_of(st.floats(-3.0, 3.0),
                    st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                       allow_infinity=False)))
def test_series_scores_bitwise_as_its_sweep_column(seed, k, q, alpha, mu):
    m = sample_measure(seed, k)
    f = starlike_from_p(p_series(m, 7), ClassParams(q, alpha, order=8))
    w, a = m.weights[:, None], m.angles[:, None]
    assert fekete_szego_value(f, mu) == _starlike_scores(
        "fs", w, a, q, alpha, (mu,))[mu][0]
    assert hankel_value(f) == _starlike_scores(
        "h22", w, a, q, alpha, (None,))[None][0]


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
        e_q = eq_series(params)
        for n in range(2, 13):
            assert abs(e_q.coeffs[n]) == bieberbach_bound_convex(params, n)

    def test_n_guard(self):
        with pytest.raises(RangeError):
            bieberbach_bound_convex(ClassParams(q=0.5), 1)

    def test_one_table_per_params(self, monkeypatch):
        calls = []
        monkeypatch.setattr(functionals, "eq_series",
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
            l2 = half_exponent(q)[1]
            _, g, _ = t4_scalars(0.0, 1.0, q)
            assert g == 4.0 * (l2 * l2) == hankel_bound(ClassParams(q)).value

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


def t4_closed_form(c, rho, l1, l2, l3):
    """t4_scalars' (F(rho; c), G(c), A) in L_n = F_n/2, term for term."""
    p_term, s_term = l1 * l3, l2 * l2
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


@settings(max_examples=200, deadline=None)
@given(q=st.floats(0.01, 0.999), alpha=st.sampled_from((0.0, 0.3, 0.7)),
       mu=st.one_of(st.floats(-3.0, 3.0),
                    st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                       allow_infinity=False)),
       c=st.floats(0.0, 2.0), rho=st.floats(0.0, 1.0))
def test_every_bound_reads_the_class_exponent(q, alpha, mu, c, rho):
    # bitwise: each bound is its closed form in F_1..F_3 of the one table
    params = ClassParams(q, alpha, order=12)
    f = f_exponent_series(params).coeffs
    f1, f2 = (float(x) for x in f.real[1:3])
    r1, r2 = f1 / 2.0, f2 / 2.0
    mu = complex(mu)
    assert fs_bound(params, mu).value == max(
        abs(2.0 * (1.0 - 2.0 * mu) * r1 * r1 + 2.0 * r2), 2.0 * r2)
    assert hankel_bound(params).value == f2 * f2
    assert t4_scalars(c, rho, q) == t4_closed_form(c, rho, *half_exponent(q))
    even = f[:params.order].copy()
    even[1::2] = 0.0
    assert np.array_equal(f2_series(params).coeffs,
                          ps.times_z(ps.exp(ps.TruncatedSeries(even))).coeffs)
    table = [bieberbach_bound_convex(params, n) for n in range(2, 13)]
    assert table == eq_series(params).coeffs.real[2:].tolist()
