import math

import numpy as np
import pytest

from qschlicht import power_series as ps
from qschlicht.caratheodory import AtomicMeasure, p_series
from qschlicht.extremal import eq_series, f1_series, f2_series, \
    f_exponent_series
from qschlicht.q_calculus import ClassParams, q_bracket
from qschlicht.schlicht import _functional_equation_core, \
    membership_convex, membership_starlike, starlike_from_p


class TestExponentSeries:
    def test_alpha_zero_first_coefficient(self):
        f = f_exponent_series(ClassParams(q=0.5, order=8))
        assert f.coeffs[1].real == pytest.approx(2.7725887222397812, abs=1e-13)

    def test_alpha_half_first_coefficient(self):
        f = f_exponent_series(ClassParams(q=0.5, alpha=0.5, order=8))
        assert f.coeffs[1].real == pytest.approx(1.6218604324326575, abs=1e-13)

    def test_classical_limit_coefficients(self):
        # coefficients approach 2(1-alpha)/n as q -> 1
        for alpha in (0.0, 0.5):
            f = f_exponent_series(ClassParams(q=1 - 1e-6, alpha=alpha, order=8))
            n = np.arange(1, 9)
            assert np.abs(f.coeffs[1:].real - 2 * (1 - alpha) / n).max() <= 1e-4

    def test_constant_term_zero(self):
        assert f_exponent_series(ClassParams(q=0.3, alpha=0.2)).coeffs[0] == 0


class TestOneAtomGenerator:
    def test_frozen_coefficients(self):
        f = f1_series(ClassParams(q=0.5, order=8))
        assert f.coeffs[2].real == pytest.approx(2.7725887222397812, abs=1e-12)
        assert f.coeffs[3].real == pytest.approx(5.6920165928387989, abs=1e-11)
        assert f.coeffs[4].real == pytest.approx(10.261431515717843, abs=1e-10)

    def test_matches_measure_construction_alpha_zero(self):
        params = ClassParams(q=0.5, order=16)
        p = p_series(AtomicMeasure(np.array([1.0]), np.array([0.0])), 16)
        # the public member (the exponent route) and the recursion
        for f in (starlike_from_p(p, params).coeffs,
                  _functional_equation_core(p.coeffs[:16], 0.5, 0.0)):
            assert np.abs(f - f1_series(params).coeffs).max() <= 1e-10

    def test_koebe_limit(self):
        # convergence rate is (1-q) n(n-1)/2, so 1e-4 gives 2.8e-3 at n=8
        f = f1_series(ClassParams(q=1 - 1e-4, order=8))
        n = np.arange(9)
        err = np.abs(f.coeffs.real - n)
        assert err.max() <= 3e-3
        assert err[:5].max() <= 1.1e-3

    def test_membership(self):
        for q in (0.2, 0.5, 0.8):
            params = ClassParams(q=q, order=128)
            assert membership_starlike(f1_series(params), params).passed


class TestTwoAtomGenerator:
    def test_even_coefficients_vanish(self):
        for q in (0.2, 0.5, 0.8):
            for alpha in (0.0, 0.4):
                f = f2_series(ClassParams(q=q, alpha=alpha, order=12))
                assert np.abs(f.coeffs[2::2]).max() == 0.0

    def test_first_odd_coefficient(self):
        f = f2_series(ClassParams(q=0.5, order=8))
        assert f.coeffs[3].real == pytest.approx(1.8483924814931875, abs=1e-12)

    def test_matches_two_atom_measure(self):
        params = ClassParams(q=0.5, order=16)
        m = AtomicMeasure(np.array([0.5, 0.5]), np.array([0.0, math.pi]))
        p = p_series(m, 16)
        for f in (starlike_from_p(p, params).coeffs,
                  _functional_equation_core(p.coeffs[:16], 0.5, 0.0)):
            assert np.abs(f - f2_series(params).coeffs).max() <= 1e-10


@pytest.mark.parametrize("order", [6, 8, 192])
@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
def test_paired_generators_equal_the_exp_of_their_own_exponent(q, alpha, order):
    # f1 and f2 are the two columns of one exp; each must be bitwise the
    # single-series exp of its own exponent, zero even terms of f2 included
    params = ClassParams(q=q, alpha=alpha, order=order)
    exponent = f_exponent_series(params).coeffs[:order]
    even = exponent.copy()
    even[1::2] = 0.0
    want_f1, want_f2 = (ps.times_z(ps.exp(ps.TruncatedSeries(e)))
                        for e in (exponent, even))
    f1, f2 = f1_series(params), f2_series(params)
    assert f1.coeffs.tobytes() == want_f1.coeffs.tobytes()
    assert f2.coeffs.tobytes() == want_f2.coeffs.tobytes()
    assert not np.any(f2.coeffs[::2])


class TestQIntegralExtremal:
    def test_frozen_values(self):
        params = ClassParams(q=0.5, order=8)
        c, e_q = f1_series(params).coeffs.real, eq_series(params)
        assert c[2] == pytest.approx(2.7725887222397812, abs=1e-12)
        assert c[3] == pytest.approx(5.6920165928387989, abs=1e-11)
        assert e_q.coeffs[2].real == pytest.approx(1.8483924814931875, abs=1e-12)
        assert e_q.coeffs[3].real == pytest.approx(3.2525809101935994, abs=1e-11)

    def test_bracket_relation_exact(self):
        for q, alpha in ((0.2, 0.0), (0.5, 0.3), (0.8, 0.7)):
            params = ClassParams(q=q, alpha=alpha, order=16)
            c, e_q = f1_series(params).coeffs.real, eq_series(params)
            for n in range(2, 17):
                assert e_q.coeffs[n] == c[n] / q_bracket(n, q)

    def test_coefficients_positive(self):
        for q in (0.2, 0.5, 0.8):
            for alpha in (0.0, 0.3, 0.7):
                c = f1_series(ClassParams(q=q, alpha=alpha, order=16)).coeffs
                assert np.all(c.real[1:] > 0)

    def test_classical_convex_limit(self):
        e_q = eq_series(ClassParams(q=1 - 1e-4, order=8))
        assert np.abs(e_q.coeffs[2:].real - 1.0).max() <= 1e-3

    def test_classical_cn_limit_alpha_half(self):
        c = f1_series(ClassParams(q=1 - 1e-4, alpha=0.5, order=8)).coeffs.real
        # prod_{k=2..n}(k - 1)/(n-1)! = 1 for every n
        assert np.abs(c[2:7] - 1.0).max() <= 1e-2

    def test_membership_alpha_zero(self):
        for q in (0.2, 0.5, 0.8):
            params = ClassParams(q=q, order=128)
            assert membership_convex(eq_series(params), params).passed

