import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschlicht import power_series as ps
from qschlicht.errors import NonConvergenceError, RangeError
from qschlicht.extremal import f_exponent_series
from qschlicht.q_calculus import (ClassParams, _brackets, _iq_core, dq, iq,
                                  jackson_sum, q_bracket, q_powers)


def loop_q_powers(q, n_max):
    """[1, q, ..., q^n_max], each power the previous one times q."""
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for k in range(1, n_max + 1):
        out[k] = out[k - 1] * q
    return out


@given(q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n_max=st.sampled_from([0, 1, 5, 16, 192, 256]))
@settings(max_examples=200)
def test_q_powers_equal_the_sequential_products(q, n_max):
    assert np.array_equal(q_powers(q, n_max), loop_q_powers(q, n_max))


class TestBracket:
    def test_bracket_of_one(self):
        assert q_bracket(1, 0.3) == 1.0

    def test_bracket_of_two(self):
        assert q_bracket(2, 0.5) == pytest.approx(1.5)

    def test_bracket_of_zero(self):
        assert q_bracket(0, 0.7) == 0.0

    def test_rejects_q_outside_domain(self):
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(RangeError):
                q_bracket(2, q)


class TestDq:
    def test_dq_of_z(self):
        out = dq(ps.identity(3), 0.4)
        assert np.allclose(out.coeffs, [1, 0, 0])

    def test_dq_of_z_squared(self):
        out = dq(ps.from_coeffs([0, 0, 1]), 0.5)
        assert np.allclose(out.coeffs, [0, 1.5])

    def test_pointwise_defining_quotient(self):
        rng = np.random.default_rng(11)
        f = ps.from_coeffs(rng.standard_normal(13) + 1j * rng.standard_normal(13))
        q = 0.37
        d = dq(f, q)
        for z in rng.uniform(-0.9, 0.9, 25) + 1j * rng.uniform(-0.9, 0.9, 25):
            if abs(z) > 0.9 or abs(z) < 1e-3:
                continue
            direct = (ps.eval_at(f, z) - ps.eval_at(f, q * z)) / (z * (1 - q))
            assert abs(ps.eval_at(d, z) - direct) <= 1e-10

    def test_approaches_classical_derivative(self):
        f = ps.from_coeffs([1.0, -2.0, 0.5, 3.0, -1.0])
        classical = ps.derivative(f)
        errors = []
        for q in (0.9, 0.99, 0.999):
            diff = np.abs(dq(f, q).coeffs - classical.coeffs).max()
            errors.append(diff)
            assert diff <= 12.0 * (1 - q)
        assert errors[0] > errors[1] > errors[2]


class TestIq:
    def test_iq_of_one(self):
        out = iq(ps.one(2), 0.5)
        assert np.allclose(out.coeffs, [0, 1, 0, 0])

    def test_iq_of_z(self):
        out = iq(ps.identity(1), 0.5)
        assert np.allclose(out.coeffs, [0, 0, 1 / 1.5])

    def test_order_grows_by_one(self):
        assert iq(ps.one(5), 0.3).order == 6

    def test_roundtrip_identities(self):
        rng = np.random.default_rng(5)
        for q in (0.2, 0.5, 0.8):
            for _ in range(20):
                f = ps.from_coeffs(rng.standard_normal(33)
                                   + 1j * rng.standard_normal(33))
                target = f.coeffs.copy()
                target[0] = 0.0
                back = iq(dq(f, q), q)
                assert np.abs(back.coeffs - target).max() <= 1e-14 * 10
                forward = dq(iq(f, q), q)
                assert np.abs(forward.coeffs - f.coeffs).max() <= 1e-14 * 10


    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("shape", [(33,), (33, 7), (10, 4096)])
    def test_core_is_bitwise_the_transposed_division(self, q, shape):
        # the transposed-view formula it replaced: division rounds per
        # element, so dividing along axis 0 gives the same bits
        rng = np.random.default_rng(11)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        br = _brackets(shape[0], q)[1:]
        want = np.zeros((shape[0] + 1,) + shape[1:], dtype=np.complex128)
        want.real.T[..., 1:] = d.real.T / br
        want.imag.T[..., 1:] = d.imag.T / br
        for x in (d, d.real.copy()):
            got = _iq_core(x, q)
            assert got.tobytes() == (want if x is d else want.real + 0j).tobytes()


class TestJacksonSum:
    def test_constant_integrand(self):
        assert jackson_sum(lambda t: 1.0, 0.8, 0.5) == pytest.approx(0.8)

    def test_linear_integrand(self):
        # integral of t over [0, 1] in the q-sense is 1/[2]_q
        out = jackson_sum(lambda t: t, 1.0, 0.5)
        assert out == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_matches_series_integration(self):
        rng = np.random.default_rng(9)
        cubic = ps.from_coeffs(rng.standard_normal(4))
        q, x = 0.6, 0.85
        js = jackson_sum(lambda t: ps.eval_at(cubic, t), x, q)
        assert abs(js - ps.eval_at(iq(cubic, q), x)) <= 1e-10

    def test_nonconvergence_detected(self):
        with pytest.raises(NonConvergenceError):
            # every term is 1: the tail bound x q^n sup|fn| stays at 1
            jackson_sum(lambda t: 1.0 / t, 1.0, 0.9999)


class TestParamsAndRatios:
    def test_params_validation(self):
        with pytest.raises(RangeError):
            ClassParams(q=1.0)
        with pytest.raises(RangeError):
            ClassParams(q=0.5, alpha=1.0)
        with pytest.raises(RangeError):
            ClassParams(q=0.5, order=2)

    # the log ratios L_alpha/(q^n - 1) are F_n/2 of the class exponent

    def test_ratios_are_positive(self):
        for q in (0.05, 0.2, 0.5, 0.8, 0.95):
            half_f = f_exponent_series(ClassParams(q)).coeffs[1:4] / 2
            assert np.all(half_f.real > 0) and not np.any(half_f.imag)

    def test_ratios_classical_limits(self):
        half_f = f_exponent_series(ClassParams(1 - 1e-6)).coeffs.real / 2
        assert half_f[1] == pytest.approx(1.0, abs=1e-5)
        assert half_f[2] == pytest.approx(0.5, abs=1e-5)
        assert half_f[3] == pytest.approx(1 / 3, abs=1e-5)

    def test_lalpha_reduces_to_ln_q(self):
        import math
        f = f_exponent_series(ClassParams(0.37)).coeffs.real
        assert f[1] == 2.0 * math.log(0.37) / (0.37 - 1.0)

    def test_lalpha_negative(self):
        # L_alpha < 0 and q^n - 1 < 0, so every F_n is positive
        for q in (0.1, 0.5, 0.9):
            for alpha in (0.0, 0.3, 0.7, 0.99):
                f = f_exponent_series(ClassParams(q, alpha)).coeffs.real
                assert np.all(f[1:] > 0)

    def test_ratios_reject_bad_q(self):
        with pytest.raises(RangeError):
            f_exponent_series(ClassParams(0.0, 0.0))
        with pytest.raises(RangeError):
            f_exponent_series(ClassParams(1.0, 0.0))

    def test_log_ratio_that_rounds_to_one_is_rejected(self):
        # q / (1 - alpha (1 - q)) rounds to 1.0 at alpha = 1 - 2**-53
        with pytest.raises(RangeError, match=r"log-ratio argument 1.0 escaped"):
            f_exponent_series(ClassParams(0.5, 1 - 2 ** -53))
