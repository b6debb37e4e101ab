import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschlicht import power_series as ps
from qschlicht import schlicht
from qschlicht.errors import RangeError


def series(*coeffs):
    return ps.from_coeffs(coeffs)


small_coeffs = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=12)


class TestMul:
    def test_difference_of_squares(self):
        out = ps.mul(series(1, 1, 0), series(1, -1, 0))
        assert np.allclose(out.coeffs, [1, 0, -1])

    def test_identity_element(self):
        a = series(2, 3j, -1, 0.5)
        out = ps.mul(a, ps.one(3))
        assert np.allclose(out.coeffs, a.coeffs)

    def test_hand_convolution(self):
        # (1 + 2z + 3z^2)(1 + z) = 1 + 3z + 5z^2 + 3z^3
        out = ps.mul(series(1, 2, 3, 0), series(1, 1, 0, 0))
        assert np.allclose(out.coeffs, [1, 3, 5, 3])

    def test_truncates_to_shorter_operand(self):
        out = ps.mul(series(1, 1), series(1, 1, 1, 1))
        assert out.order == 1

    @settings(max_examples=50, deadline=None)
    @given(small_coeffs, small_coeffs, small_coeffs)
    def test_ring_axioms(self, a, b, c):
        sa, sb, sc = series(*a), series(*b), series(*c)
        n = min(sa.order, sb.order, sc.order)
        ab_c = ps.mul(ps.mul(sa, sb), sc)
        a_bc = ps.mul(sa, ps.mul(sb, sc))
        assert np.allclose(ab_c.coeffs[:n + 1], a_bc.coeffs[:n + 1], atol=1e-12)
        ab = ps.mul(sa, sb)
        ba = ps.mul(sb, sa)
        assert np.allclose(ab.coeffs, ba.coeffs, atol=1e-12)
        # distributivity, with the sums taken on coefficient arrays
        lhs = ps.mul(sa, ps.from_coeffs(sb.coeffs[:n + 1] + sc.coeffs[:n + 1]))
        rhs = ps.mul(sa, sb).coeffs[:n + 1] + ps.mul(sa, sc).coeffs[:n + 1]
        assert np.allclose(lhs.coeffs, rhs, atol=1e-12)


class TestRecip:
    def test_geometric_series(self):
        out = ps.recip(series(1, -1, 0, 0, 0, 0))
        assert np.allclose(out.coeffs, np.ones(6))

    def test_involution(self):
        rng = np.random.default_rng(1)
        a = ps.from_coeffs(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        back = ps.recip(ps.recip(a))
        assert np.abs(back.coeffs - a.coeffs).max() <= 1e-12

    def test_recip_of_one(self):
        out = ps.recip(ps.one(5))
        assert np.allclose(out.coeffs, ps.one(5).coeffs)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(RangeError,
                           match="cannot invert a series with c0 = 0"):
            ps.recip(series(0, 1, 2))

    def test_product_with_recip_is_one(self):
        a = series(2.0, -0.3, 0.7j, 1.1, -0.2)
        out = ps.mul(a, ps.recip(a))
        assert np.abs(out.coeffs - ps.one(4).coeffs).max() <= 1e-12


class TestExpLog:
    def test_exp_of_zero(self):
        assert np.allclose(ps.exp(ps.zero(6)).coeffs, ps.one(6).coeffs)

    def test_exp_of_z(self):
        import math
        out = ps.exp(ps.identity(8))
        target = np.array([1.0 / math.factorial(n) for n in range(9)])
        assert np.allclose(out.coeffs, target, atol=1e-15)

    def test_quadratic_coefficient(self):
        # z^2 coefficient of exp(p1 z + p2 z^2) is p2 + p1^2/2
        p1, p2 = 0.7 - 0.2j, -1.1 + 0.4j
        out = ps.exp(series(0, p1, p2))
        assert out.coeffs[2] == pytest.approx(p2 + p1 * p1 / 2)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(RangeError, match="formal exp requires c0 = 0"):
            ps.exp(series(1, 1))

    def test_log_of_one(self):
        assert np.allclose(ps.log(ps.one(5)).coeffs, 0.0)

    def test_log_of_geometric(self):
        out = ps.log(ps.from_coeffs(np.ones(9)))
        target = np.r_[0.0, 1.0 / np.arange(1, 9)]
        assert np.allclose(out.coeffs, target, atol=1e-14)

    def test_log_rejects_wrong_constant(self):
        with pytest.raises(RangeError, match="formal log requires c0 = 1"):
            ps.log(series(2, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=2, max_size=10))
    def test_log_exp_roundtrip(self, coeffs):
        coeffs = [0.0] + coeffs[1:]
        s = series(*coeffs)
        back = ps.log(ps.exp(s))
        assert np.abs(back.coeffs - s.coeffs).max() <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                                       allow_infinity=False),
                    min_size=2, max_size=10))
    def test_exp_log_roundtrip(self, coeffs):
        coeffs = [1.0] + coeffs[1:]
        s = series(*coeffs)
        back = ps.exp(ps.log(s))
        assert np.abs(back.coeffs - s.coeffs).max() <= 1e-10


#: each axis-0 core with the constant term its input needs
CORES = {
    "exp": (ps._exp_core, 0.0),
    "log": (ps._log_core, 1.0),
    "recip": (ps._recip_core, 1.0),
    "starlike": (lambda p: schlicht._starlike_core(p, 0.6, 0.3), 1.0),
    "starlike-alpha0": (lambda p: schlicht._starlike_core(p, 0.6, 0.0), 1.0),
}


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestMemoryOrder:
    def test_longer_axis_is_contiguous(self):
        assert ps._order(np.empty((192, 20))) == "F"
        assert ps._order(np.empty((20, 20))) == "C"
        assert ps._order(np.empty((11, 8192))) == "C"
        tall = ps._exp_core(np.zeros((40, 3), dtype=np.complex128))
        wide = ps._exp_core(np.zeros((3, 40), dtype=np.complex128))
        assert tall.flags.f_contiguous and wide.flags.c_contiguous

    @pytest.mark.parametrize("core", sorted(CORES))
    @pytest.mark.parametrize("shape", ["above", "equal", "below", "1-d", "3-d"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batch_column_equals_column_alone(self, core, shape, data):
        """Degrees above, equal to and below the column count take both
        memory orders; every column is bitwise its own 1-d result."""
        fn, c0 = CORES[core]
        n = data.draw(st.integers(2, 40), label="degrees")
        trailing = {
            "above": (data.draw(st.integers(1, n - 1), label="columns"),),
            "equal": (n,),
            "below": (data.draw(st.integers(n + 1, n + 40), label="columns"),),
            "1-d": (),
            "3-d": tuple(data.draw(st.lists(st.integers(1, 6), min_size=2,
                                            max_size=2), label="trailing")),
        }[shape]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape_all = (n,) + trailing
        x = 0.4 * (rng.standard_normal(shape_all) + 1j * rng.standard_normal(shape_all))
        x[0] = c0
        out = fn(x)
        assert out.shape[1:] == trailing
        if shape == "1-d":  # the series as a column of a tall and a wide batch
            for m in (2, n + 3):
                batch = 0.4 * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
                batch[0], batch[:, -1] = c0, x
                assert _bits(fn(batch)[:, -1]) == _bits(out)
        for idx in np.ndindex(trailing):
            col = (slice(None),) + idx
            assert _bits(out[col]) == _bits(fn(x[col])), (idx, out.shape)


class TestDilateDerivativeEval:
    def test_dilate_by_one(self):
        a = series(1, 2, 3, 4)
        assert np.allclose(ps.dilate(a, 1.0).coeffs, a.coeffs)

    def test_dilate_geometric(self):
        out = ps.dilate(ps.from_coeffs(np.ones(7)), 0.5)
        assert np.allclose(out.coeffs, 0.5 ** np.arange(7))

    def test_dilate_commutes_with_exp(self):
        rng = np.random.default_rng(3)
        s = ps.from_coeffs(np.r_[0.0, rng.standard_normal(7) * 0.3])
        w = 0.6 + 0.3j
        lhs = ps.dilate(ps.exp(s), w)
        rhs = ps.exp(ps.dilate(s, w))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12

    def test_derivative_of_square(self):
        out = ps.derivative(series(0, 0, 1))
        assert np.allclose(out.coeffs, [0, 2])

    def test_derivative_of_constant(self):
        assert np.allclose(ps.derivative(series(5)).coeffs, [0])

    def test_derivative_of_exp(self):
        e = ps.exp(ps.identity(10))
        d = ps.derivative(e)
        assert np.abs(d.coeffs - e.coeffs[:10]).max() <= 1e-12

    def test_eval_simple(self):
        assert ps.eval_at(series(1, 1), 0.5) == pytest.approx(1.5)

    def test_eval_at_origin_returns_constant(self):
        assert ps.eval_at(series(3.5, 2, 1), 0.0) == 3.5

    def test_eval_geometric_tail(self):
        s = ps.from_coeffs(np.ones(65))
        assert abs(ps.eval_at(s, 0.5) - 2.0) <= 1e-15

    def test_eval_factorizes_products(self):
        a = series(1, 2, 0, 0, 0, 0)
        b = series(3, -1, 0.5, 0, 0, 0)
        z0 = 0.4 - 0.2j
        lhs = ps.eval_at(ps.mul(a, b), z0)
        rhs = ps.eval_at(a, z0) * ps.eval_at(b, z0)
        # degree sum is 3 <= truncation order, so the identity is exact
        assert abs(lhs - rhs) <= 1e-12


class TestTailEstimate:
    def test_array_of_radii_equals_scalar_calls(self):
        rng = np.random.default_rng(11)
        a = ps.from_coeffs(rng.standard_normal(193) + 1j * rng.standard_normal(193))
        radii = np.round(np.arange(1, 19) * 0.05, 2)
        for rs in (radii, 0.3 * radii):
            vec = ps.tail_estimate(a, rs)
            assert vec.shape == rs.shape
            single = [ps.tail_estimate(a, np.array([r]))[0] for r in rs]
            assert np.array_equal(vec, single)


class TestInvariants:
    def test_min_order_propagation(self):
        a, b = series(1, 2, 3, 4, 5), series(1, 1)
        assert ps.mul(a, b).order == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            series(1.0, np.nan)
        with pytest.raises(ValueError):
            series(np.inf, 1.0)

    def test_rejects_excessive_order(self):
        with pytest.raises(ValueError):
            ps.zero(ps.MAX_ORDER + 1)

    def test_times_z_div_z_roundtrip(self):
        a = series(0, 1, 2, 3)
        assert np.allclose(ps.times_z(ps.div_z(a)).coeffs, a.coeffs)
