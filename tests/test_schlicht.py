import itertools
import math

import numpy as np
import pytest

from qschlicht import power_series as ps
from qschlicht.caratheodory import AtomicMeasure, _moments, _p_coeffs, \
    p_series, sample_measure
from qschlicht.errors import ConfigError, EvaluationSingularityError, \
    ZeroConstantTermError
from qschlicht.extremal import eq_series, f1_series, f_exponent_series
from qschlicht.q_calculus import ClassParams, dq, iq
from qschlicht.schlicht import (CertGrid, _starlike_core, alexander_pair,
                                check_normalized, convex_from_h,
                                convex_from_measure,
                                membership_convex, membership_starlike,
                                rho_map, starlike_from_p)

Q_GRID = (0.2, 0.5, 0.8)
ALPHA_GRID = (0.0, 0.3, 0.7)


def constant_p(order):
    return ps.one(order)


def unit_atom(angle=0.0):
    return AtomicMeasure(np.array([1.0]), np.array([angle]))


class TestStarlikeFromP:
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_core_returns_one_coefficient_past_p(self, alpha):
        # a_{N+1} needs only p_0..p_N: a short p gives the first N + 2
        # coefficients of the member built from a longer p, bit for bit
        weights = np.array([[0.6, 0.4], [0.2, 0.8], [1.0, 0.0]])
        angles = np.array([[0.3, 2.5], [1.0, 4.0], [5.0, 0.0]])
        p_long = _p_coeffs(_moments(weights, angles, 12))
        for q in Q_GRID:
            long = _starlike_core(p_long, q, alpha)
            assert long.shape == (14, 3)
            for n in (0, 1, 3, 8):
                short = _starlike_core(p_long[: n + 1], q, alpha)
                assert short.shape == (n + 2, 3)
                assert np.array_equal(short, long[: n + 2])
                for j in range(3):
                    single = _starlike_core(
                        np.ascontiguousarray(p_long[: n + 1, j]), q, alpha)
                    assert np.array_equal(single, long[: n + 2, j])

    def test_degenerate_p_gives_identity(self):
        f = starlike_from_p(constant_p(16), ClassParams(q=0.5, order=16))
        assert np.allclose(f.coeffs, ps.identity(16).coeffs)

    def test_single_atom_values(self):
        f = starlike_from_p(p_series(unit_atom(), 8), ClassParams(q=0.5, order=8))
        assert f.coeffs[2].real == pytest.approx(2.7725887222397812, abs=1e-12)
        assert f.coeffs[3].real == pytest.approx(5.6920165928387989, abs=1e-11)

    def test_two_atom_values(self):
        m = AtomicMeasure(np.array([0.5, 0.5]), np.array([0.0, math.pi]))
        f = starlike_from_p(p_series(m, 8), ClassParams(q=0.5, order=8))
        assert abs(f.coeffs[2]) <= 1e-13
        assert f.coeffs[3].real == pytest.approx(1.8483924814931875, abs=1e-12)

    def test_functional_equation_residual(self):
        lnq = math.log(0.5)
        for seed in range(30):
            m = sample_measure(seed, 1 + seed % 4)
            p = p_series(m, 24)
            params = ClassParams(q=0.5, alpha=0.3 * (seed % 3), order=24)
            f = starlike_from_p(p, params)
            u = p.coeffs * lnq
            u[0] = 0.0
            g = (1 - params.alpha) * params.q * ps.exp(ps.TruncatedSeries(u)).coeffs
            g[0] = params.q
            lhs = ps.dilate(f, params.q)
            rhs = ps.mul(f, ps.TruncatedSeries(g))
            assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-11

    def test_exponent_closed_form_alpha_zero(self):
        q = 0.5
        lnq = math.log(q)
        for seed in range(30):
            p = p_series(sample_measure(seed, 1 + seed % 4), 16)
            f = starlike_from_p(p, ClassParams(q=q, order=16))
            phi = ps.log(f.div_z())  # order 15: dividing by z drops one
            n = np.arange(1, phi.order + 1)
            target = p.coeffs[1:phi.order + 1] * lnq / (q ** n - 1)
            assert np.abs(phi.coeffs[1:] - target).max() <= 1e-10

    def test_outputs_certify_membership(self):
        for q in Q_GRID:
            for alpha in ALPHA_GRID:
                params = ClassParams(q=q, alpha=alpha, order=64)
                for seed in range(8):
                    f = starlike_from_p(p_series(sample_measure(seed, 1 + seed % 4),
                                                 params.order), params)
                    rep = membership_starlike(f, params)
                    assert rep.passed, (q, alpha, seed, rep.worst_margin)


class TestConvexFromH:
    def test_degenerate_p_gives_identity(self):
        f = convex_from_h(constant_p(16), ClassParams(q=0.5, order=16))
        assert np.abs(f.coeffs - ps.identity(16).coeffs).max() <= 1e-12

    def test_matches_starlike_construction(self):
        # coefficients reach 2e4 at q=0.2, n=16, where float64 caps the
        # achievable absolute agreement near 1e-9; compare relative to the
        # coefficient size (and absolutely where magnitudes stay moderate)
        for q, alpha in itertools.product(Q_GRID, ALPHA_GRID):
            params = ClassParams(q=q, alpha=alpha, order=16)
            for seed in range(10):
                p = p_series(sample_measure(seed, 1 + seed % 4), params.order)
                f = convex_from_h(p, params)
                g = starlike_from_p(p, params)
                lhs = dq(f, q).times_z()
                diff = np.abs(lhs.coeffs[:17] - g.coeffs)
                scale = np.maximum(1.0, np.abs(g.coeffs))
                assert (diff / scale).max() <= 1e-9
                if q >= 0.5:
                    assert diff.max() <= 1e-9

    def test_outputs_certify_membership(self):
        for q in Q_GRID:
            for alpha in ALPHA_GRID:
                params = ClassParams(q=q, alpha=alpha, order=64)
                for seed in range(5):
                    p = p_series(sample_measure(seed, 1 + seed % 3), params.order)
                    rep = membership_convex(convex_from_h(p, params), params)
                    assert rep.passed, (q, alpha, seed, rep.worst_margin)


class TestConvexFromMeasure:
    def test_unit_mass_is_q_integral_extremal(self):
        params = ClassParams(q=0.5, alpha=0.3, order=24)
        f = convex_from_measure(unit_atom(), params)
        assert np.abs(f.coeffs - eq_series(params).e_q.coeffs).max() <= 1e-13

    def test_log_derivative_identity(self):
        # z (Dq f)'/(Dq f) equals the measure average of sigma z F'(sigma z)
        params = ClassParams(q=0.6, alpha=0.4, order=48)
        m = sample_measure(5, 3)
        f = convex_from_measure(m, params)
        d = dq(f, params.q)
        lhs_series = ps.mul(ps.derivative(d).times_z(), ps.recip(d))
        f_exp_deriv = ps.derivative(f_exponent_series(params))
        rng = np.random.default_rng(8)
        zs = rng.uniform(0.05, 0.5, 40) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
        for z in zs:
            rhs = sum(w * sigma * z * ps.eval_at(f_exp_deriv, sigma * z)
                      for w, sigma in zip(m.weights, m.atoms()))
            assert abs(ps.eval_at(lhs_series, z) - rhs) <= 1e-10

    def test_rotation_equivariance(self):
        params = ClassParams(q=0.5, alpha=0.2, order=16)
        m = sample_measure(11, 2)
        theta = 1.1
        f = convex_from_measure(m, params)
        f_rot = convex_from_measure(m.rotated(theta), params)
        # rotated measure generates e^{-i theta} f(e^{i theta} z)
        w = np.exp(1j * theta)
        target = ps.dilate(f, w).coeffs * np.conj(w)
        assert np.abs(f_rot.coeffs - target).max() <= 1e-12


class TestRhoMap:
    def test_identity_member_maps_to_constant(self):
        f = ps.identity(12)
        h = rho_map(f, ClassParams(q=0.4, alpha=0.3, order=12))
        target = np.zeros(12, dtype=complex)
        target[0] = 0.4
        assert np.allclose(h.coeffs, target, atol=1e-14)

    def test_inverts_product_construction(self):
        for q in (0.3, 0.5, 0.7):
            params = ClassParams(q=q, alpha=0.25, order=20)
            lnq = math.log(q)
            for seed in range(10):
                p = p_series(sample_measure(seed, 1 + seed % 4), params.order)
                f = convex_from_h(p, params)
                h = rho_map(f, params)
                u = p.coeffs * lnq
                u[0] = 0.0
                target = q * ps.exp(ps.TruncatedSeries(u)).coeffs
                n_cmp = params.order - 2
                assert np.abs(h.coeffs[:n_cmp + 1] - target[:n_cmp + 1]).max() <= 1e-9

    def test_constant_term_is_q(self):
        for seed in range(50):
            params = ClassParams(q=0.35, alpha=0.5, order=16)
            m = sample_measure(seed, 1 + seed % 4)
            f = convex_from_measure(m, params)
            h = rho_map(f, params)
            assert h.coeffs[0] == pytest.approx(params.q, abs=1e-12)


class TestMembershipCertificates:
    def test_identity_passes_starlike(self):
        params = ClassParams(q=0.5, order=16)
        rep = membership_starlike(ps.identity(16), params)
        assert rep.passed
        assert rep.unresolved == 0

    def test_identity_passes_convex(self):
        for alpha in ALPHA_GRID:
            params = ClassParams(q=0.5, alpha=alpha, order=16)
            assert membership_convex(ps.identity(16), params).passed

    def test_one_atom_generator_passes(self):
        params = ClassParams(q=0.5, order=128)
        rep = membership_starlike(f1_series(params), params)
        assert rep.passed
        assert rep.worst_margin < -1e-3

    def test_large_second_coefficient_fails(self):
        f = ps.from_coeffs([0, 1, 5] + [0] * 30)
        rep = membership_starlike(f, ClassParams(q=0.5, order=32))
        assert not rep.passed
        assert rep.worst_margin > 1.0

    def test_singularity_raises(self):
        # polynomial with a root exactly on a grid node
        grid = CertGrid()
        z0 = 0.2 * np.exp(1j * (0.5 * 2 * math.pi / grid.n_angles))
        f = ps.from_coeffs([0, 1, -1 / z0] + [0] * 10)
        with pytest.raises(EvaluationSingularityError):
            membership_starlike(f, ClassParams(q=0.5, order=12), grid=grid)

    def test_starlike_certificate_equals_convex_certificate_of_its_pair(self):
        # f is starlike-type exactly when iq(f/z) is convex-type with the
        # same ratio f(qz)/f(z), so both certificates read the same margin
        for q, alpha in itertools.product(Q_GRID, ALPHA_GRID):
            params = ClassParams(q=q, alpha=alpha, order=64)
            members = [f1_series(params)] + [
                starlike_from_p(p_series(sample_measure(seed, 1 + seed % 3),
                                         params.order), params)
                for seed in range(3)]
            for f in members:
                star = membership_starlike(f, params)
                conv = membership_convex(iq(f.div_z(), q), params)
                assert star.passed == conv.passed, (q, alpha)
                assert star.worst_margin == pytest.approx(
                    conv.worst_margin, rel=0, abs=1e-12), (q, alpha)

    def test_starlike_rejects_nonzero_constant_term(self):
        with pytest.raises(ZeroConstantTermError):
            membership_starlike(ps.from_coeffs([0.5, 1, 0, 0]),
                                ClassParams(q=0.5, order=4))

    def test_classical_halfplane_map_is_convex_alpha_zero(self):
        geo = ps.TruncatedSeries(np.r_[0.0, np.ones(192)])
        for q in Q_GRID:
            params = ClassParams(q=q, order=192)
            rep = membership_convex(geo, params)
            assert rep.passed, (q, rep.worst_margin)

    @staticmethod
    def _grid_margins(u, params, grid):
        """Error-adjusted excess and error estimate at every grid point."""
        q, alpha = params.q, params.alpha
        z = grid.points()
        den = ps.eval_grid(u, z)
        g = q * ps.eval_grid(u, q * z) / den
        tails = [np.array([ps.tail_estimate(u, s * float(r))
                           for r in grid.radii])[:, None] for s in (q, 1.0)]
        err = (q * tails[0] + np.abs(g) * tails[1]) / np.abs(den)
        return z, np.abs(g - alpha * q) - (1.0 - alpha) - err, err

    def test_real_member_reports_the_upper_conjugate_of_the_tie(self):
        # f1 has real coefficients, so z and conj z tie; rounding favoured
        # -0.750-0.009j at q 0.2, alpha 0.3
        params = ClassParams(q=0.2, alpha=0.3, order=192)
        f = f1_series(params)
        rep = membership_starlike(f, params)
        grid = CertGrid()
        z, margins, err = self._grid_margins(f.div_z(), params, grid)
        full = float(margins.max())
        assert rep.worst_point.imag >= 0.0
        assert round(rep.worst_point.real, 3) == -0.750
        assert round(rep.worst_point.imag, 3) == 0.009
        assert abs(rep.worst_margin - full) <= 1e-15 * abs(full)
        assert rep.passed == (full <= rep.tol)
        assert rep.unresolved == int(np.count_nonzero(err > rep.tol))
        assert np.min(np.abs(z - rep.worst_point.conjugate())) < 1e-12

    def test_complex_member_reports_its_grid_point(self):
        params = ClassParams(q=0.5, alpha=0.3, order=64)
        f = starlike_from_p(p_series(sample_measure(5, 3), params.order), params)
        rep = membership_starlike(f, params)
        z, margins, _ = self._grid_margins(f.div_z(), params, CertGrid())
        # no tie to settle: the lower-half grid point stays as it is
        assert rep.worst_point.imag < 0.0
        assert rep.worst_point == complex(z.ravel()[np.argmax(margins)])

    def test_worst_point_deterministic(self):
        params = ClassParams(q=0.5, order=32)
        f = ps.from_coeffs([0, 1, 5] + [0] * 30)
        a = membership_starlike(f, params)
        b = membership_starlike(f, params)
        assert a.worst_point == b.worst_point
        assert a.worst_margin == b.worst_margin


class TestAlexanderPair:
    def test_identity_fixed_point(self):
        params = ClassParams(q=0.5, order=12)
        f = ps.identity(12)
        assert np.allclose(alexander_pair(f, "to_starlike", params).coeffs,
                           f.coeffs)

    def test_roundtrip(self):
        params = ClassParams(q=0.4, order=20)
        for seed in range(20):
            m = sample_measure(seed, 1 + seed % 4)
            f = convex_from_measure(m, ClassParams(q=0.4, alpha=0.1, order=20))
            g = alexander_pair(f, "to_starlike", params)
            back = alexander_pair(g, "to_convex", params)
            assert np.abs(back.coeffs - f.coeffs).max() <= 1e-12

    def test_q_integral_extremal_maps_to_exponential(self):
        params = ClassParams(q=0.5, alpha=0.3, order=24)
        res = eq_series(params)
        g = alexander_pair(res.e_q, "to_starlike", params)
        target = f_exponent_series(params)
        expected = ps.exp(ps.truncate(target, params.order - 1)).times_z()
        assert np.abs(g.coeffs[:params.order] - expected.coeffs[:params.order]).max() <= 1e-11

    def test_unknown_direction(self):
        with pytest.raises(ConfigError):
            alexander_pair(ps.identity(8), "sideways", ClassParams(q=0.5))


def test_check_normalized():
    assert check_normalized(ps.identity(4))
    assert not check_normalized(ps.one(4))
