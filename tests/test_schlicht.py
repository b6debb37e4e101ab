import itertools
import math
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qschlicht import power_series as ps
from qschlicht.caratheodory import AtomicMeasure, _moments, _p_coeffs, \
    _phase, p_series, sample_measure
from qschlicht.errors import ConfigError, EvaluationSingularityError, \
    RangeError
from qschlicht.explorer import SweepConfig, group_samples
from qschlicht.extremal import _exponent_core, _generators, eq_series, \
    f1_series, f2_series, f_exponent_series
from qschlicht.q_calculus import ClassParams, _dq_core, _iq_core, dq, iq
from qschlicht.schlicht import (FFT_CHUNK, N_ANGLES, RADII, _POINTS, _certify,
                                _functional_equation_core, _grid_tables,
                                _polar_values, _starlike_core,
                                alexander_pair, convex_from_h,
                                convex_from_measure, membership_convex,
                                membership_starlike, rho_map, starlike_from_p)

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
        p_long = _p_coeffs(_moments(weights.T, angles.T, 12))
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

    @pytest.mark.parametrize("q", Q_GRID)
    def test_alpha_zero_core_is_the_exponent_core(self, q):
        # bitwise, for p/2 and for the moments themselves (p_n = 2 m_n
        # exactly), so a Bieberbach sweep scores the same bytes through
        # _starlike_core as through its former closed-form branch
        cfg = SweepConfig(functional="bieberbach", seed=5, samples=64, q_grid=(q,))
        w, a = group_samples(cfg, 0)
        for n in (0, 3, 9, 191):
            m = _moments(w, a, n)
            p = _p_coeffs(m)
            f_exp = f_exponent_series(ClassParams(q=q, order=max(n, 4))).coeffs
            got = _starlike_core(p, q, 0.0)
            assert got.tobytes() == _exponent_core(f_exp[:n + 1], p / 2).tobytes()
            assert got.tobytes() == _exponent_core(f_exp[:n + 1], m).tobytes()

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
            phi = ps.log(ps.div_z(f))  # order 15: dividing by z drops one
            n = np.arange(1, phi.order + 1)
            target = p.coeffs[1:phi.order + 1] * lnq / (q ** n - 1)
            assert np.abs(phi.coeffs[1:] - target).max() <= 1e-10

    def test_unit_mass_gives_one_atom_generator(self):
        params = ClassParams(q=0.5, order=16)
        f = starlike_from_p(p_series(unit_atom(), params.order - 1), params)
        assert np.abs(f.coeffs - f1_series(params).coeffs).max() <= 1e-12

    def test_rotated_unit_mass(self):
        params = ClassParams(q=0.5, order=12)
        theta = 0.9
        f = starlike_from_p(p_series(unit_atom(theta), params.order - 1), params)
        w = np.exp(1j * theta)
        target = ps.dilate(f1_series(params), w).coeffs * np.conj(w)
        assert np.abs(f.coeffs - target).max() <= 1e-12

    def test_measure_member_agrees_with_functional_equation_route(self):
        params = ClassParams(q=0.5, order=16)
        for seed in range(100):
            m = sample_measure(seed, 1 + seed % 4)
            f_a = starlike_from_p(p_series(m, params.order - 1), params)
            f_b = _functional_equation_core(p_series(m, 16).coeffs[:16], 0.5, 0.0)
            assert np.abs(f_a.coeffs - f_b).max() <= 1e-10

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
                lhs = ps.times_z(dq(f, q))
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
        assert np.abs(f.coeffs - eq_series(params).coeffs).max() <= 1e-13

    def test_log_derivative_identity(self):
        # z (Dq f)'/(Dq f) equals the measure average of sigma z F'(sigma z)
        params = ClassParams(q=0.6, alpha=0.4, order=48)
        m = sample_measure(5, 3)
        f = convex_from_measure(m, params)
        d = dq(f, params.q)
        lhs_series = ps.mul(ps.times_z(ps.derivative(d)), ps.recip(d))
        f_exp_deriv = ps.derivative(f_exponent_series(params))
        rng = np.random.default_rng(8)
        zs = rng.uniform(0.05, 0.5, 40) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
        for z in zs:
            rhs = sum(w * sigma * z * ps.eval_at(f_exp_deriv, sigma * z)
                      for w, sigma in zip(m.weights, _phase(m.angles)))
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
        z0 = 0.2 * np.exp(1j * (0.5 * 2 * math.pi / N_ANGLES))
        f = ps.from_coeffs([0, 1, -1 / z0] + [0] * 10)
        with pytest.raises(EvaluationSingularityError):
            membership_starlike(f, ClassParams(q=0.5, order=12))

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
                conv = membership_convex(iq(ps.div_z(f), q), params)
                assert star.passed == conv.passed, (q, alpha)
                assert star.worst_margin == pytest.approx(
                    conv.worst_margin, rel=0, abs=1e-12), (q, alpha)

    def test_starlike_rejects_nonzero_constant_term(self):
        with pytest.raises(RangeError, match="cannot divide by z: constant"
                           " term is nonzero"):
            membership_starlike(ps.from_coeffs([0.5, 1, 0, 0]),
                                ClassParams(q=0.5, order=4))

    def test_classical_halfplane_map_is_convex_alpha_zero(self):
        geo = ps.TruncatedSeries(np.r_[0.0, np.ones(192)])
        for q in Q_GRID:
            params = ClassParams(q=q, order=192)
            rep = membership_convex(geo, params)
            assert rep.passed, (q, rep.worst_margin)

    @staticmethod
    def _grid_margins(u, params, horner=False, quotient=False):
        """Error-adjusted excess and error estimate at every grid point,
        from the polar evaluator at the exact angles or, with ``horner``,
        from Horner at the rounded grid points.  The moduli of the ratio are
        the kernel's, q |num|/|den| and q |num - alpha den|/|den|; with
        ``quotient`` they are read from g = q num/den instead."""
        q, alpha = params.q, params.alpha
        z = _POINTS
        if horner:
            den, num = ps.eval_grid(u, z), ps.eval_grid(u, q * z)
        else:
            ramp, powers = _grid_tables(q, u.order)
            den, num = np.split(_polar_values(u.coeffs[:, None], ramp, powers)[0], 2)
        if quotient:
            g = q * num / den
            abs_g, excess = np.abs(g), np.abs(g - alpha * q)
        else:
            abs_g = q * np.abs(num) / np.abs(den)
            excess = abs_g if alpha == 0.0 else q * np.abs(num - alpha * den) / np.abs(den)
        tails = [ps.tail_estimate(u, s * RADII)[:, None] for s in (q, 1.0)]
        err = (q * tails[0] + abs_g * tails[1]) / np.abs(den)
        return z, excess - (1.0 - alpha) - err, err

    def test_real_member_reports_the_upper_conjugate_of_the_tie(self):
        # f1 has real coefficients, so z and conj z tie; rounding favoured
        # -0.750-0.009j at q 0.2, alpha 0.3
        params = ClassParams(q=0.2, alpha=0.3, order=192)
        f = f1_series(params)
        rep = membership_starlike(f, params)
        z, margins, err = self._grid_margins(ps.div_z(f), params)
        full = float(margins.max())
        assert rep.worst_point.imag >= 0.0
        assert round(rep.worst_point.real, 3) == -0.750
        assert round(rep.worst_point.imag, 3) == 0.009
        assert abs(rep.worst_margin - full) <= 1e-15 * abs(full)
        assert rep.passed == (full <= rep.tol)
        assert rep.unresolved == int(np.count_nonzero(err > rep.tol))
        assert np.min(np.abs(z - rep.worst_point.conjugate())) < 1e-12

    def test_horner_and_polar_margins_agree(self):
        # Horner evaluates at the rounded grid points, the polar evaluator
        # at the exact angles; near the rim the two differ by about 1e-12
        params = ClassParams(q=0.2, alpha=0.3, order=192)
        u = ps.div_z(f1_series(params))
        _, polar, _ = self._grid_margins(u, params)
        _, horner, _ = self._grid_margins(u, params, horner=True)
        assert np.abs(polar - horner).max() <= 1e-10

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_even_real_member_reports_the_first_quadrant_of_the_tie(
            self, q, alpha):
        # f2/z is even with real coefficients: z, conj z, -z and -conj z tie
        params = ClassParams(q=q, alpha=alpha, order=192)
        f = f2_series(params)
        rep = membership_starlike(f, params)
        z, margins, _ = self._grid_margins(ps.div_z(f), params)
        assert rep.worst_point.real >= 0.0 and rep.worst_point.imag >= 0.0
        assert rep.worst_margin == margins.max()
        ties = (z, z.conjugate(), -z, -z.conjugate())
        idx = np.argmax(margins)
        assert min(abs(t.ravel()[idx] - rep.worst_point) for t in ties) < 1e-12

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_moduli_match_the_complex_quotient(self, q, alpha):
        # f1, f2, E_q, the half-plane map and 8 sampled members: the moduli
        # move a worst margin by rounding only, and nothing else
        params = ClassParams(q=q, alpha=alpha, order=192)
        f1, f2 = _generators(params)
        geo = ps.TruncatedSeries(np.r_[0.0, np.ones(192)])
        cfg = SweepConfig(functional="h22", seed=3, samples=8, q_grid=(q,))
        m = _moments(*group_samples(cfg, 0), params.order - 1)
        sampled = _starlike_core(_p_coeffs(m), q, alpha)[1:]  # Dq of convex members
        us = [ps.div_z(f1), ps.div_z(f2), dq(eq_series(params), q), dq(geo, q)] + [
            ps.TruncatedSeries(c) for c in sampled.T]
        for k, u in enumerate(us):
            rep = _certify(u.coeffs[:, None], params, "starlike" if k < 2 else "convex")[0]
            z, margins, err = self._grid_margins(u, params, quotient=True)
            assert abs(rep.worst_margin - margins.max()) <= 1e-15
            assert rep.passed == (margins.max() <= rep.tol)
            assert rep.unresolved == int(np.count_nonzero(err > rep.tol))
            point = complex(z.ravel()[np.argmax(margins)])
            if not np.any(u.coeffs.imag):  # the kernel's report of a tie
                even = not np.any(u.coeffs[1::2])
                point = complex(abs(point.real) if even else point.real, abs(point.imag))
            assert rep.worst_point == point

    def test_complex_member_reports_its_grid_point(self):
        params = ClassParams(q=0.5, alpha=0.3, order=64)
        f = starlike_from_p(p_series(sample_measure(5, 3), params.order), params)
        rep = membership_starlike(f, params)
        z, margins, _ = self._grid_margins(ps.div_z(f), params)
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


def _membership_op(q, alpha, seed):
    """The 22 certificates of a membership suite op at 200 samples, as
    (certificate, series, params) calls."""
    params = ClassParams(q=q, alpha=alpha, order=192)
    # the suite's samples: the first of group 0 of a k_atoms = 4 sweep
    cfg = SweepConfig(functional="h22", seed=seed, samples=20, q_grid=(q,))
    m = _moments(*group_samples(cfg, 0), params.order - 1)
    members = _iq_core(_starlike_core(_p_coeffs(m), q, alpha)[1:], q)
    return ([(membership_starlike, f, params) for f in _generators(params)]
            + [(membership_convex, ps.TruncatedSeries(a), params)
               for a in members.T])


_FAULT_SCRIPT = """
import resource
import qschlicht as qs
params = qs.ClassParams(q=0.5, alpha=0.3, order=192)
f1, e_q = qs.f1_series(params), qs.eq_series(params)
calls = [lambda: qs.membership_starlike(f1, params),
         lambda: qs.membership_convex(e_q, params)]
for i in range(3):
    calls[i % 2]()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(100):
    calls[i % 2]()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestSharedCertificateState:
    """Certificates share their grid tables (cached per q and order) and
    per-thread scratch buffers."""

    def test_threaded_certificates_equal_sequential_ones(self):
        calls = _membership_op(0.5, 0.3, seed=1)
        want = [cert(f, params) for cert, f, params in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(cert, f, params)
                           for _ in range(3) for cert, f, params in calls]
                got = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 3

    def test_interleaved_q_and_grids_equal_fresh_calls(self):
        cases = [(q, order) for q in (0.2, 0.5) for order in (192, 32)]

        def certify(case):
            q, order = case
            params = ClassParams(q=q, alpha=0.3, order=order)
            return (membership_starlike(f1_series(params), params),
                    membership_convex(eq_series(params), params))

        fresh = {}
        for case in cases:
            _grid_tables.cache_clear()
            with ThreadPoolExecutor(max_workers=1) as pool:  # a new workspace
                fresh[case] = pool.submit(certify, case).result(timeout=120)
        for case in cases + cases[::-1] + cases[::3] + cases[1::2]:
            assert certify(case) == fresh[case], case

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="counts glibc's minor faults")
    def test_certificates_fault_in_no_fresh_memory(self):
        # with trimming at every free, a certificate that allocated its
        # planes would fault them back in each time, dozens of pages apiece
        env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="0",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 100 < 1.0


def _batch_columns(q, alpha):
    """Ten sampled convex members f, and u = Dq f of each with f1/z (real)
    and f2/z (even and real) inserted at columns 1 and 6, all of order 191."""
    params = ClassParams(q=q, alpha=alpha, order=192)
    cfg = SweepConfig(functional="h22", seed=3, samples=10, q_grid=(q,))
    m = _moments(*group_samples(cfg, 0), params.order - 1)
    members = _iq_core(_starlike_core(_p_coeffs(m), q, alpha)[1:], q)
    f1, f2 = _generators(params)
    u = np.insert(_dq_core(members, q), [1, 5], np.c_[f1.coeffs[1:], f2.coeffs[1:]],
                  axis=1)
    return params, members, u


class TestBatchedCertificates:
    """_certify takes members as the columns of one (N + 1, M) array."""

    @pytest.mark.parametrize("q, alpha", [(0.2, 0.0), (0.5, 0.3), (0.8, 0.3)])
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 9])
    def test_batch_equals_one_at_a_time(self, q, alpha, count):
        # 5 and 9 cross the FFT_CHUNK = 4 member chunks of the inverse FFT;
        # 3 and up hold the real f1/z, 9 the even f2/z
        params, _, u = _batch_columns(q, alpha)
        u = u[:, -count:] if count < 3 else u[:, :count]
        want = [_certify(u[:, [k]], params, "convex")[0] for k in range(count)]
        assert _certify(u, params, "convex") == want
        assert FFT_CHUNK == 4

    @pytest.mark.parametrize("q, alpha", [(0.2, 0.3), (0.5, 0.0), (0.8, 0.3)])
    def test_batch_equals_the_membership_certificates(self, q, alpha):
        params, members, u = _batch_columns(q, alpha)
        f1, f2 = _generators(params)
        star, conv = (_certify(u, params, c) for c in ("starlike", "convex"))
        assert star[1] == membership_starlike(f1, params)
        assert star[6] == membership_starlike(f2, params)
        # the tie rules: upper conjugate when real, first quadrant when even
        assert star[1].worst_point.imag >= 0.0
        assert star[6].worst_point.real >= 0.0 <= star[6].worst_point.imag
        sampled = [rep for k, rep in enumerate(conv) if k not in (1, 6)]
        assert sampled == [membership_convex(ps.TruncatedSeries(c), params)
                           for c in members.T]

    def test_reports_do_not_share_their_grid(self):
        params, _, u = _batch_columns(0.5, 0.3)
        reps = _certify(u[:, :5], params, "convex")
        assert len({id(rep.grid) for rep in reps}) == 5
        assert len({id(rep.grid["radii"]) for rep in reps}) == 5

    def test_singular_member_raises_its_own_message(self):
        params, _, u = _batch_columns(0.5, 0.3)
        # 1 - z/z0 vanishes at the grid points z0 of radii 0.2 and 0.3
        roots = [0.2 * np.exp(1j * math.pi / N_ANGLES),
                 0.3 * np.exp(11j * math.pi / N_ANGLES)]
        singular = np.zeros((u.shape[0], 2), dtype=complex)
        singular[0], singular[1] = 1.0, [-1.0 / z0 for z0 in roots]
        messages = []
        for k in range(2):
            with pytest.raises(EvaluationSingularityError) as err:
                _certify(singular[:, [k]], params, "convex")
            messages.append(str(err.value))
        assert messages[0] != messages[1]
        for batch, first in ((np.c_[u[:, :2], singular, u[:, 2:4]], 0),
                             (np.c_[u[:, :5], singular[:, ::-1]], 1)):
            with pytest.raises(EvaluationSingularityError) as err:
                _certify(batch, params, "convex")
            assert str(err.value) == messages[first]


class TestCertGrid:
    """The one certificate grid: 18 radii, 256 half-step offset angles."""

    def test_default_grid(self):
        assert _POINTS.shape == (18, N_ANGLES) == (18, 256)
        assert RADII[0] == 0.05 and RADII[-1] == 0.9
        assert np.array_equal(RADII, np.round(np.arange(1, 19) * 0.05, 2))
        angles = (np.arange(256) + 0.5) * (2.0 * math.pi / 256)
        assert np.array_equal(_POINTS, RADII[:, None] * np.exp(1j * angles))
        assert not RADII.flags.writeable and not _POINTS.flags.writeable
        params = ClassParams(q=0.5, alpha=0.3, order=32)
        rep = membership_starlike(f1_series(params), params)
        assert rep.grid == {"radii": RADII.tolist(), "n_angles": 256,
                            "angle_offset": 0.5, "criterion": "starlike",
                            "q": 0.5, "alpha": 0.3}

    def test_reports_do_not_share_the_grid(self):
        params = ClassParams(q=0.5, alpha=0.3, order=32)
        f = f1_series(params)
        first = membership_starlike(f, params)
        want = repr(membership_starlike(f, params))
        first.grid["radii"][0] = -1.0
        first.grid["n_angles"] = 0
        second = membership_starlike(f, params)
        assert repr(second) == want
        assert second.grid is not first.grid
        assert second.grid["radii"] is not first.grid["radii"]


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
        g = alexander_pair(eq_series(params), "to_starlike", params)
        target = f_exponent_series(params)
        expected = ps.times_z(ps.exp(ps.truncate(target, params.order - 1)))
        assert np.abs(g.coeffs[:params.order] - expected.coeffs[:params.order]).max() <= 1e-11

    def test_unknown_direction(self):
        with pytest.raises(ConfigError):
            alexander_pair(ps.identity(8), "sideways", ClassParams(q=0.5))

