"""High-precision oracles for the convex product route and the series cores.

``convex_from_h`` is the q-integral of the starlike member with the same
ratio G, which sums the infinite q-product exactly.  The oracle here is
independent of that pairing: it multiplies the literal factors
((1-alpha) h(q^m z) + alpha q)/q at 50 significant digits, taking enough of
them that the dropped tail is below 1e-40, then inverts and q-integrates.  The exp/log/recip cores are checked
against the same recursions run at 60 digits on the binary64 inputs.  The
certificates' polar evaluator is checked at the exact grid angles against
the same sums in 170-bit fixed point, with the angles from 50-digit mpmath.
The atom phase kernel and its table are checked against 50-digit cos/sin.
"""

import mpmath as mp
import numpy as np
import pytest

from qschlicht import power_series as ps
from qschlicht.caratheodory import (TWO_PI, _COS, _SIN, _phase, p_series,
                                    sample_measure)
from qschlicht.extremal import f1_series, f2_series
from qschlicht.q_calculus import ClassParams
from qschlicht.schlicht import N_ANGLES, RADII, _grid_tables, \
    _polar_values, _starlike_core, convex_from_h, starlike_from_p

ORDER = 16
DIGITS = 50
TAIL = mp.mpf(10) ** -40


def literal_product_member(p_coeffs, q, alpha, n):
    """Coefficients a_0..a_n of f with z (Dq f) = z / prod_m fac(q^m z)."""
    with mp.workdps(DIGITS):
        q, alpha = mp.mpf(q), mp.mpf(alpha)
        lnq = mp.log(q)
        u = [lnq * mp.mpc(complex(c)) for c in p_coeffs[: n + 1]]
        h = [mp.mpc(1)] + [mp.mpc(0)] * n  # exp((ln q)(p - 1))
        for m in range(1, n + 1):
            h[m] = mp.fdot((k * u[k], h[m - k]) for k in range(1, m + 1)) / m
        # factor m deviates from 1 by at most (1-alpha) sum_k |h_k| q^m
        spread = max((1 - alpha) * sum(abs(x) for x in h[1:]), 1)
        n_factors = int(mp.ceil(mp.log(TAIL / spread) / lnq))
        fac = [mp.mpc(1)] + [(1 - alpha) * x for x in h[1:]]
        q_pow = [q ** k for k in range(n + 1)]
        prod = [mp.mpc(1)] + [mp.mpc(0)] * n
        for _ in range(n_factors + 1):
            prod = [mp.fdot(prod[: j + 1], fac[j::-1]) for j in range(n + 1)]
            fac = [f * w for f, w in zip(fac, q_pow)]
        d = [mp.mpc(1)] + [mp.mpc(0)] * n  # Dq f = 1/prod
        for m in range(1, n + 1):
            d[m] = -mp.fdot(prod[1: m + 1], d[m - 1:: -1])
        return np.array([0j] + [complex(d[k - 1] * (1 - q) / (1 - q ** k))
                                for k in range(1, n + 1)])


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
def test_convex_from_h_matches_literal_product(q, alpha):
    seed = int(10 * q) + int(10 * alpha)
    p = p_series(sample_measure(seed, 1 + seed % 4), ORDER)
    f = convex_from_h(p, ClassParams(q=q, alpha=alpha, order=ORDER))
    oracle = literal_product_member(p.coeffs, q, alpha, ORDER)
    rel = np.abs(f.coeffs - oracle).max() / np.abs(oracle).max()
    assert rel <= 1e-13


# -- the atom phase kernel against 50-digit mpmath ----------------------------


def test_phase_table_is_within_one_ulp():
    # within half an ulp: every entry is the double nearest the exact value
    # (mpmath's float() rounds to nearest)
    with mp.workdps(DIGITS):
        for k in range(256):
            for got, exact in ((_COS[k], mp.cospi(mp.mpf(k) / 128)),
                               (_SIN[k], mp.sinpi(mp.mpf(k) / 128))):
                assert float(got) == float(exact), (k, got)


def phase_test_angles():
    """20k uniform angles in |theta| <= 32 pi, mostly in [-2 pi, 4 pi), and
    0, +-pi/2, +-pi, +-2 pi and every table knot j 2 pi/256 (|j| <= 512),
    each +-1 ulp and at the half steps where the rounding of j turns."""
    rng = np.random.default_rng(2026)
    step = TWO_PI / 256
    knots = np.arange(-512, 513) * step
    return np.concatenate([
        rng.uniform(-2 * np.pi, 4 * np.pi, 16000),
        rng.uniform(-32 * np.pi, 32 * np.pi, 4000),
        [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, TWO_PI, -TWO_PI],
        knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        knots + step / 2, np.nextafter(knots + step / 2, -np.inf)])


def test_phase_matches_mpmath():
    angles = phase_test_angles()
    assert angles.size >= 20000
    got = _phase(angles)
    one = _phase(np.zeros(1))[0]
    assert one == 1.0 and not np.signbit(one.imag)
    with mp.workdps(DIGITS):
        err = max(abs(mp.mpc(complex(z)) - mp.expj(mp.mpf(float(a))))
                  for a, z in zip(angles, got))
    assert err <= 1.6e-16, err


# -- the series cores against 60-digit mpmath ---------------------------------

CORE_DIGITS = 60


def mp_exp(u):
    """b' = u' b in mpmath: m b_m = sum_k k u_k b_{m-k}."""
    b = [mp.mpc(1)] + [mp.mpc(0)] * (len(u) - 1)
    for m in range(1, len(u)):
        b[m] = mp.fdot((k * u[k], b[m - k]) for k in range(1, m + 1)) / m
    return b


def mp_log(c):
    """l' c = c': m l_m = m c_m - sum_{k<m} k l_k c_{m-k}."""
    lg = [mp.mpc(0)] * len(c)
    for m in range(1, len(c)):
        acc = mp.fdot((k * lg[k], c[m - k]) for k in range(1, m))
        lg[m] = (m * c[m] - acc) / m
    return lg


def mp_recip(c):
    r = [1 / c[0]] + [mp.mpc(0)] * (len(c) - 1)
    for m in range(1, len(c)):
        r[m] = -mp.fdot((c[k], r[m - k]) for k in range(1, m + 1)) * r[0]
    return r


def core_inputs(name, n, columns):
    """Decaying random coefficients with the constant term each core needs."""
    rng = np.random.default_rng(n + len(name))
    shape = (n + 1, columns)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c *= (0.9 ** np.arange(n + 1))[:, None]
    c[0] = {"exp": 0.0, "log": 1.0, "recip": 2.0 - 1.0j}[name]
    return c


CORES = {"exp": (ps._exp_core, mp_exp), "log": (ps._log_core, mp_log),
         "recip": (ps._recip_core, mp_recip)}


@pytest.mark.parametrize("n", [32, 256])
@pytest.mark.parametrize("name", sorted(CORES))
def test_series_cores_match_mpmath(name, n):
    core, oracle = CORES[name]
    c = core_inputs(name, n, 3)
    batch = core(c)
    for j in range(c.shape[1]):
        single = core(np.ascontiguousarray(c[:, j]))
        # a column of a batch is the 1-d result, bit for bit
        assert np.array_equal(batch[:, j], single)
        with mp.workdps(CORE_DIGITS):
            exact = oracle([mp.mpc(complex(x)) for x in c[:, j]])
            exact = np.array([complex(x) for x in exact])
        rel = np.abs(single - exact).max() / np.abs(exact).max()
        assert rel <= 1e-12, rel


# -- the alpha = 0 member against a 50-digit exp of its exponent --------------

MEMBER_ORDER = 192


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_alpha_zero_member_matches_exponent_exp(q):
    """At alpha = 0 the member of p is z exp(sum_n (ln q) p_n/(q^n - 1) z^n);
    the public constructor and a (MEMBER_ORDER, 4) batch of the core match
    that exp at 50 digits to 1e-13 relative to max(1, |a_n|)."""
    p_all = [p_series(sample_measure(seed, 1 + seed), MEMBER_ORDER)
             for seed in range(4)]
    batch = _starlike_core(np.stack([p.coeffs[:MEMBER_ORDER] for p in p_all],
                                    axis=1), q, 0.0)
    single = starlike_from_p(p_all[0], ClassParams(q=q, order=MEMBER_ORDER))
    for j, p in enumerate(p_all):
        with mp.workdps(DIGITS):
            qm = mp.mpf(q)
            u = [mp.mpc(0)] + [mp.log(qm) * mp.mpc(complex(p.coeffs[n])) / (qm ** n - 1)
                               for n in range(1, MEMBER_ORDER)]
            exact = np.array([0j] + [complex(x) for x in mp_exp(u)])
        for got in (batch[:, j], single.coeffs) if j == 0 else (batch[:, j],):
            err = np.abs(got - exact) / np.maximum(1.0, np.abs(exact))
            assert err.max() <= 1e-13, (j, err.max())


# -- the polar certificate evaluator at the exact grid angles -----------------

BITS = 170  # fixed-point fraction bits, about 51 significant digits


def fixed(x):
    """x as the nearest integer multiple of 2^-BITS."""
    return int(mp.nint(mp.ldexp(mp.mpf(x), BITS)))


def fixed_dft(xr, xi, wr, wi, stride=1):
    """X_j = sum_k x_k e^{2 pi i jk/A} along axis 0 in fixed point, A = len(xr).

    wr + i wi holds e^{2 pi i e/A0}, e < A0, for the outermost length A0 =
    A stride.  Mixed-radix Cooley-Tukey on the smallest prime factor."""
    size = xr.shape[0]
    if size == 1:
        return xr, xi
    p = next(d for d in range(2, size + 1) if size % d == 0)
    outr, outi = np.zeros_like(xr), np.zeros_like(xi)
    j = np.arange(size)
    for s in range(p):
        yr, yi = fixed_dft(xr[s::p], xi[s::p], wr, wi, stride * p)
        e = (s * j * stride) % wr.size
        cr, ci = wr[e][:, None], wi[e][:, None]
        yr, yi = np.tile(yr, (p, 1)), np.tile(yi, (p, 1))
        outr += (cr * yr - ci * yi) >> BITS
        outi += (cr * yi + ci * yr) >> BITS
    return outr, outi


def exact_polar_values(series, radii, n_angles):
    """u at r e^{i(2j+1) pi/n_angles} for each series, radius and j, rounded
    to binary64 from 170-bit fixed point: sum_n c_n r^n e^{i pi n/n_angles}
    e^{2 pi i nj/n_angles}, folded modulo n_angles, with the phases from
    50-digit mpmath."""
    with mp.workdps(DIGITS):
        half = [mp.expjpi(mp.mpf(m) / n_angles) for m in range(2 * n_angles)]
    hr = np.array([fixed(w.real) for w in half], dtype=object)
    hi = np.array([fixed(w.imag) for w in half], dtype=object)
    size = max(c.size for c in series)
    rn = np.empty((len(radii), size), dtype=object)
    rn[:, 0] = 1 << BITS
    r = np.array([fixed(float(x)) for x in radii], dtype=object)
    for n in range(1, size):
        rn[:, n] = (rn[:, n - 1] * r) >> BITS
    rows_r, rows_i = [], []
    for c in series:
        n = np.arange(c.size)
        cr = np.array([fixed(x) for x in c.real], dtype=object)
        ci = np.array([fixed(x) for x in c.imag], dtype=object)
        pr, pi = hr[n % (2 * n_angles)], hi[n % (2 * n_angles)]
        br = ((cr * pr - ci * pi) >> BITS) * rn[:, : c.size] >> BITS
        bi = ((cr * pi + ci * pr) >> BITS) * rn[:, : c.size] >> BITS
        fr = np.zeros((len(radii), n_angles), dtype=object)
        fi = np.zeros_like(fr)
        for k in range(c.size):
            fr[:, k % n_angles] += br[:, k]
            fi[:, k % n_angles] += bi[:, k]
        rows_r.append(fr)
        rows_i.append(fi)
    xr, xi = fixed_dft(np.concatenate(rows_r).T, np.concatenate(rows_i).T,
                       hr[::2].copy(), hi[::2].copy())
    scale = 1 << BITS
    out = np.array([[complex(a / scale, b / scale) for a, b in zip(ar, ai)]
                    for ar, ai in zip(xr.T, xi.T)])
    return out.reshape(len(series), len(radii), n_angles)


def polar_test_series():
    """u = f/z of f1 and f2 at order 192 and a random complex series."""
    out = []
    for q in (0.2, 0.5, 0.8):
        for alpha in (0.0, 0.3):
            params = ClassParams(q=q, alpha=alpha, order=192)
            out += [ps.div_z(f1_series(params)), ps.div_z(f2_series(params))]
    rng = np.random.default_rng(192)
    out.append(ps.TruncatedSeries(rng.standard_normal(193)
                                  + 1j * rng.standard_normal(193)))
    return out


def test_polar_values_match_exact_angles():
    series = polar_test_series()
    exact = exact_polar_values([u.coeffs for u in series], RADII, N_ANGLES)
    eps = np.finfo(np.float64).eps
    for u, want in zip(series, exact):
        # the denominator rows of a certificate's tables are the grid radii
        ramp, powers = _grid_tables(0.5, u.order)
        got = _polar_values(u.coeffs[:, None], ramp, powers)[0, :RADII.size]
        scale = (np.abs(u.coeffs) * np.power(RADII[:, None],
                                              np.arange(u.order + 1))).sum(axis=1)
        assert np.all(np.abs(got - want) <= 16 * eps * scale[:, None])
