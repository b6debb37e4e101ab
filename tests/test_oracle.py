"""High-precision oracle for the closed-form convex product route.

``convex_from_h`` sums the infinite q-product in closed form.  The oracle
here multiplies the literal factors ((1-alpha) h(q^m z) + alpha q)/q at 50
significant digits, taking enough of them that the dropped tail is below
1e-40, then inverts and q-integrates.
"""

import mpmath as mp
import numpy as np
import pytest

from qschlicht.caratheodory import p_series, sample_measure
from qschlicht.q_calculus import ClassParams
from qschlicht.schlicht import convex_from_h

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
