"""Constructions and certificates for the q-starlike and q-convex classes.

Membership of a normalized f is governed by the ratio g(z) = f(qz)/f(z):
the starlike-type condition of order alpha is |g(z) - alpha q| <= 1 - alpha
on the disk, which is the textbook inequality

    | (z (Dq f)(z)/f(z) - alpha)/(1-alpha) - 1/(1-q) |  <=  1/(1-q)

multiplied through by (1-q)(1-alpha).  f is convex-type exactly when
z (Dq f)(z) is starlike-type with the same ratio, so both classes are
certified by one check of that one condition.  Members are generated from a
positive-real-part series p with f(qz) = f(z) * G(z), G = (1-alpha)
exp((ln q) p) + alpha q: at alpha = 0 as the closed form z exp(sum_n F_n
(p_n/2) z^n) of the class exponent F, one series exp; for alpha > 0 by the
functional-equation recursion.  Every convex-type member is the Jackson
q-integral of its starlike-type member over z.

Certificates evaluate the ratio on one fixed polar grid, radii 0.05..0.90
with 256 half-step offset angles each, by one inverse FFT of
c_n r^n e^{i pi n/256} per radius r: that is u at
the exact angles, within 4.3e-16 sum |c_n| r^n for f1 and f2 at order 192
(Horner at the rounded grid points: 1.0e-15).  The certificate core takes a
batch of members as the columns of one (N + 1, members) array (the membership
suite passes 64), transforms FFT_CHUNK = 4 of them at a time, and reports on
each bitwise as on the member alone.  It reads |g - alpha q| as q |u(qz) -
alpha u(z)|/|u(z)|, with no complex division.  Because the inputs are
truncated series, every evaluation carries a truncation-error estimate; a
grid point only counts as a violation when the excess
|g - alpha q| - (1 - alpha) exceeds the tolerance by more than the estimated
error, and reported margins are the error-adjusted excess on that scale for
both classes.  Points whose estimate is large can neither confirm nor deny;
they are tallied as unresolved.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import power_series as ps
from .caratheodory import AtomicMeasure, _moments
from .errors import EvaluationSingularityError, RangeError
from .extremal import _exponent_core, f_exponent_series
from .power_series import TruncatedSeries
from .q_calculus import ClassParams, _iq_core, dq, iq

_DENOM_FLOOR = 1e-14


#: the certificate grid: 18 radii, each with N_ANGLES angles at a half-step
#: offset so that axis-symmetric constructions do not land exactly on
#: symmetry-forced zeros.  A member of order <= MAX_ORDER gives a u of order
#: < N_ANGLES, so every degree has its own FFT bin.
RADII = np.round(np.arange(1, 19) * 0.05, 2)
N_ANGLES = 256
#: members per inverse FFT: 1.2 MB of scratch at order 192 (20 members: 5.3 MB)
FFT_CHUNK = 4
_POINTS = RADII[:, None] * np.exp(
    1j * ((np.arange(N_ANGLES) + 0.5) * (2.0 * math.pi / N_ANGLES)))[None, :]
RADII.setflags(write=False)
_POINTS.setflags(write=False)
_SCRATCH = threading.local()


@functools.lru_cache(maxsize=32)
def _grid_tables(q: float, order: int) -> tuple:
    """Read-only e^{i pi n/N_ANGLES} and r^n, a row each r in RADII, q RADII."""
    n = np.arange(order + 1)
    tables = (np.exp(1j * math.pi / N_ANGLES * n),
              np.power(np.outer((1.0, q), RADII).reshape(-1, 1), n)
              .astype(np.complex128))  # no cast buffer
    for t in tables:
        t.setflags(write=False)
    return tables


def _scratch(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """This thread's buffer `name`, grown but never freed, so that no sweep
    job or certificate allocates (and glibc trims and faults back) arrays."""
    size = math.prod(shape)
    if getattr(_SCRATCH, name, np.empty(0)).size < size:
        setattr(_SCRATCH, name, np.empty(size, dtype))
    return getattr(_SCRATCH, name)[:size].reshape(shape)


def _polar_values(u: np.ndarray, ramp: np.ndarray,
                  powers: np.ndarray) -> np.ndarray:
    """(column, r, j) -> u at r e^{i(2j + 1) pi/N_ANGLES}, for each row r^0..r^N
    of powers: the inverse DFT of c_n r^n e^{i pi n/N_ANGLES} (ramp), degree n
    in bin n, in this thread's scratch until its next call."""
    rows, m = powers.shape
    scaled = _scratch("scaled", (u.shape[1], m), np.complex128)
    scaled[:] = u.T
    scaled *= ramp
    terms = _scratch("terms", (rows, m), np.complex128)
    bins = _scratch("bins", (u.shape[1], rows, N_ANGLES), np.complex128)
    for k, c in enumerate(scaled):
        terms[:] = c
        terms *= powers  # in place: a broadcast product allocates its buffer
        bins[k, :, :m] = terms
    bins[..., m:] = 0.0
    return np.fft.ifft(bins, norm="forward", out=bins)


@dataclass(frozen=True)
class CertReport:
    """Outcome of a grid certificate.

    ``worst_margin`` is the largest error-adjusted excess
    |g - alpha q| - (1 - alpha) of the class ratio g, for both classes; the
    certificate passes iff it stays within tol.  ``unresolved`` counts grid
    points whose truncation-error estimate exceeded tol, where a
    sub-tolerance violation could hide.
    """

    passed: bool
    worst_margin: float
    worst_point: complex
    tol: float
    unresolved: int
    grid: dict = field(default_factory=dict)


def _certify(u: np.ndarray, params: ClassParams, criterion: str) -> list:
    """Certify |g - alpha q| <= 1 - alpha for g(z) = q u(qz)/u(z) on the grid,
    one CertReport per column of u (degree on axis 0), each the column's own.

    u is f/z for the starlike-type condition and Dq f for the convex-type
    one, so g is the class ratio of f or of its starlike pair z (Dq f).  The
    error of g at a point of radius r comes from the tail estimates of u at
    radius q r (numerator) and r (denominator).  A real-coefficient u has
    g(conj z) = conj g(z), so z and conj z tie and the worst point is
    reported as the one with Im z >= 0, whichever rounding picked.  An even u
    also has g(-z) = g(z); the point then has Re z >= 0 too.
    """
    tol = 1e-7  # on the error-adjusted excess
    q, alpha = params.q, params.alpha
    ramp, powers = _grid_tables(q, u.shape[0] - 1)
    n0 = max(0, u.shape[0] - 4)  # ps.tail_estimate of every column at once
    tails = 10.0 * (np.abs(u[n0:]) * powers.real[:, n0:, None]).max(axis=1)
    tails = tails.T.reshape(-1, 2, RADII.size, 1)  # (column, den/num, r, 1)
    real, even = ~np.any(u.imag, axis=0), ~np.any(u[1::2], axis=0)
    reports = []
    for lo in range(0, u.shape[1], FFT_CHUNK):
        vals = _polar_values(u[:, lo:lo + FFT_CHUNK], ramp, powers)
        den, num = vals[:, :RADII.size], vals[:, RADII.size:]
        den_abs, abs_g, excess = _scratch("planes", (3,) + den.shape)
        np.abs(den, out=den_abs)
        low = np.any(den_abs < _DENOM_FLOOR, axis=(1, 2))
        if np.any(low):
            idx = int(np.argmin(den_abs[np.argmax(low)]))
            raise EvaluationSingularityError(
                f"denominator vanished at grid point {_POINTS.ravel()[idx]:.6f}")
        den_tail, num_tail = tails[lo:lo + FFT_CHUNK].swapaxes(0, 1)
        np.divide(np.multiply(q, np.abs(num, out=abs_g), out=abs_g), den_abs, out=abs_g)
        if alpha == 0.0:  # |g - alpha q| is |g| = q |num|/|den|
            excess[:] = abs_g
        else:  # q |num - alpha den|/|den|
            np.abs(np.subtract(num, np.multiply(alpha, den, out=den), out=den), out=excess)
            np.divide(np.multiply(q, excess, out=excess), den_abs, out=excess)
        excess -= 1.0 - alpha
        err = np.add(q * num_tail, np.multiply(abs_g, den_tail, out=abs_g), out=abs_g)
        err /= den_abs
        flat = np.subtract(excess, err, out=excess).reshape(len(vals), -1)
        for k, idx in enumerate(np.argmax(flat, axis=1)):
            point = complex(_POINTS.ravel()[idx])
            if real[lo + k]:
                point = complex(abs(point.real) if even[lo + k] else point.real,
                                abs(point.imag))
            reports.append(CertReport(
                passed=not np.any(flat[k] > tol), worst_margin=float(flat[k, idx]),
                worst_point=point, tol=tol, unresolved=int(np.count_nonzero(err[k] > tol)),
                grid={"radii": RADII.tolist(), "n_angles": N_ANGLES, "angle_offset": 0.5,
                      "criterion": criterion, "q": q, "alpha": alpha}))
    return reports


def membership_starlike(f: TruncatedSeries, params: ClassParams) -> CertReport:
    """Grid certificate for the starlike-type condition of order alpha:
    |f(qz)/f(z) - alpha q| <= 1 - alpha within 1e-7.  f must have a_0 = 0."""
    return _certify(ps.div_z(f).coeffs[:, None], params, "starlike")[0]


def membership_convex(f: TruncatedSeries, params: ClassParams) -> CertReport:
    """Grid certificate for the convex-type condition of order alpha:
    |q (Dq f)(qz)/(Dq f)(z) - alpha q| <= 1 - alpha within 1e-7."""
    return _certify(dq(f, params.q).coeffs[:, None], params, "convex")[0]


# -- constructions: public wrappers over axis-0 array cores (see power_series)


def _starlike_core(p: np.ndarray, q: float, alpha: float) -> np.ndarray:
    """a_0..a_{N+1} of the member with f(qz) = f(z) G(z), p_0..p_N on axis 0.

    G = (1-alpha) exp((ln q) p) + alpha q has G(0) = q and |G - alpha q| <=
    1-alpha wherever Re p >= 0, so the member is in the class by construction.
    At alpha = 0 the member is z exp(sum_n F_n (p_n/2) z^n) for the class
    exponent F, one series exp (its ratio is q exp((ln q)(p - p_0))); for
    alpha > 0 it is :func:`_functional_equation_core`'s.
    """
    if alpha == 0.0:
        n = p.shape[0] - 1
        f_exp = f_exponent_series(ClassParams(q=q, order=max(n, 4))).coeffs
        return _exponent_core(0.5 * f_exp[:n + 1], p)  # F_n p_n/2, exactly
    return _functional_equation_core(p, q, alpha)


def _functional_equation_core(p: np.ndarray, q: float,
                              alpha: float) -> np.ndarray:
    """_starlike_core's member by the functional equation, for every alpha.

    a_n (q^n - q) = sum_{k<n} a_k G_{n-k}, a_1 = 1, is solved divided by q,
    where G_k / q = (1-alpha) exp((ln q)(p - 1))_k for k >= 1; a_{N+1} needs
    only G_1..G_N.  At alpha = 0 it is the independent route that the
    herglotz and Bieberbach cross-checks compare with the exponent route.
    """
    cp = ps._columns(p)
    e = np.empty_like(cp, order=ps._order(cp))
    ps._exp_into(cp, math.log(q), e)  # exp((ln q)(p - p_0))
    a = np.empty((len(e) + 1, e.shape[1]), e.dtype, order=ps._order(cp))
    a[0], a[1] = 0.0, 1.0
    for n in range(2, a.shape[0]):
        scale = (1.0 - alpha) / (q ** (n - 1) - 1.0)
        ps._contract(a[1:n], e[n - 1:0:-1], scale, a[n])
    return a.reshape(a.shape[:1] + p.shape[1:])


def starlike_from_p(p: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Starlike-type member generated by a positive-real-part series, with
    f(qz) = f(z) G(z) (see :func:`_starlike_core`).  An order-N member reads
    p_0..p_{N-1}."""
    return TruncatedSeries(
        _starlike_core(p.coeffs[: params.order], params.q, params.alpha))


def convex_from_h(p: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Convex-type member from the bounded map h = exp((ln q) p).

    f is convex-type exactly when z (Dq f) is starlike-type with the same
    ratio G = (1-alpha) h + alpha q, so f is the Jackson q-integral of
    starlike_from_p(p) / z.  Equivalently z (Dq f) = z / prod_{m>=0}
    fac(q^m z) with fac = G/q: the product telescopes through the starlike
    functional equation.  At alpha = 0 the starlike member is built as
    z exp(sum_n F_n (p_n/2) z^n), which is z exp(sum_n F_n m_n z^n) for the
    p of a measure, so this and :func:`convex_from_measure` give the same
    member bitwise.
    """
    a = _starlike_core(p.coeffs[: params.order], params.q, params.alpha)
    return TruncatedSeries(_iq_core(a[1:], params.q))


def convex_from_measure(m: AtomicMeasure, params: ClassParams) -> TruncatedSeries:
    """Convex-type member with z (Dq f)(z) = z exp(sum_j t_j F(sigma_j z))
    for the class exponent F, the q-integral of that member over z; a unit
    mass at angle 0 returns the q-integral extremal exactly.

    A class member only at alpha = 0, where it is bitwise
    :func:`convex_from_h` of the measure's p; for alpha > 0 the ratio of
    z exp(...) leaves the disk |g - alpha q| <= 1 - alpha near every atom."""
    n = params.order
    a = _exponent_core(f_exponent_series(params).coeffs[:n],
                       _moments(m.weights, m.angles, n - 1))
    return TruncatedSeries(_iq_core(a[1:], params.q))


def rho_map(f: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """The bounded map (q (Dq f)(qz)/(Dq f)(z) - alpha q)/(1 - alpha).

    Constant term q for every normalized input; inverts convex_from_h up to
    truncation.
    """
    q, alpha = params.q, params.alpha
    d = dq(f, q)
    if abs(d.coeffs[0]) < _DENOM_FLOOR:
        raise RangeError("Dq f has vanishing constant term; f is not normalized")
    ratio = ps.mul(ps.dilate(d, q), ps.recip(d))
    out = q * ratio.coeffs
    out[0] -= alpha * q  # the affine shift only moves the constant term
    out /= (1.0 - alpha)
    out[0] = q  # exact by construction; avoids rounding residue
    return TruncatedSeries(out)


def alexander_pair(f_or_g: TruncatedSeries, direction: str,
                   params: ClassParams) -> TruncatedSeries:
    """Move between the convex-type and starlike-type classes.

    ``to_starlike``: g = z (Dq f)(z);  ``to_convex``: the unique f with that
    property, recovered by the q-integral.  The two directions are mutually
    inverse up to truncation.
    """
    if direction == "to_starlike":
        return ps.times_z(dq(f_or_g, params.q))
    if direction == "to_convex":
        return iq(ps.div_z(f_or_g), params.q)
    raise RangeError(f"unknown direction {direction!r}")

