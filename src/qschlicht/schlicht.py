"""Constructions and certificates for the q-starlike and q-convex classes.

Membership of a normalized f is governed by the ratio g(z) = f(qz)/f(z):
the starlike-type condition of order alpha is |g(z) - alpha q| <= 1 - alpha
on the disk, which is the textbook inequality

    | (z (Dq f)(z)/f(z) - alpha)/(1-alpha) - 1/(1-q) |  <=  1/(1-q)

multiplied through by (1-q)(1-alpha).  f is convex-type exactly when
z (Dq f)(z) is starlike-type with the same ratio, so both classes are
certified by one check of that one condition.  Members are generated from a
positive-real-part series p through the functional equation
f(qz) = f(z) * G(z) with G = (1-alpha) exp((ln q) p) + alpha q, or through a
measure exponent.  Every convex-type member is the Jackson q-integral of its
starlike-type member over z.

Certificates evaluate the ratio on a polar grid.  Because the inputs are
truncated series, every evaluation carries a truncation-error estimate; a
grid point only counts as a violation when the excess
|g - alpha q| - (1 - alpha) exceeds the tolerance by more than the estimated
error, and reported margins are the error-adjusted excess on that scale for
both classes.  Points whose estimate is large can neither confirm nor deny;
they are tallied as unresolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import power_series as ps
from .caratheodory import AtomicMeasure, _moments
from .errors import ConfigError, EvaluationSingularityError, RangeError
from .extremal import _exponent_core, f_exponent_series
from .power_series import TruncatedSeries
from .q_calculus import ClassParams, _iq_core, dq, iq

_DENOM_FLOOR = 1e-14


@dataclass(frozen=True)
class CertGrid:
    """Polar evaluation grid: radii x equally spaced angles.

    Angles carry a half-step offset so axis-symmetric constructions do not
    land exactly on symmetry-forced zeros.
    """

    radii: tuple = tuple(np.round(np.arange(1, 19) * 0.05, 2))
    n_angles: int = 256

    def points(self) -> np.ndarray:
        angles = (np.arange(self.n_angles) + 0.5) * (2.0 * math.pi / self.n_angles)
        r = np.asarray(self.radii, dtype=np.float64)
        return r[:, None] * np.exp(1j * angles)[None, :]

    def to_dict(self) -> dict:
        return {"radii": [float(r) for r in self.radii],
                "n_angles": int(self.n_angles), "angle_offset": 0.5}


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


def _certify(u: TruncatedSeries, params: ClassParams, grid: CertGrid | None,
             tol: float, criterion: str) -> CertReport:
    """Certify |g - alpha q| <= 1 - alpha for g(z) = q u(qz)/u(z) on the grid.

    u is f/z for the starlike-type condition and Dq f for the convex-type
    one, so g is the class ratio of f or of its starlike pair z (Dq f).  The
    error of g at a point of radius r comes from the tail estimates of u at
    radius q r (numerator) and r (denominator).  A real-coefficient u has
    g(conj z) = conj g(z), so z and conj z tie and the worst point is
    reported as the one with Im z >= 0, whichever rounding picked.
    """
    grid = grid or CertGrid()
    q, alpha = params.q, params.alpha
    z = grid.points()
    den = ps.eval_grid(u, z)
    den_abs = np.abs(den)
    if np.any(den_abs < _DENOM_FLOOR):
        idx = int(np.argmin(den_abs))
        raise EvaluationSingularityError(
            f"denominator vanished at grid point {z.ravel()[idx]:.6f}")
    g = q * ps.eval_grid(u, q * z) / den
    num_tail, den_tail = (
        np.array([ps.tail_estimate(u, float(r)) for r in radii])[:, None]
        for radii in ([q * float(r) for r in grid.radii], grid.radii))
    excess = np.abs(g - alpha * q) - (1.0 - alpha)
    err = (q * num_tail + np.abs(g) * den_tail) / den_abs
    flat = (excess - err).ravel()
    idx = int(np.argmax(flat))
    point = complex(z.ravel()[idx])
    if point.imag < 0.0 and not np.any(u.coeffs.imag):
        point = point.conjugate()
    return CertReport(
        passed=not np.any(flat > tol),
        worst_margin=float(flat[idx]),
        worst_point=point,
        tol=float(tol),
        unresolved=int(np.count_nonzero(err > tol)),
        grid=dict(grid.to_dict(), criterion=criterion, q=q, alpha=alpha),
    )


def membership_starlike(f: TruncatedSeries, params: ClassParams,
                        grid: CertGrid | None = None,
                        tol: float = 1e-7) -> CertReport:
    """Grid certificate for the starlike-type condition of order alpha:
    |f(qz)/f(z) - alpha q| <= 1 - alpha.  f must have a_0 = 0."""
    return _certify(ps.div_z(f), params, grid, tol, "starlike")


def membership_convex(f: TruncatedSeries, params: ClassParams,
                      grid: CertGrid | None = None,
                      tol: float = 1e-7) -> CertReport:
    """Grid certificate for the convex-type condition of order alpha:
    |q (Dq f)(qz)/(Dq f)(z) - alpha q| <= 1 - alpha."""
    return _certify(dq(f, params.q), params, grid, tol, "convex")


# -- constructions: public wrappers over axis-0 array cores (see power_series)


def _starlike_core(p: np.ndarray, q: float, alpha: float) -> np.ndarray:
    """a_0..a_{N+1} of the member with f(qz) = f(z) G(z), p_0..p_N on axis 0.

    G = (1-alpha) exp((ln q) p) + alpha q has G(0) = q and |G - alpha q| <=
    1-alpha wherever Re p >= 0, so the member is in the class by construction.
    a_n (q^n - q) = sum_{k<n} a_k G_{n-k}, a_1 = 1, is solved divided by q,
    where G_k / q = (1-alpha) exp((ln q)(p - 1))_k for k >= 1; a_{N+1} needs
    only G_1..G_N.
    """
    u = ps._columns(p) * math.log(q)
    u[0] = 0.0
    e = ps._exp_core(u)
    a = np.zeros((e.shape[0] + 1,) + e.shape[1:], dtype=e.dtype)
    a[1:2] = 1.0
    for n in range(2, a.shape[0]):
        scale = (1.0 - alpha) / (q ** (n - 1) - 1.0)
        ps._contract(a[1:n], e[n - 1:0:-1], scale, a[n])
    return a.reshape(a.shape[:1] + p.shape[1:])


def starlike_from_p(p: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Starlike-type member generated by a positive-real-part series; solves
    f(qz) = f(z) G(z) coefficientwise (see :func:`_starlike_core`).  An
    order-N member reads p_0..p_{N-1}."""
    return TruncatedSeries(
        _starlike_core(p.coeffs[: params.order], params.q, params.alpha))


def convex_from_h(p: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Convex-type member from the bounded map h = exp((ln q) p).

    f is convex-type exactly when z (Dq f) is starlike-type with the same
    ratio G = (1-alpha) h + alpha q, so f is the Jackson q-integral of
    starlike_from_p(p) / z.  Equivalently z (Dq f) = z / prod_{m>=0}
    fac(q^m z) with fac = G/q: the product telescopes through the starlike
    functional equation.  At alpha = 0 the starlike member is
    z exp(sum_n F_n m_n z^n) for a measure-generated p, so this and
    :func:`convex_from_measure` give the same member to rounding.
    """
    a = _starlike_core(p.coeffs[: params.order], params.q, params.alpha)
    return TruncatedSeries(_iq_core(a[1:], params.q))


def convex_from_measure(m: AtomicMeasure, params: ClassParams) -> TruncatedSeries:
    """Convex-type member with z (Dq f)(z) = z exp(sum_j t_j F(sigma_j z))
    for the class exponent F, the q-integral of that member over z; a unit
    mass at angle 0 returns the q-integral extremal exactly."""
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
        return dq(f_or_g, params.q).times_z()
    if direction == "to_convex":
        return iq(f_or_g.div_z(), params.q)
    raise ConfigError(f"unknown direction {direction!r}")


def check_normalized(f: TruncatedSeries, tol: float = 0.0) -> bool:
    """True when a0 = 0 and a1 = 1 (within tol)."""
    return bool(abs(f.coeffs[0]) <= tol and abs(f.coeffs[1] - 1.0) <= tol)
