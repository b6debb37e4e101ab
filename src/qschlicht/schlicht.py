"""Constructions and certificates for the q-starlike and q-convex classes.

Membership of a normalized f is governed by the ratio g(z) = f(qz)/f(z):
the starlike-type condition of order alpha is |g(z) - alpha q| <= 1 - alpha
on the disk, which is exactly the textbook inequality

    | (z (Dq f)(z)/f(z) - alpha)/(1-alpha) - 1/(1-q) |  <=  1/(1-q)

after clearing denominators.  Members are generated from a positive-real-part
series p through the functional equation f(qz) = f(z) * G(z) with
G = (1-alpha) exp((ln q) p) + alpha q, and convex-type members through the
infinite product for z (Dq f)(z), summed in closed form, or through a measure
exponent.

Certificates evaluate the defining expressions on a polar grid.  Because the
inputs are truncated series, every evaluation carries a truncation-error
estimate; a grid point only counts as a violation when the excess exceeds the
tolerance by more than the estimated error, and reported margins are the
error-adjusted signal.  Points whose estimate is large can neither confirm
nor deny; they are tallied as unresolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import power_series as ps
from .caratheodory import AtomicMeasure
from .errors import ConfigError, EvaluationSingularityError, RangeError
from .extremal import f_exponent_series
from .power_series import TruncatedSeries
from .q_calculus import ClassParams, dq, iq, q_powers

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

    ``worst_margin`` is the largest error-adjusted excess of the defining
    expression over its bound; the certificate passes iff it stays within
    tol.  ``unresolved`` counts grid points whose truncation-error estimate
    exceeded tol, where a sub-tolerance violation could hide.
    """

    passed: bool
    worst_margin: float
    worst_point: complex
    tol: float
    unresolved: int
    grid: dict = field(default_factory=dict)


def _certify(num_values, den_values, num_tail, den_tail, grid_points, offset,
             bound, tol, grid_dict):
    """Shared certificate core for expressions |num/den - offset| <= bound.

    num_tail/den_tail are per-point truncation-error estimates for the two
    polynomial evaluations.
    """
    den_abs = np.abs(den_values)
    if np.any(den_abs < _DENOM_FLOOR):
        idx = int(np.argmin(den_abs))
        z_bad = grid_points.ravel()[idx]
        raise EvaluationSingularityError(
            f"denominator vanished at grid point {z_bad:.6f}")
    g = num_values / den_values
    excess = np.abs(g - offset) - bound
    err = (num_tail + np.abs(g) * den_tail) / den_abs
    signal = excess - err
    flat = signal.ravel()
    idx = int(np.argmax(flat))
    worst = float(flat[idx])
    violations = int(np.count_nonzero(excess - err > tol))
    unresolved = int(np.count_nonzero(err > tol))
    return CertReport(
        passed=violations == 0,
        worst_margin=worst,
        worst_point=complex(grid_points.ravel()[idx]),
        tol=float(tol),
        unresolved=unresolved,
        grid=grid_dict,
    )


def _tails(series: TruncatedSeries, radii) -> np.ndarray:
    return np.array([ps.tail_estimate(series, float(r)) for r in radii])


def membership_starlike(f: TruncatedSeries, params: ClassParams,
                        grid: CertGrid | None = None,
                        tol: float = 1e-7) -> CertReport:
    """Grid certificate for the starlike-type condition of order alpha.

    Evaluates (z (Dq f)/f - alpha)/(1-alpha) - 1/(1-q) against the radius
    1/(1-q) at every grid point, with truncation-error accounting.
    """
    grid = grid or CertGrid()
    q, alpha = params.q, params.alpha
    z = grid.points()
    num_series = dq(f, q).times_z()
    fz = ps.eval_grid(f, z)
    nz = ps.eval_grid(num_series, z)
    f_tail = _tails(f, grid.radii)[:, None]
    n_tail = _tails(num_series, grid.radii)[:, None]

    den_abs = np.abs(fz)
    if np.any(den_abs < _DENOM_FLOOR):
        idx = int(np.argmin(den_abs))
        raise EvaluationSingularityError(
            f"|f| vanished at grid point {z.ravel()[idx]:.6f}")
    ratio = nz / fz
    expr = (ratio - alpha) / (1.0 - alpha) - 1.0 / (1.0 - q)
    excess = np.abs(expr) - 1.0 / (1.0 - q)
    err = (n_tail + np.abs(ratio) * f_tail) / den_abs / (1.0 - alpha)
    signal = excess - err
    flat = signal.ravel()
    idx = int(np.argmax(flat))
    return CertReport(
        passed=int(np.count_nonzero(excess - err > tol)) == 0,
        worst_margin=float(flat[idx]),
        worst_point=complex(z.ravel()[idx]),
        tol=float(tol),
        unresolved=int(np.count_nonzero(err > tol)),
        grid=dict(grid.to_dict(), criterion="starlike", q=q, alpha=alpha),
    )


def membership_convex(f: TruncatedSeries, params: ClassParams,
                      grid: CertGrid | None = None,
                      tol: float = 1e-7) -> CertReport:
    """Grid certificate for the convex-type condition of order alpha:
    |q (Dq f)(qz)/(Dq f)(z) - alpha q| <= 1 - alpha."""
    grid = grid or CertGrid()
    q, alpha = params.q, params.alpha
    z = grid.points()
    d = dq(f, q)
    dz = ps.eval_grid(d, z)
    dqz = ps.eval_grid(d, q * z)
    d_tail = _tails(d, grid.radii)[:, None]
    d_tail_q = _tails(d, [q * float(r) for r in grid.radii])[:, None]
    return _certify(
        num_values=q * dqz,
        den_values=dz,
        num_tail=q * d_tail_q,
        den_tail=d_tail,
        grid_points=z,
        offset=alpha * q,
        bound=1.0 - alpha,
        tol=tol,
        grid_dict=dict(grid.to_dict(), criterion="convex", q=q, alpha=alpha),
    )


# -- constructions -----------------------------------------------------------


def _transition_series(p: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """G = (1-alpha) exp((ln q) p) + alpha q, the target of f(qz)/f(z).

    G(0) = q, and |G - alpha q| = (1-alpha) |exp((ln q) p)| <= 1-alpha holds
    wherever Re p >= 0, so the generated f satisfies the class condition by
    construction.
    """
    q, alpha = params.q, params.alpha
    lnq = math.log(q)
    u = p.coeffs * lnq
    u[0] = 0.0  # exp(lnq * p) = q * exp(lnq * (p - 1))
    e = ps.exp(TruncatedSeries(u))
    g = (1.0 - alpha) * q * e.coeffs
    g[0] = q
    return TruncatedSeries(g)


def starlike_from_p(p: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Starlike-type member generated by a positive-real-part series.

    Solves f(qz) = f(z) G(z) coefficientwise:
    a_n = sum_{k<n} a_k G_{n-k} / (q^n - q), a_1 = 1.
    """
    n_ord = min(params.order, p.order)
    g = _transition_series(ps.truncate(p, n_ord), params).coeffs
    q = params.q
    a = np.zeros(n_ord + 1, dtype=np.complex128)
    if n_ord >= 1:
        a[1] = 1.0
    for n in range(2, n_ord + 1):
        acc = 0.0 + 0.0j
        for k in range(1, n):
            acc += a[k] * g[n - k]
        a[n] = acc / (q ** n - q)
    return TruncatedSeries(a)


def convex_from_h(p: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Convex-type member from the bounded map h = exp((ln q) p).

    z (Dq f)(z) = z / prod_{m>=0} fac(q^m z) with the factor
    fac = ((1-alpha) h + alpha q)/q = exp(lam), where
    lam = log(1 + (1-alpha)(exp((ln q)(p - 1)) - 1)) as a formal series.  The
    product telescopes: sum_m lam(q^m z) = sum_n lam_n z^n / (1 - q^n), so

        Dq f = exp(-sum_n lam_n z^n / (1 - q^n))

    exactly, with no truncated factor loop.  At alpha = 0, lam = (ln q)(p - 1)
    and this is the measure exponent of :func:`convex_from_measure`, so for a
    measure-generated p both routes give the same member to rounding.
    """
    q, alpha = params.q, params.alpha
    n_ord = min(params.order, p.order)
    lam = p.coeffs[: n_ord + 1] * math.log(q)
    lam[0] = 0.0
    if alpha != 0.0:
        g = (1.0 - alpha) * ps.exp(TruncatedSeries(lam)).coeffs
        g[0] = 1.0  # alpha + (1-alpha) exp((ln q)(p - 1))
        lam = ps.log(TruncatedSeries(g)).coeffs.copy()
    lam[1:] /= 1.0 - q_powers(q, n_ord)[1:]
    d_series = ps.exp(TruncatedSeries(-lam))  # Dq f
    return ps.truncate(iq(d_series, q), params.order)


def convex_from_measure(m: AtomicMeasure, params: ClassParams) -> TruncatedSeries:
    """Convex-type member with z (Dq f)(z) = z exp(sum_j t_j F(sigma_j z))
    for the class exponent F; a unit mass at angle 0 returns the q-integral
    extremal exactly."""
    f_exp = f_exponent_series(params)
    acc = np.zeros(params.order + 1, dtype=np.complex128)
    for w, theta in zip(m.weights, m.angles):
        acc += w * ps.dilate(f_exp, np.exp(1j * theta)).coeffs
    d_series = ps.exp(TruncatedSeries(acc))
    return ps.truncate(iq(d_series, params.q), params.order)


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
