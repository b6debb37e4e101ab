"""Finite atomic measures on the unit circle and the positive-real-part class.

An atomic probability measure with atoms ``sigma_j = exp(i theta_j)`` and
weights ``t_j`` generates the Herglotz-type series

    p(z) = 1 + sum_n (2 sum_j t_j sigma_j^n) z^n,

which has positive real part on the disk and |p_n| <= 2.  One and two atoms
already realize the extremal generators, so finite measures are all the
search machinery ever needs; every representation integral collapses to a
finite sum.

Atom phases sigma_j = e^{i theta_j} come from one kernel, :func:`_phase`: a
256-entry (cos, sin) table and a short real Taylor step, within 2.5e-16 of
e^{i theta} for |theta| <= 32 pi.  It runs on real ufuncs only, where
numpy's complex exp calls scalar cexp per element.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RangeError
from .power_series import TruncatedSeries, _einsum
from .q_calculus import _check_count

MAX_ATOMS = 8
TWO_PI = 2.0 * math.pi

#: 2 pi/256 = _STEP_HI + _STEP_LO; _STEP_HI has its low 12 bits clear, so
#: j * _STEP_HI is exact for |j| <= 4096, i.e. |theta| <= 32 pi
_STEP_HI = 0.02454369260615863
_STEP_LO = 1.1630542938260349e-14


def _phase_table():
    """cos and sin of 2 pi k/256, k = 0..255.  libm below pi/4, corrected
    to first order for the split angle k _STEP_HI + k _STEP_LO; sqrt(1/2)
    at pi/4 and the rest by symmetry, so the table has the symmetries of
    cos and sin and the axis points are exact."""
    c, s = [], []
    for k in range(32):
        x, d = k * _STEP_HI, k * _STEP_LO
        c.append(math.cos(x) - d * math.sin(x))
        s.append(math.sin(x) + d * math.cos(x))
    c.append(math.sqrt(0.5))
    s.append(math.sqrt(0.5))
    cos = np.array(c + s[31:0:-1])  # cos(pi/2 - x) = sin x
    sin = np.array(s + c[31:0:-1])
    # 0.0 - x, not -x, so that no entry is a negative zero
    return (np.concatenate([cos, 0.0 - sin, 0.0 - cos, sin]),
            np.concatenate([sin, cos, 0.0 - sin, 0.0 - cos]))


_COS, _SIN = _phase_table()


def _horner(x, coeffs, out):
    """out = x p(x) for p with coefficients ``coeffs``, highest first."""
    np.multiply(x, coeffs[0], out=out)
    for a in coeffs[1:]:
        np.add(out, a, out=out)
        np.multiply(out, x, out=out)


def _phase(angles) -> np.ndarray:
    """e^{i theta} for an array of angles, from real ufuncs only.

    theta = j 2 pi/256 + r with j = rint(theta 256/(2 pi)), reduced as
    (theta - j _STEP_HI) - j _STEP_LO (Cody-Waite), so |r| <= pi/256.  The
    phase is the table entry j & 255 times 1 + (cos r - 1) + i sin r, with
    cos r - 1 through r^6 and sin r through r^7.  Within 2.5e-16 of
    e^{i theta} for |theta| <= 32 pi.  Every step is its own exactly rounded
    ufunc, so none is fused and an angle's phase does not depend on its
    position in the array."""
    angles = np.asarray(angles, dtype=np.float64)
    j, r, r2, c, s, t = np.empty((6,) + angles.shape)
    np.multiply(angles, 256 / TWO_PI, out=j)
    np.rint(j, out=j)
    np.multiply(j, _STEP_HI, out=r)
    np.subtract(angles, r, out=r)
    np.multiply(j, _STEP_LO, out=t)
    np.subtract(r, t, out=r)
    k = j.astype(np.intp)
    np.bitwise_and(k, 255, out=k)
    np.multiply(r, r, out=r2)
    _horner(r2, (-1.0 / 720, 1.0 / 24, -0.5), c)  # cos r - 1
    _horner(r2, (-1.0 / 5040, 1.0 / 120, -1.0 / 6), s)
    np.multiply(s, r, out=s)
    np.add(s, r, out=s)  # sin r
    cos, sin = np.take(_COS, k, out=j), np.take(_SIN, k, out=r2)
    out = np.empty(angles.shape, dtype=np.complex128)
    # re = cos + (cos c - sin s), im = sin + (sin c + cos s); the strided
    # real/imag views are written once each
    np.multiply(cos, c, out=r)
    np.multiply(sin, s, out=t)
    np.subtract(r, t, out=r)
    np.add(cos, r, out=out.real)
    np.multiply(sin, c, out=r)
    np.multiply(cos, s, out=t)
    np.add(r, t, out=r)
    np.add(sin, r, out=out.imag)
    return out

#: name of the generator behind :func:`_fill_rows`, the one sampler of
#: sample_measure, the sweeps and the verify suites; recorded in reports so
#: runs are reproducible bit for bit.
RNG_NAME = "numpy-pcg64"


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Probability measure with at most MAX_ATOMS point masses on the circle."""

    weights: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        a = np.ascontiguousarray(self.angles, dtype=np.float64)
        if w.ndim != 1 or a.shape != w.shape or w.size == 0:
            raise RangeError("weights and angles must be matching 1-d arrays")
        if w.size > MAX_ATOMS:
            raise RangeError(f"at most {MAX_ATOMS} atoms are supported")
        if not np.all(w > 0):
            raise RangeError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise RangeError("weights must sum to 1 within 1e-12")
        if not np.all(np.isfinite(a)):
            raise RangeError("angles must be finite")
        a = np.mod(a, TWO_PI)
        w.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "angles", a)

    def rotated(self, theta: float) -> "AtomicMeasure":
        """Rotate every atom by theta; the generated f rotates accordingly."""
        return AtomicMeasure(self.weights, self.angles + theta)

    def to_dict(self) -> dict:
        return {"atoms": [{"weight": float(w), "angle": float(a)}
                          for w, a in zip(self.weights, self.angles)]}


def _moments(weights, angles, n_max: int) -> np.ndarray:
    """m_n = sum_j t_j sigma_j^n, n = 0..n_max, on axis 0; atoms on input
    axis 0.  Angles one row short of the weights, as samples come, put atom
    0 at angle 0: m_n = t_0 + sum_{j>=1} t_j sigma_j^n with no phase or
    power of atom 0, bitwise the moments of the full measure.  Every slot
    gets its phase from :func:`_phase`, which depends on the angle alone; a
    zero-weight slot adds 0 times a finite phase, a signed zero.  Powers
    are a cumulative product and each degree adds atoms 1.. in order, then
    atom 0, on contiguous copies, so a sample gets the same moments alone,
    in a block's slice or as a transposed view."""
    # einsum would cast the weights to complex on every degree; once is enough
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    phase = _phase(angles)
    skip = len(weights) - len(phase)  # 1 when atom 0 has no angle
    out = np.empty((n_max + 1,) + phase.shape[1:], dtype=np.complex128)
    out[0] = 1.0
    cur = phase
    for n in range(1, n_max + 1):
        if n > 1:  # not in place: that rounds by position in the array
            cur = cur * phase
        m = out[n, ...]  # a view also for a single measure's 0-d degree
        _einsum("j...,j...->...", weights[1:], cur[1 - skip:], out=m)
        np.add(m, weights[0] if skip else weights[0] * cur[0], out=m)
    return out


def _p_coeffs(moments: np.ndarray) -> np.ndarray:
    """p along axis 0 from the moments: p_0 = 1, p_n = 2 m_n."""
    p = 2.0 * moments
    p[0] = 1.0
    return p


def p_series(m: AtomicMeasure, order: int) -> TruncatedSeries:
    """Positive-real-part series of the measure: p0 = 1, p_n = 2 sum t_j sigma_j^n."""
    return TruncatedSeries(_p_coeffs(_moments(m.weights, m.angles, order)))


def rotation_normalized(m: AtomicMeasure) -> AtomicMeasure:
    """Rotate so the first moment (hence p1) is real and nonnegative.

    Searches use this to cut the angular degree of freedom; the functionals
    of interest are rotation invariant.
    """
    m1 = complex(_moments(m.weights, m.angles, 1)[1])
    if abs(m1) == 0.0:
        return m
    return m.rotated(-np.angle(m1))


def extend_p23(p1: float, xi: complex, zeta: complex) -> tuple[complex, complex]:
    """Second and third coefficients reachable from p1 in the class.

    For p1 in [0, 2] and |xi| <= 1, |zeta| <= 1:

        2 p2 = p1^2 + xi (4 - p1^2)
        4 p3 = p1^3 + 2(4-p1^2) p1 xi - p1 (4-p1^2) xi^2
               + 2 (4-p1^2)(1-|xi|^2) zeta
    """
    p1 = float(p1)
    if not (0.0 <= p1 <= 2.0):
        raise RangeError("p1 must lie in [0, 2]")
    xi = complex(xi)
    zeta = complex(zeta)
    if abs(xi) > 1.0 + 1e-12 or abs(zeta) > 1.0 + 1e-12:
        raise RangeError("xi and zeta must lie in the closed unit disk")
    s = 4.0 - p1 * p1
    p2 = 0.5 * (p1 * p1 + xi * s)
    p3 = 0.25 * (p1 ** 3 + 2.0 * s * p1 * xi - p1 * s * xi * xi
                 + 2.0 * s * (1.0 - abs(xi) ** 2) * zeta)
    return p2, p3


def _check_seed(seed) -> int:
    """The seed as an int; ConfigError unless it is a non-negative integer."""
    try:
        if operator.index(seed) >= 0:
            return operator.index(seed)
    except TypeError:
        pass
    raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def _fill_rows(seed: int, spawn_key: tuple, block, lo: int,
               ragged: bool = True):
    """Draw samples lo..lo+n-1 of a sample stream into ``block``, their
    atom-major (2*k - 1, n) array; return its (weights, angles) views, of
    shapes (k, n) and (k - 1, n): atom 0 of every sample sits at angle 0,
    which no rotation invariant functional sees.

    The stream is the PCG64 of ``SeedSequence(seed, spawn_key=spawn_key)``,
    and sample i takes its draws (2*k - 1)*i onwards (they land row by row,
    then are transposed once), so any split fills the samples bitwise
    alike.  The first k - 1 draws of a sample are the angles of atoms
    1..k-1, 2 pi u; the last k are the weights, 0.05 + 0.95 u, which keeps
    every weight bounded away from zero, divided by their sum taken left to
    right in atom-index order.  A ``ragged`` sample i keeps
    ``(i % (k - 1)) + 2`` atoms (k >= 2) and zero weight in the slots past
    them; otherwise every sample keeps all k.
    """
    k, n = (block.shape[0] + 1) // 2, block.shape[1]
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=spawn_key)
    bitgen = np.random.PCG64(ss)
    bitgen.advance((2 * k - 1) * lo)
    block[:] = np.random.Generator(bitgen).random((n, 2 * k - 1)).T
    angles, weights = block[:k - 1], block[k - 1:]
    angles *= TWO_PI
    weights *= 0.95
    weights += 0.05
    for r in range(k - 2 if ragged else 0):  # i % (k-1) == r keeps r + 2 atoms
        weights[r + 2:, (r - lo) % (k - 1)::k - 1] = 0.0
    weights /= sum(weights[1:], weights[0].copy())
    return weights, angles


def sample_measure(seed: int, k_atoms: int) -> AtomicMeasure:
    """Deterministic random measure with k_atoms atoms for a seed: sample 0
    of the sample stream of ``default_rng(seed)`` (see :func:`_fill_rows`).

    Atom 0 sits at angle 0 and the other angles are uniform on [0, 2 pi);
    weights are uniform on [0.05, 1], normalized."""
    k_atoms = _check_count(k_atoms, "k_atoms", 1, MAX_ATOMS)
    weights, angles = _fill_rows(seed, (), np.empty((2 * k_atoms - 1, 1)), 0,
                                 ragged=False)
    return AtomicMeasure(weights[:, 0], np.append(0.0, angles[:, 0]))


# -- measure (de)serialization ----------------------------------------------

def measure_from_dict(data: dict) -> AtomicMeasure:
    """Parse ``{"atoms": [{"weight": w, "angle": a}, ...]}`` (angles in radians).

    Rejects weight sums off 1 by more than 1e-9 and renormalizes those off by
    more than 1e-12, so a dumped measure reads back bit for bit.
    """
    try:
        atoms = data["atoms"]
        weights = np.array([float(a["weight"]) for a in atoms])
        angles = np.array([float(a["angle"]) for a in atoms])
    except (KeyError, TypeError) as exc:
        raise RangeError(f"malformed measure payload: {exc}") from exc
    if weights.size == 0:
        raise RangeError("measure needs at least one atom")
    if np.any(weights <= 0):
        raise RangeError("measure weights must be strictly positive")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise RangeError(f"measure weights sum to {total}, outside 1 +- 1e-9")
    if abs(total - 1.0) > 1e-12:
        weights = weights / total
    return AtomicMeasure(weights, angles)


def load_measure(path) -> AtomicMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_dict(json.load(fh))


def dump_measure(m: AtomicMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(m.to_dict(), fh, indent=2)
        fh.write("\n")
