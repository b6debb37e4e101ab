"""Finite atomic measures on the unit circle and the positive-real-part class.

An atomic probability measure with atoms ``sigma_j = exp(i theta_j)`` and
weights ``t_j`` generates the Herglotz-type series

    p(z) = 1 + sum_n (2 sum_j t_j sigma_j^n) z^n,

which has positive real part on the disk and |p_n| <= 2.  One and two atoms
already realize the extremal generators, so finite measures are all the
search machinery ever needs; every representation integral collapses to a
finite sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParametrizationError, OrderTooSmallError, RangeError
from .power_series import TruncatedSeries, _einsum

MAX_ATOMS = 8
TWO_PI = 2.0 * math.pi

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
        a = np.mod(a, TWO_PI)
        w.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "angles", a)

    @property
    def k(self) -> int:
        return self.weights.size

    def atoms(self) -> np.ndarray:
        """Atom locations on the unit circle."""
        return np.exp(1j * self.angles)

    def rotated(self, theta: float) -> "AtomicMeasure":
        """Rotate every atom by theta; the generated f rotates accordingly."""
        return AtomicMeasure(self.weights, self.angles + theta)

    def to_dict(self) -> dict:
        return {"atoms": [{"weight": float(w), "angle": float(a)}
                          for w, a in zip(self.weights, self.angles)]}


def _moments(weights, angles, n_max: int) -> np.ndarray:
    """m_n = sum_j t_j sigma_j^n, n = 0..n_max, on axis 0; atoms on the last
    input axis.  Powers are a cumulative product and atoms are added in
    order, so a row gets the same moments alone as in a batch, and
    zero-weight trailing atoms change nothing: their phase is not computed
    and stays 1."""
    phase = np.ones(np.shape(angles), dtype=np.complex128)
    np.exp(1j * angles, out=phase, where=weights > 0)
    out = np.empty((n_max + 1,) + phase.shape[:-1], dtype=np.complex128)
    out[0] = 1.0
    # einsum would cast the weights to complex on every degree; once is enough
    weights = np.asarray(weights, dtype=np.complex128)
    cur = np.ones_like(phase)
    for n in range(1, n_max + 1):
        cur = cur * phase  # not in place: that rounds by position in the array
        out[n] = _einsum("...j,...j->...", weights, cur)
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


def recover_xi_zeta(p1: float, p2: complex, p3: complex,
                    xi_guard: float = 1e-6) -> tuple[complex, complex]:
    """Invert :func:`extend_p23` for interior p1 and well-conditioned xi.

    Raises DegenerateParametrizationError on the p1 boundary (the map
    collapses there) and when |xi| approaches 1 (the zeta coefficient
    vanishes).
    """
    p1 = float(p1)
    if p1 <= 1e-9 or p1 >= 2.0 - 1e-9:
        raise DegenerateParametrizationError(
            f"parametrization is degenerate at p1 = {p1}")
    s = 4.0 - p1 * p1
    xi = (2.0 * complex(p2) - p1 * p1) / s
    if abs(xi) >= 1.0 - xi_guard:
        raise DegenerateParametrizationError(
            f"|xi| = {abs(xi):.9f} is too close to 1 to solve for zeta")
    denom = 2.0 * s * (1.0 - abs(xi) ** 2)
    zeta = (4.0 * complex(p3) - p1 ** 3 - 2.0 * s * p1 * xi + p1 * s * xi * xi) / denom
    return xi, zeta


def mm_gap(p: TruncatedSeries, lam: float) -> float:
    """Slack in the sharp inequality |p2 - lam p1^2| <= 2 max{1, |2 lam - 1|}.

    Nonnegative (up to rounding) for every series generated by a probability
    measure and every real lam; zero exactly at the extremal configurations.
    """
    if p.order < 2:
        raise OrderTooSmallError("need coefficients p1 and p2")
    lam = float(lam)
    bound = 2.0 * max(1.0, abs(2.0 * lam - 1.0))
    value = abs(p.coeffs[2] - lam * p.coeffs[1] ** 2)
    return bound - value


def _fill_rows(seed: int, spawn_key: tuple, draws, lo: int, hi: int,
               ragged: bool = True):
    """Draw rows lo..hi-1 of a sample stream in place into ``draws``, of
    shape (rows, 2*k), and return their (weights, angles) views.

    The stream is the PCG64 of ``SeedSequence(seed, spawn_key=spawn_key)``,
    and row i takes its draws 2*k*i onwards, so any split of the rows fills
    them bitwise alike.  The first k draws of a row are the angles, 2 pi u;
    the last k are the weights, 0.05 + 0.95 u normalized, which keeps every
    weight bounded away from zero.  A ``ragged`` row i keeps
    ``(i % k) + 1`` atoms and zero weight in the slots past them; otherwise
    every row keeps all k.
    """
    k = draws.shape[1] // 2
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    bitgen = np.random.PCG64(ss)
    bitgen.advance(2 * k * lo)
    block = draws[lo:hi]
    np.random.Generator(bitgen).random(out=block)
    angles, weights = block[:, :k], block[:, k:]
    angles *= TWO_PI
    weights *= 0.95
    weights += 0.05
    for r in range(k - 1 if ragged else 0):  # rows i % k == r keep r + 1 atoms
        weights[(r - lo) % k::k, r + 1:] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    return weights, angles


def sample_measure(seed: int, k_atoms: int) -> AtomicMeasure:
    """Deterministic random measure with k_atoms atoms for a seed: row 0 of
    the sample stream of ``default_rng(seed)`` (see :func:`_fill_rows`).

    Angles are uniform on [0, 2 pi); weights are uniform on [0.05, 1],
    normalized."""
    if not 1 <= k_atoms <= MAX_ATOMS:
        raise RangeError(f"k_atoms must lie in [1, {MAX_ATOMS}]")
    weights, angles = _fill_rows(seed, (), np.empty((1, 2 * k_atoms)), 0, 1,
                                 ragged=False)
    return AtomicMeasure(weights[0], angles[0])


# -- measure (de)serialization ----------------------------------------------

def measure_from_dict(data: dict) -> AtomicMeasure:
    """Parse ``{"atoms": [{"weight": w, "angle": a}, ...]}`` (angles in radians).

    Rejects weight sums deviating from 1 by more than 1e-9, then renormalizes
    to machine precision.
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
    return AtomicMeasure(weights / total, angles)


def load_measure(path) -> AtomicMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_dict(json.load(fh))


def dump_measure(m: AtomicMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(m.to_dict(), fh, indent=2)
        fh.write("\n")
