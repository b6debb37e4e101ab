"""Truncated complex power-series arithmetic.

A series is stored by its first ``order + 1`` coefficients ``c0..cN`` and
every operation is exact modulo ``z**(N+1)``.  Binary operations truncate to
the shorter operand; nothing is padded silently.  The exponential and
logarithm are formal (coefficientwise) and therefore need ``c0 = 0`` and
``c0 = 1`` respectively, which is all the constructions here require.

Coefficients are binary64 complex.  Orders up to 256 are supported; the
coefficients of the extremal-type functions stay representable in that range
for q >= 0.1.

Axis-0 contract: ``exp``, ``log`` and ``recip`` wrap array cores
(``_exp_core``, ``_log_core``, ``_recip_core``) that take coefficients on
axis 0 and broadcast over any trailing sample axes.  Each degree is one
two-operand ``einsum`` summed in index order, then one real scale
(:func:`_contract`), so a batch column equals the 1-d result bitwise,
whatever else shares the batch.  Work arrays keep the longer of the degree
and column axes contiguous (:func:`_order`), so that einsum's inner loops
run long; einsum adds the same terms in the same order in either memory
order, so the order changes no bit.  The public functions take one
``TruncatedSeries`` and keep the constant-term checks; the cores check
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError

MAX_ORDER = 256

try:  # what np.einsum forwards to when optimize is off, minus ~1 us per call
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


def _as_coeffs(values) -> np.ndarray:
    c = np.ascontiguousarray(values, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a non-empty 1-d sequence")
    if c.size - 1 > MAX_ORDER:
        raise ValueError(f"order {c.size - 1} exceeds the supported maximum {MAX_ORDER}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must all be finite")
    return c


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """A power series modulo z^(order+1); ``coeffs[n]`` multiplies ``z**n``."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_coeffs(self.coeffs)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def from_coeffs(values) -> TruncatedSeries:
    return TruncatedSeries(np.asarray(values, dtype=np.complex128))


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(np.zeros(order + 1, dtype=np.complex128))


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the shorter operand."""
    n = min(a.order, b.order)
    full = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])
    return TruncatedSeries(full[: n + 1])


def _contract(x: np.ndarray, y: np.ndarray, scale, out: np.ndarray) -> None:
    """out = sum_k x[k] y[k] over axis 0, added in order of k, then scaled
    in place by the real ``scale`` unless it is 1.  In place, numpy's FMA and
    plain kernels round a complex product by array position, but a real
    factor (imaginary part 0) rounds alike in both: every column scales alike."""
    _einsum("k...,k...->...", x, y, out=out)
    if scale != 1.0:
        np.multiply(out, scale, out=out)


def _columns(c: np.ndarray) -> np.ndarray:
    """(degree, column) view: a 1-d series runs as one batch column, not
    through numpy's scalar arithmetic, which rounds differently."""
    return c.reshape(c.shape[0], -1)


def _order(c: np.ndarray) -> str:
    """Memory order of a recursion's work arrays for the (degree, column)
    view c: the longer axis contiguous, so that einsum's inner loops are long."""
    return "F" if c.shape[0] > c.shape[1] else "C"


def _recip_core(c: np.ndarray) -> np.ndarray:
    """Reciprocal along axis 0; c[0] must be nonzero.

    c0 r[m] + sum_{k=1..m} c[k] r[m-k] = 0.
    """
    cc = _columns(c)
    r = np.empty_like(cc, dtype=np.complex128, order=_order(cc))
    r[0] = 1.0 / cc[0]
    x = np.multiply(cc[1:], -r[0], order=_order(cc))  # allocating: see _contract
    for m in range(1, c.shape[0]):
        _contract(x[:m], r[m - 1::-1], 1.0, r[m])
    return r.reshape(c.shape)


def _exp_into(c: np.ndarray, w, b: np.ndarray) -> None:
    """b = exp(u) on (degree, column) arrays, u[k] = w_k c[k] for a real w,
    one per degree or one for all (c[0] is not read): b' = u' b, so
    m b[m] = sum_{k=1..m} k u[k] b[m-k], with k u[k] = c[k] (k w_k)."""
    ku = np.multiply(c, (np.arange(c.shape[0]) * w)[:, None], order=_order(c))
    b[0] = 1.0
    for m in range(1, b.shape[0]):
        _contract(ku[1:m + 1], b[m - 1::-1], 1.0 / m, b[m])


def _exp_core(u: np.ndarray) -> np.ndarray:
    """Formal exp along axis 0; u[0] must be zero."""
    cu = _columns(u)
    b = np.empty_like(cu, dtype=np.complex128, order=_order(cu))
    _exp_into(cu, 1, b)
    return b.reshape(u.shape)


def _log_core(c: np.ndarray) -> np.ndarray:
    """Formal log along axis 0; c[0] must be one.

    With d[k] = k l[k] (the coefficients of z l'), c' = l' c gives
    d[m] = m c[m] - sum_{k=1..m-1} d[k] c[m-k].
    """
    cc = _columns(c)
    mc = np.multiply(cc, np.arange(c.shape[0])[:, None], order=_order(cc))
    d = np.zeros_like(mc)
    for m in range(1, c.shape[0]):
        _contract(d[1:m], cc[m - 1:0:-1], -1.0, d[m])
        d[m] += mc[m]
    d[1:] /= np.arange(1, c.shape[0])[:, None]
    return d.reshape(c.shape)


def recip(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires a nonzero constant term."""
    if a.coeffs[0] == 0:
        raise RangeError("cannot invert a series with c0 = 0")
    return TruncatedSeries(_recip_core(a.coeffs))


def exp(a: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential; requires c0 = 0 so no scalar exp is involved."""
    if a.coeffs[0] != 0:
        raise RangeError("formal exp requires c0 = 0")
    return TruncatedSeries(_exp_core(a.coeffs))


def log(a: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm; requires c0 = 1 (no branch choice is involved)."""
    if a.coeffs[0] != 1:
        raise RangeError("formal log requires c0 = 1")
    return TruncatedSeries(_log_core(a.coeffs))


def dilate(a: TruncatedSeries, w: complex) -> TruncatedSeries:
    """a(w*z): multiplies c_n by w**n."""
    powers = np.power(complex(w), np.arange(a.order + 1))
    return TruncatedSeries(a.coeffs * powers)


def derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Classical derivative d/dz; order drops by one."""
    if a.order == 0:
        return zero(0)
    n = np.arange(1, a.order + 1)
    return TruncatedSeries(a.coeffs[1:] * n)


def eval_at(a: TruncatedSeries, z0: complex) -> complex:
    """Horner evaluation of the truncated polynomial.

    Meaningful for |z0| < 1 modulo the truncation tail; see
    :func:`tail_estimate` for the error heuristic used by certificates.
    """
    acc = 0.0 + 0.0j
    for c in a.coeffs[::-1]:
        acc = acc * z0 + c
    return acc


def eval_grid(a: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized Horner evaluation on an array of points."""
    acc = np.zeros(z.shape, dtype=np.complex128)
    for c in a.coeffs[::-1]:
        acc = acc * z + c
    return acc


def times_z(a: TruncatedSeries) -> TruncatedSeries:
    """z * a(z); order grows by one."""
    c = np.empty(a.order + 2, dtype=np.complex128)
    c[0] = 0.0
    c[1:] = a.coeffs
    return TruncatedSeries(c)


def div_z(a: TruncatedSeries) -> TruncatedSeries:
    """a(z)/z for series with c0 = 0; order drops by one."""
    if a.coeffs[0] != 0:
        raise RangeError("cannot divide by z: constant term is nonzero")
    if a.order == 0:
        return zero(0)
    return TruncatedSeries(a.coeffs[1:].copy())


def tail_estimate(a: TruncatedSeries, r: np.ndarray) -> np.ndarray:
    """Heuristic bounds on |sum_{n>N} c_n z^n| at |z| = r, one per radius.

    Ten times the largest of the last four terms |c_n| r^n.  For functions
    analytic on the unit disk the terms decay geometrically once converged,
    so this is reliable exactly where the polynomial evaluation is usable;
    where it is large the evaluation must not be trusted.
    """
    n0 = max(0, a.order - 3)
    ns = np.arange(n0, a.order + 1)
    return 10.0 * (np.abs(a.coeffs[n0:]) * np.power(r[..., None], ns)).max(axis=-1)
