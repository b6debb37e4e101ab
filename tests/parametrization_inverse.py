"""What the parametrization tests use: the inverse of
:func:`qschlicht.caratheodory.extend_p23`, to read (xi, zeta) back from
(p1, p2, p3), and the rotation that makes p1 real and nonnegative."""

import numpy as np

from qschlicht.caratheodory import AtomicMeasure, _moments


class DegenerateParametrizationError(ValueError):
    """Coefficient parametrization is not invertible at this point."""


def recover_xi_zeta(p1: float, p2: complex, p3: complex) -> tuple[complex, complex]:
    """Invert ``extend_p23`` for interior p1 and well-conditioned xi.

    Raises DegenerateParametrizationError on the p1 boundary (the map
    collapses there) and when |xi| >= 1 - 1e-6 (the zeta coefficient
    vanishes at |xi| = 1).
    """
    p1 = float(p1)
    if p1 <= 1e-9 or p1 >= 2.0 - 1e-9:
        raise DegenerateParametrizationError(
            f"parametrization is degenerate at p1 = {p1}")
    s = 4.0 - p1 * p1
    xi = (2.0 * complex(p2) - p1 * p1) / s
    if abs(xi) >= 1.0 - 1e-6:
        raise DegenerateParametrizationError(
            f"|xi| = {abs(xi):.9f} is too close to 1 to solve for zeta")
    denom = 2.0 * s * (1.0 - abs(xi) ** 2)
    zeta = (4.0 * complex(p3) - p1 ** 3 - 2.0 * s * p1 * xi + p1 * s * xi * xi) / denom
    return xi, zeta


def rotation_normalized(m: AtomicMeasure) -> AtomicMeasure:
    """Rotate so the first moment (hence p1) is real and nonnegative; the
    functionals of interest are rotation invariant."""
    m1 = complex(_moments(m.weights, m.angles, 1)[1])
    if abs(m1) == 0.0:
        return m
    return m.rotated(-np.angle(m1))
