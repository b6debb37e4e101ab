#!/usr/bin/env python3
# Build members of the q-starlike and q-convex classes from measure data and
# certify them on a disk grid.
import numpy as np

from qschlicht import power_series as ps
from qschlicht.caratheodory import AtomicMeasure, p_series, sample_measure
from qschlicht.extremal import f1_series
from qschlicht.q_calculus import ClassParams
from qschlicht.schlicht import (convex_from_h, convex_from_measure,
                                membership_convex, membership_starlike,
                                rho_map, starlike_from_p)

params = ClassParams(q=0.5, alpha=0.0, order=64)

# Any probability measure on the circle generates a positive-real-part series
# p, and p generates a starlike-type member through f(qz) = f(z) G(z).
m = sample_measure(seed=12345, k_atoms=3)
print("measure:", dict(weights=m.weights.round(4), angles=m.angles.round(4)))
p = p_series(m, params.order)
f = starlike_from_p(p, params)
print("f coefficients a2..a5:", np.round(f.coeffs[2:6], 6))

report = membership_starlike(f, params)
print("starlike certificate:", "pass" if report.passed else "FAIL",
      f"(worst margin {report.worst_margin:+.3e} at {report.worst_point:.3f})")

# A unit mass at angle 0 reproduces the closed-form one-atom generator.
unit = AtomicMeasure(np.array([1.0]), np.array([0.0]))
f_unit = starlike_from_p(p_series(unit, params.order), params)
print("unit mass = one-atom generator:",
      np.abs(f_unit.coeffs - f1_series(params).coeffs).max())

# Convex-type members are q-integrals of starlike-type members: f is convex
# exactly when z Dq f is starlike with the same G.  Integrate the p-route
# member of the same data, or the measure-exponent member.
params_c = ClassParams(q=0.5, alpha=0.3, order=64)
g_prod = convex_from_h(p_series(m, params_c.order), params_c)
g_meas = convex_from_measure(m, params_c)
print("convex certificates:",
      membership_convex(g_prod, params_c).passed,
      membership_convex(g_meas, params_c).passed)

# The bounded-map image of a p-route member recovers exp((ln q) p): the two
# sides of the bijection between members and bounded maps.
h = rho_map(g_prod, params_c)
print("rho(f)(0) = q:", h.coeffs[0].real)

# Certificates reject non-members: a2 = 5 exceeds every class bound at q=0.5.
bad = ps.from_coeffs([0, 1, 5] + [0] * 30)
rep = membership_starlike(bad, ClassParams(q=0.5, order=32))
print("z + 5z^2 certificate:", "pass" if rep.passed else "FAIL",
      f"(excess {rep.worst_margin:.2f})")
