#!/usr/bin/env python3
# Coefficient functionals against their stated bounds, including the
# documented tension around the second Hankel determinant.
from qschlicht.extremal import eq_series, f1_series, f2_series
from qschlicht.functionals import (bieberbach_bound_convex, fekete_szego_value,
                                   fs_bound, hankel_bound, hankel_value,
                                   t4_scalars)
from qschlicht.q_calculus import ClassParams

params = ClassParams(q=0.5, alpha=0.0, order=8)
f1 = f1_series(params)
f2 = f2_series(params)

# Fekete-Szego: the one-atom generator attains the first branch of the
# stated maximum, the two-atom generator the second.
for mu in (0.0, 0.5, 1.0):
    print(f"mu={mu}: |a3 - mu a2^2|(F1) = {fekete_szego_value(f1, mu):.7f}, "
          f"(F2) = {fekete_szego_value(f2, mu):.7f}, "
          f"bound = {fs_bound(params, mu).value:.7f}")

# Second Hankel determinant: the two-atom generator attains the stated bound
# 4 (ln q / (q^2-1))^2 ...
b = hankel_bound(params)
print(f"\n|a2 a4 - a3^2|(F2) = {hankel_value(f2):.7f} vs bound {b.value:.7f}")

# ... but the one-atom generator, a member of the same class, exceeds it.
v1 = hankel_value(f1)
print(f"|a2 a4 - a3^2|(F1) = {v1:.7f}  <-- exceeds the stated bound")

# The scalar majorants show where the tension lives: the chain bounds the
# determinant by G(c) with c the first coefficient of the generating series,
# and G(2) = (4/3) A > G(0) = 4 L2^2, yet the stated bound equals G(0).
f_val, g0, a_val = t4_scalars(0.0, 1.0, 0.5)
_, g2, _ = t4_scalars(2.0, 1.0, 0.5)
print(f"G(0) = {g0:.7f}, G(2) = {g2:.7f} = (4/3) A with A = {a_val:.7f}")
print(f"F1 value equals G(2): {abs(v1 - g2):.2e}")

# Coefficient bounds for the convex-type class, attained by the q-integral
# extremal.
params_c = ClassParams(q=0.5, alpha=0.3, order=12)
e_q = eq_series(params_c)
print("\nconvex coefficient bounds (q=0.5, alpha=0.3):")
for n in range(2, 7):
    print(f"  n={n}: bound {bieberbach_bound_convex(params_c, n):.7f}, "
          f"extremal |a_n| {abs(e_q.coeffs[n]):.7f}")
