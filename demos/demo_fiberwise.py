"""Fiberwise convexity of the Hill region over the position plane.

At equal masses the curvature numerator C of the zero-velocity curves
is strictly positive on every bounded component for all subcritical
energies, so the Hill lobes are convex fibers.  For unequal masses the
Earth lobe loses convexity at the critical energy: C turns negative on
the boundary just before the cone vertex at q1 = l.  The verdict reads
C over the Earth region and its closed-form rim, and reports the least
value as the witness.  For mu > 1/2 the heavier lobe is the Moon's: the
Earth lobe of the problem with the masses swapped, mirrored by
q1 -> 1 - q1, so mu = 0.7's Moon witness is mu = 0.3's Earth witness
mirrored.
"""

import numpy as np

from euler2c import (
    HillComponent,
    ProblemParams,
    curvature_numerator,
    fiberwise_verdict,
    hill_boundary,
)

p = ProblemParams(0.5)
print("equal masses: min C over the Earth-lobe boundary")
for e in (-2.1, -3.0, -6.0, -20.0):
    pts = hill_boundary(p, e, HillComponent.EARTH, n=2048)
    cv = curvature_numerator((pts[:, 0], pts[:, 1]), p)
    print(f"  e = {e:6.1f}:  min C = {np.min(cv):.6e}  "
          f"({pts.shape[0]} boundary samples)")

p3 = ProblemParams(0.3)
rep = fiberwise_verdict(p3, p3.c_jacobi)
print(f"\nmu = 0.3 at the critical energy: verdict = {rep.verdict}")
e, (q1, q2), cval = rep.witness
print(f"witness on the boundary of its own energy e = U(q) = {e:.12f} "
      f"<= c_J = {p3.c_jacobi:.12f}:")
print(f"  C({q1:.6f}, {q2:.6f}) = {cval:.6e}  ({rep.samples} positions "
      "read, the rim's included)")
print(f"vertex abscissa l = {p3.l:.6f} (the witness lies short of it)")

p7 = ProblemParams(0.7)
rep7 = fiberwise_verdict(p7.swapped(), p7.c_jacobi)
e7, (s1, s2), cval7 = rep7.witness
print(f"\nmu = 0.7, Moon lobe (the swapped problem's Earth lobe): verdict = "
      f"{rep7.verdict}")
print(f"  C({1.0 - s1:.6f}, {s2:.6f}) = {cval7:.6e}, beside mu = 0.3's "
      f"C({q1:.6f}, {q2:.6f}) = {cval:.6e}")
print(f"vertex abscissa l = {p7.l:.6f} (the Moon witness lies beyond it)")
