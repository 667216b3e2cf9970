"""Threshold ladder for the two-fixed-centers convexity problem.

For a sweep of mass ratios mu, print the critical energies of the
heavier (Earth) and lighter (Moon) primaries, the second threshold
c_E'', the convexity threshold c0 (the root of the energy quartic), and
the Jacobi energy c_J of the saddle.  The bracket

    c_E'' < c0 < c_J

holds for every mu != 1/2; in binary64, c0 rounds to c_J within about
1.3e-4 of 1/2, so the gap c_J - c0 is reported on its own.  At equal
masses c_E and c_M meet at -4, while c_E'' and c0 meet c_J = -2.
"""

import numpy as np

from euler2c import ProblemParams, thresholds

header = f"{'mu':>6} {'c_E':>12} {'c_M':>12} {'c_E_pp':>12} " \
         f"{'c0':>12} {'c_J':>12}"
print(header)
print("-" * len(header))
for mu in np.arange(0.05, 0.51, 0.05):
    p = ProblemParams(float(mu))
    th = thresholds(p)
    print(f"{p.mu:6.2f} {th.c_E:12.6f} {th.c_M:12.6f} "
          f"{th.c_E_pp:12.6f} {th.c0:12.6f} {p.c_jacobi:12.6f}")

print()
print("gap c_J - c0 closes like (27/2048)(1-2mu)^4 near equal masses;")
print("once the gap is below half an ulp of c_J, c0 rounds to c_J:")
for mu in (0.4, 0.45, 0.49, 0.4999, 0.4999999):
    p = ProblemParams(mu)
    th = thresholds(p)
    m4 = (1 - 2 * mu) ** 4
    print(f"  mu={mu:<9}  c_J-c0={th.cJ_minus_c0:.3e}  "
          f"(27/2048)(1-2mu)^4={27 / 2048 * m4:.3e}  "
          f"c0==c_J: {th.c0 == p.c_jacobi}")
