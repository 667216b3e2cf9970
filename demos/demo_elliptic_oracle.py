"""Theory verdicts versus the brute-force Hessian oracle.

For mu = 0.3 the Earth component of the regularized energy hypersurface
is fiberwise convex exactly for c < c0(mu); the Moon component is convex
for all subcritical energies.  The oracle scans the zero set of the
regularized Hamiltonian in elliptic coordinates and classifies the
projected Hessian; here we confirm it agrees with the closed-form
verdict on both sides of the threshold.
"""

from euler2c import (
    HillComponent,
    ProblemParams,
    convexity_verdict,
    oracle_convexity,
    thresholds,
)

p = ProblemParams(0.3)
th = thresholds(p)
print(f"mu = {p.mu},  c0 = {th.c0:.12f},  c_J = {p.c_jacobi:.12f}")

for label, c in (("below c0", th.c0 - 0.1),
                 ("between c0 and c_J", 0.5 * (th.c0 + p.c_jacobi))):
    print(f"\nenergy {label}: c = {c:.12f}")
    for comp in HillComponent:
        theory = convexity_verdict(p, c, comp).value
        rep = oracle_convexity(p, c, comp, grid=(60, 60, 8))
        print(f"  {comp.value:5s}: theory={theory:9s} "
              f"oracle={rep.verdict:10s} min_eig={rep.min_value:.3e} "
              f"({rep.samples} positions)")
        if rep.witnesses:
            lam, nu, pl, pn = rep.witnesses[0]
            print(f"         witness at lam={lam:.4f} nu={nu:.4f} "
                  f"p_lam={pl:.4f} p_nu={pn:.4f}")
