"""Non-convexity at the critical energy in Levi-Civita coordinates.

At c = c_J the Hill boundary passes through the critical point (x0, 0)
of the regularized potential V, where the zero set degenerates to a
cone of slope +-sqrt(2).  The boundary convexity function

    F = V_xx V_y^2 + V_yy V_x^2 - 2 V_xy V_x V_y

stays nonnegative on the axis but dips negative just inside x0 for
moderate mass ratios, so the boundary is non-convex there.  The witness
search reads F on the Earth loop of V = 0, the preimage v = sqrt(q/2)
of the closed-form Hill rim, and reports its least value.  The sign of
the cubic term along the cone flips at mu = 16/17: beyond it the
witness disappears.
"""

from euler2c import (
    ProblemParams,
    nonconvex_witness_levi,
    tangency_check,
    tilde_derivatives,
    x0_of,
)

p = ProblemParams(0.3)
t = tangency_check(p)
print(f"mu = {p.mu}:  x0 = {t['x0']:.15f}")
print(f"tangent cone slope^2 = {t['slope_sq']:.15f}  (exactly 2)")
print(f"V_xx(x0,0) = {t['V_xx']:.6f} < 0 < V_yy(x0,0) = {t['V_yy']:.6f}")

(x, y, f), read, _ = nonconvex_witness_levi(p)
print(f"\nwitness, the least F on the loop: F({x:.15f}, {y:.6e}) = "
      f"{f:.6e} < 0 (boundary points read: {read})")
print(f"distance inside x0: {x0_of(p, p.c_jacobi) - x:.3e}")

print("\ncubic coefficient along the cone (sign flips at mu = 16/17):")
for mu in (0.3, 0.9, 0.93, 16 / 17, 0.95):
    v3 = tilde_derivatives(ProblemParams(mu))["V3_closed"]
    print(f"  mu = {mu:.6f}:  V3 = {v3:+.6f}")
