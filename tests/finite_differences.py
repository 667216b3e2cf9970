"""Finite-difference estimates of partial derivatives, for tests that
validate the package's closed-form derivative tables."""

_STENCILS = {
    1: ([(1, 0.5), (-1, -0.5)], 1),
    2: ([(1, 1.0), (0, -2.0), (-1, 1.0)], 2),
    3: ([(2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)], 3),
    4: ([(2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)], 4),
}


def fd_derivative(f, x, y, order_x, order_y, h):
    """Central finite-difference estimate of a mixed partial derivative
    of f(x, y), composing 1-D second-order stencils."""
    if order_x == 0 and order_y == 0:
        return f(x, y)
    if order_x > 0:
        offs, power = _STENCILS[order_x]
        return sum(w * fd_derivative(f, x + k * h, y, 0, order_y, h)
                   for k, w in offs) / h ** power
    offs, power = _STENCILS[order_y]
    return sum(w * f(x, y + k * h) for k, w in offs) / h ** power


def fd_check(f, derivs, points, h=1e-5, h4=1e-3, scale_floor=1e-8):
    """Compare claimed derivative evaluators against finite differences.

    Parameters
    ----------
    f : callable (x, y) -> value
    derivs : dict mapping (order_x, order_y) to a callable (x, y)
    points : iterable of (x, y) sample points interior to the domain
    h : step for orders 1-3; h4 : step for total order 4

    Returns a dict mapping each multi-index to its maximum scaled relative
    error over the sample points. The scale per point is |closed value|,
    floored by the largest closed value seen for that derivative (times
    scale_floor) so that incidental zeros of a derivative do not blow up
    the quotient.
    """
    points = list(points)
    table = {}
    for key, claimed in derivs.items():
        ox, oy = key
        step = h4 if ox + oy >= 4 else h
        exact = [claimed(x, y) for (x, y) in points]
        scale = max((abs(e) for e in exact), default=1.0)
        floor = max(scale * scale_floor, 1e-300)
        worst = 0.0
        for (x, y), e in zip(points, exact):
            approx = fd_derivative(f, x, y, ox, oy, step)
            worst = max(worst, abs(approx - e) / max(abs(e), floor))
        table[key] = worst
    return table
