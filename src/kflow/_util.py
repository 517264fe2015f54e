"""Small numerical helpers: panel quadrature, Hermite tables, slope fits.

The Gauss-Legendre rules are tabulated for the two orders the package uses:
10 points per warp-table panel and 12 per bulk-energy panel.  Each node and
weight is written as the round-tripping ``repr`` of the float64 that
``scipy.special.roots_legendre`` returns (scipy 1.17), so every integral
keeps those bits without loading ``scipy.special``; numpy's ``leggauss``
differs from them by up to 3.8e-14 relative in the weights.
"""

import numpy as np

from .errors import DomainError


def _read_only(values):
    a = np.array(values)
    a.flags.writeable = False
    return a


# order -> (nodes, weights), both read-only: every caller shares them.
_GL_RULES = {
    10: (
        _read_only([
            -0.9739065285171717, -0.8650633666889844, -0.6794095682990244,
            -0.4333953941292472, -0.14887433898163116, 0.14887433898163116,
            0.4333953941292472, 0.6794095682990244, 0.8650633666889844,
            0.9739065285171717,
        ]),
        _read_only([
            0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
            0.26926671930999674, 0.2955242247147533, 0.2955242247147533,
            0.26926671930999674, 0.21908636251598224, 0.14945134915058053,
            0.06667134430868714,
        ]),
    ),
    12: (
        _read_only([
            -0.9815606342467192, -0.9041172563704749, -0.7699026741943047,
            -0.5873179542866175, -0.36783149899818013, -0.12523340851146897,
            0.12523340851146897, 0.36783149899818013, 0.5873179542866175,
            0.7699026741943047, 0.9041172563704749, 0.9815606342467192,
        ]),
        _read_only([
            0.04717533638651319, 0.10693932599531782, 0.16007832854334608,
            0.20316742672306573, 0.2334925365383547, 0.2491470458134026,
            0.2491470458134026, 0.2334925365383547, 0.20316742672306573,
            0.16007832854334608, 0.10693932599531782, 0.04717533638651319,
        ]),
    ),
}


def _gl_rule(order):
    """The tabulated ``order``-point Gauss-Legendre nodes and weights on [-1, 1]."""
    try:
        return _GL_RULES[order]
    except KeyError:
        raise ValueError(
            f"no {order}-point Gauss-Legendre rule; tabulated orders: {sorted(_GL_RULES)}"
        ) from None


def panel_integrals(fun, edges, order=10):
    """Per-interval Gauss-Legendre integrals of ``fun`` between consecutive edges.

    ``edges`` is a strictly increasing 1-D array; returns an array of length
    ``len(edges) - 1``.  ``fun`` must accept a 2-D array of evaluation points.
    Nodes are interior, so integrable endpoint singularities removed by a
    prior substitution are never sampled at the endpoint itself.
    """
    x, w = _gl_rule(order)
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * x[None, :]
    return half * (fun(pts) @ w)


def integrate_panels(fun, a, b, n_panels=16, order=12):
    """Integrate ``fun`` over [a, b] with composite Gauss-Legendre panels."""
    edges = np.linspace(a, b, n_panels + 1)
    return float(np.sum(panel_integrals(fun, edges, order=order)))


def hermite_eval(x, xs, ys, ds, what="table"):
    """Cubic Hermite interpolation with exact nodal slopes.

    ``xs`` strictly increasing nodes, ``ys`` values, ``ds`` derivatives.
    Vectorized in ``x``; raises DomainError outside the tabulated range or
    on a NaN.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = xs[0], xs[-1]
    pad = 1e-12 * max(1.0, abs(hi))
    # NaN fails both comparisons, so it is rejected with the out-of-range values.
    if not ((x >= lo - pad) & (x <= hi + pad)).all():
        raise DomainError(
            f"{what}: evaluation at {float(np.min(x)):.6g}..{float(np.max(x)):.6g} "
            f"outside tabulated range [{lo:.6g}, {hi:.6g}]"
        )
    # Searching the interior nodes yields the interval index already clipped
    # to [0, len(xs) - 2]: points below xs[1] land in interval 0, points at or
    # above xs[-2] in the last one.
    idx = xs[1:-1].searchsorted(x, side="right")
    nxt = idx + 1
    x0 = xs[idx]
    h = xs[nxt] - x0
    t = np.minimum(np.maximum((x - x0) / h, 0.0), 1.0)
    omt = 1.0 - t
    h00 = (1.0 + 2.0 * t) * omt * omt
    h10 = t * omt * omt
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    return h00 * ys[idx] + h * h10 * ds[idx] + h01 * ys[nxt] + h * h11 * ds[nxt]


def fit_log_slope(x, y):
    """Least-squares slope of log(y) against x over the points where y > 0.

    Returns None when fewer than three such points remain.  A decay exponent
    is the slope against log(rho), an exponential rate the slope against t.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = y > 0.0
    if np.count_nonzero(mask) < 3:
        return None
    lx = x[mask]
    ly = np.log(y[mask])
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
