"""Small numerical helpers: panel quadrature, Hermite tables, slope fits."""

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError


@lru_cache(maxsize=8)
def _gl_rule(order):
    x, w = roots_legendre(order)
    return np.asarray(x), np.asarray(w)


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
