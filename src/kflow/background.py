"""Kottler-Schwarzschild background geometry.

The background is the warped product P = [rho0, oo) x N with metric

    g = d rho^2 / V(rho)^2 + rho^2 ghat,
    V(rho) = sqrt(rho^2 + kappa - 2 m rho^(2-n)),

where (N, ghat) is a closed space form of curvature kappa in {-1, 0, +1}
with area theta, and rho0 is the largest positive root of V^2 (the horizon
radius).  Admissible masses: m > 0 for kappa >= 0, and m >= m_c(n) =
-(n-2)^((n-2)/2) / n^(n/2) for kappa = -1.  The horizon radius satisfies
2m = rho0^n + kappa rho0^(n-2).

In geodesic-radial coordinates r with dr = d rho / V and r(rho0) = 0 the
metric reads dr^2 + lambda(r)^2 ghat, where lambda inverts r(rho) and

    lambda'(r)  = V(lambda(r)),
    lambda''(r) = lambda + (n-2) m lambda^(1-n)  >= 0,
    lambda(r)   ~ const * e^r   as r -> oo.

The first-order relation lambda'^2 = kappa + lambda^2 - 2 m lambda^(2-n) is
the energy integral of the second-order one; the tabulation below keeps it
satisfied to ~1e-13 relative by storing closed-form derivatives at every
node and interpolating with exact-slope cubic Hermite pieces.

This module is the one place that writes the closed forms of the potential,
each in one function: 2q = 2 m rho^(2-n) and V^2 = rho^2 + kappa - 2q
(``_v_squared_at``, and ``v_squared``), lambda'' (``_ddlam_at``, and
(V^2)' = 2 lambda'' in ``_v_squared_prime``), lambda lambda'' = lambda^2 +
(n-2) q (``_lam_ddlam``, from a lambda^2 that ``_v_squared_at`` reads
too) and V = sqrt(max(V^2, 0)) (``_v``).
``_v_squared_at`` forms V^2 at several masses and 2q at further masses from
one rho^2 and one rho^(2-n), and ``_ddlam_at`` forms lambda'' at
several masses from one rho^(1-n), so a radial graph's base space and the
graph share each power; a mass may be an array.  A lone zero mass, the
massless kappa = -1 space, needs no power (``_massless``).  The horizon
root, the warp table, the geometry kernel and the mass layer all read them
(docs/derivations.md, "Closed forms of the Kottler potential").

Radial graphs over this background are built in ``kflow.mass``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import hermite_eval, panel_integrals
from .errors import (
    DomainError,
    InvalidDimensionError,
    NoHorizonError,
    NumericsError,
    ResolutionError,
)

__all__ = [
    "SpaceParams",
    "WarpTable",
    "critical_mass",
    "find_horizon",
    "potential",
    "v_squared",
    "build_warp_table",
    "mass_from_horizon_area",
]


def critical_mass(n):
    """Lower end of the admissible mass interval for kappa = -1."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise InvalidDimensionError(f"dimension must be an integer >= 3, got {n!r}")
    return -((n - 2.0) ** ((n - 2.0) / 2.0)) / n ** (n / 2.0)


@dataclass(frozen=True)
class SpaceParams:
    """Parameters of a Kottler background: dimension, fiber curvature, mass, fiber area."""

    n: int
    kappa: int
    m: float
    theta: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise InvalidDimensionError(f"n must be an integer >= 3, got {self.n!r}")
        if self.kappa not in (-1, 0, 1):
            raise DomainError(f"kappa must be -1, 0 or +1, got {self.kappa!r}")
        if not math.isfinite(self.theta) or self.theta <= 0.0:
            raise DomainError(f"theta must be positive and finite, got {self.theta!r}")
        if not math.isfinite(self.m):
            raise DomainError(f"mass must be finite, got {self.m!r}")
        if self.kappa >= 0:
            if self.m <= 0.0:
                raise NoHorizonError(
                    f"kappa={self.kappa} requires m > 0 (horizon exists), got m={self.m}"
                )
        else:
            mc = critical_mass(self.n)
            if self.m < mc:
                raise NoHorizonError(f"m={self.m} below the critical mass {mc:.12g}")

    @property
    def mass_constant(self):
        """Normalization 1 / (2 (n-1) theta) of the mass boundary integral."""
        return 1.0 / (2.0 * (self.n - 1) * self.theta)


# The closed forms of the Kottler potential, each written once.  The private
# forms take a numpy value, an array or a 0-d array for one radius: a float's
# power would round differently.  A mass may be an array shaped like rho.


def _massless(masses):
    """True for a lone mass that is a number equal to 0, the massless kappa =
    -1 space: its mass terms are exact zeros and need no power of rho."""
    return len(masses) == 1 and not isinstance(masses[0], np.ndarray) and masses[0] == 0.0


def _v_squared_at(n, kappa, rho, masses, more=(), rho_sq=None):
    """V^2 = rho^2 + kappa - 2q at each mass of ``masses``, then 2q = 2 m
    rho^(2-n) at each mass of ``masses`` and of ``more``: new values from one
    rho^2 and one rho^(2-n), each 2q the product ``rho^(2-n) * (2 m)`` and
    each V^2 ``(rho^2 + kappa) - 2q``.  ``rho_sq`` is rho^2 when the caller
    holds it for another closed form (``_lam_ddlam``); it is read, not
    changed.  At kappa = 0 the sum is rho^2 itself, whose bits adding 0 would
    not change (rho^2 is never -0).  Among several masses a zero mass gives
    rho^(2-n) * 0 = 0, the bits of the massless form, at every rho > 0.

    The first V^2 is formed in the array of rho^2 + kappa unless that is the
    caller's rho^2, so one mass makes no more arrays than V^2 written out.
    The loops append rather than build comprehensions: on one radius a
    comprehension's own frame costs as much as the mass terms it forms."""
    masses_all = masses + more
    if _massless(masses_all):
        two_qs = [np.zeros_like(rho) if rho.ndim else 0.0]
    else:
        power = rho ** (2 - n)
        two_qs = []
        for m in masses_all:
            two_qs.append(power * (2.0 * m))
        del power  # so one mass holds two arrays at a time, as V^2 written out does
    if rho_sq is None:
        v2 = rho**2
        if kappa:
            v2 += kappa
    else:
        v2 = rho_sq + kappa if kappa else rho_sq
    others = []
    for two_q in two_qs[1:len(masses)]:
        others.append(v2 - two_q)
    if v2 is rho_sq:
        v2 = rho_sq - two_qs[0]  # the caller's rho^2 is read, not changed
    else:
        v2 -= two_qs[0]  # in place, after the other masses have read rho^2 + kappa
    return [v2, *others, *two_qs]


def _lam_ddlam(n, lam_sq, two_q):
    """lambda lambda'' = lambda^2 + (n-2) q from lambda^2 and the 2q of
    ``_v_squared_at``, formed in place in ``two_q``."""
    two_q *= 0.5 * (n - 2)  # doubling is exact, so this is (n-2) q to the bit
    two_q += lam_sq
    return two_q


def _ddlam_at(n, rho, masses):
    """lambda'' = rho + (n-2) m rho^(1-n) at lambda = rho for each mass of
    ``masses``: new values from one rho^(1-n), each ``rho^(1-n) * ((n-2) m) +
    rho``; (V^2)' = 2 lambda''.  A massless lone mass gives lambda'' = rho."""
    if _massless(masses):
        return [0.0 + rho]
    power = rho ** (1 - n)
    values = []
    for m in masses:  # a loop, as in ``_v_squared_at``
        values.append(power * ((n - 2) * m) + rho)
    return values


def _v(params, rho):
    """V = sqrt(max(V^2, 0)) at rho, with no domain check (``potential`` makes it)."""
    return np.sqrt(np.maximum(v_squared(params, rho), 0.0))


def v_squared(params, rho):
    """V^2(rho) = rho^2 + kappa - 2 m rho^(2-n); no domain restriction."""
    rho = np.asarray(rho, dtype=float)
    return _v_squared_at(params.n, params.kappa, rho, (params.m,))[0]


def _v_squared_prime(params, rho):
    """(V^2)'(rho) = 2 lambda''(rho)."""
    return 2.0 * _ddlam_at(params.n, np.asarray(rho, dtype=float), (params.m,))[0]


@lru_cache(maxsize=None)
def _horizon_radius(n, kappa, m):
    """Largest positive root of V^2 = rho^2 + kappa - 2 m rho^(2-n).

    V^2 and its slope are the closed forms above, on one radius at a time;
    the cache makes each space pay for them once."""

    def phi(r):
        return float(_v_squared_at(n, kappa, np.asarray(r), (m,))[0])

    if m < 0.0:
        # phi has an interior minimum at rho_h; the outer root lies above it.
        rho_h = ((n - 2) * abs(m)) ** (1.0 / n)
        phi_min = phi(rho_h)
        if phi_min > 1e-13 * max(1.0, rho_h**2):
            raise NoHorizonError(f"no positive root: m={m} below critical mass")
        if phi_min > -1e-13 * max(1.0, rho_h**2):
            return rho_h  # degenerate double root at the critical mass
        lo = rho_h
    else:
        lo = min((2.0 * max(m, 1e-300)) ** (1.0 / n), 1.0)
        guard = 0
        while phi(lo) >= 0.0:
            lo *= 0.5
            guard += 1
            if guard > 400:
                raise NumericsError(f"could not bracket horizon from below (m={m})")
    hi = (2.0 * abs(m) + abs(kappa) + 1.0) ** (1.0 / (n - 2)) + 1.0
    guard = 0
    while phi(hi) <= 0.0:
        hi *= 2.0
        guard += 1
        if guard > 200:
            raise NumericsError(f"could not bracket horizon from above (m={m})")

    a, b = lo, hi
    while b - a > 1e-6 * max(1.0, b):
        mid = 0.5 * (a + b)
        if phi(mid) < 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    tol = 1e-14 * max(1.0, root**2)
    for _ in range(60):
        f = phi(root)
        if abs(f) <= tol:
            break
        step = f / (2.0 * float(_ddlam_at(n, np.asarray(root), (m,))[0]))
        root -= step
        root = min(max(root, a), b)
    else:
        raise NumericsError(
            f"horizon polish did not converge: bracket [{a:.17g}, {b:.17g}], residual {phi(root):.3g}"
        )
    return root


def find_horizon(params):
    """Horizon radius rho0, a float: bracketed bisection plus a Newton polish."""
    return _horizon_radius(params.n, params.kappa, float(params.m))


def potential(params, rho):
    """Static potential V(rho) for rho >= rho0 (zero exactly at the horizon)."""
    rho0 = find_horizon(params)
    rho_arr = np.asarray(rho, dtype=float)
    if not ((rho_arr >= rho0 * (1.0 - 1e-12)) & (rho_arr < math.inf)).all():
        raise DomainError(f"rho={rho!r} below the horizon radius {rho0:.12g} or not finite")
    val = _v(params, rho_arr)
    return float(val) if np.isscalar(rho) else val


def mass_from_horizon_area(area, *, n, kappa, theta):
    """Mass (x^n + kappa x^(n-2)) / 2 of the Kottler space whose horizon has area theta x^(n-1)."""
    if not 0.0 < area < math.inf:
        raise DomainError(f"horizon area must be positive and finite, got {area!r}")
    x = (area / theta) ** (1.0 / (n - 1))
    return 0.5 * (x**n + kappa * x ** (n - 2))


# ---------------------------------------------------------------------------
# Warp-factor table
# ---------------------------------------------------------------------------


class WarpTable:
    """Tabulated warp factor lambda(r) with closed-form derivatives.

    Nodes are generated by integrating dr = d rho / V from the horizon.  The
    square-root singularity of 1/V at rho0 is removed by the substitution
    rho = rho0 + xi^2, integrated on composite Gauss-Legendre panels; the far
    field uses log-radius panels.  Node values of lambda' and lambda'' come
    from closed forms, never from divided differences, and evaluation
    between nodes is exact-slope cubic Hermite, so the first-order
    identity lambda'^2 = kappa + lambda^2 - 2 m lambda^(2-n) holds pointwise
    at interpolation accuracy (~1e-13 relative).

    Only lambda itself is looked up; lambda' and lambda'' are the closed
    forms of that lambda (``derivatives_at``), so one table search yields
    all three.
    """

    def __init__(self, params, r_grid, lam_nodes):
        self.params = params
        self.r_grid = np.asarray(r_grid, dtype=float)
        self.lam_nodes = np.asarray(lam_nodes, dtype=float)
        if self.r_grid[0] != 0.0:
            raise DomainError("warp table must start at r = 0")
        if np.any(np.diff(self.r_grid) <= 0.0) or np.any(np.diff(self.lam_nodes) <= 0.0):
            raise NumericsError("warp table nodes must be strictly increasing")
        self.d_lam_nodes = _v(params, self.lam_nodes)
        # The table starts at the horizon, a root of V^2, so lambda'(0) = 0.
        # The polished root leaves |V^2| up to ~1e-14 rho0^2 there, which the
        # square root would turn into a spurious slope of up to ~1e-7.
        self.d_lam_nodes[0] = 0.0
        self.dd_lam_nodes = _ddlam_at(params.n, self.lam_nodes, (params.m,))[0]
        self.rho0 = float(self.lam_nodes[0])
        self.r_max = float(self.r_grid[-1])
        # s = log lambda above this lies beyond the table, and e^s is finite below it.
        self.log_lam_cap = math.log(self.lam_nodes[-1]) + 1.0

    def lam(self, r):
        return hermite_eval(r, self.r_grid, self.lam_nodes, self.d_lam_nodes, "lambda")

    def derivatives_at(self, lam):
        """(lambda', lambda'') at warp values ``lam`` from the closed forms
        V(lambda) and lambda + (n-2) m lambda^(1-n); no table search."""
        lam = np.asarray(lam, dtype=float)
        return _v(self.params, lam), _ddlam_at(self.params.n, lam, (self.params.m,))[0]

    def dlam_interp(self, r):
        """lambda'(r) by Hermite interpolation of the nodal values (probe path)."""
        return hermite_eval(r, self.r_grid, self.d_lam_nodes, self.dd_lam_nodes, "lambda'")

    def r_from_rho(self, rho):
        """Invert lambda: the r with lambda(r) = rho, for a scalar or an array.

        One interval search brackets each rho; Newton then solves on that
        cubic Hermite piece with its own slope (V(lambda) at the nodes),
        started from the upper node.  lambda is convex (lambda'' >= 0), so
        the iterates fall monotonically onto the root, in a few iterations
        away from the horizon.  A scalar input returns a float.
        """
        rho_arr = np.asarray(rho, dtype=float)
        lo, hi = self.lam_nodes[0], self.lam_nodes[-1]
        # NaN fails both comparisons, so it is rejected with the out-of-range values.
        inside = (rho_arr >= self.rho0 * (1.0 - 1e-12)) & (rho_arr <= hi)
        if not inside.all():
            bad = rho_arr[~inside]
            low, high = float(np.min(bad)), float(np.max(bad))
            where = f"{low:.12g}" if low == high else f"{low:.12g}..{high:.12g}"
            raise DomainError(
                f"rho={where} outside tabulated range [{self.rho0:.12g}, {hi:.12g}]"
            )
        target = np.maximum(rho_arr, lo)
        k = np.clip(self.lam_nodes.searchsorted(target) - 1, 0, len(self.lam_nodes) - 2)
        r0, y0, d0 = self.r_grid[k], self.lam_nodes[k], self.d_lam_nodes[k]
        r1, y1, d1 = self.r_grid[k + 1], self.lam_nodes[k + 1], self.d_lam_nodes[k + 1]
        h = r1 - r0
        # At the horizon the root is r = 0, where the slope vanishes.  A point
        # stops once its step is at rounding level, so its result does not
        # depend on the other points.
        at_horizon = target <= lo
        done = at_horizon
        # Next to the horizon r is fixed only to about the square root of the
        # rounding in lambda, so a residual at rounding level also ends a point.
        settled = 4.0 * np.spacing(target)
        r = r1
        for _ in range(100):
            t = (r - r0) / h
            omt = 1.0 - t
            lam = ((1.0 + 2.0 * t) * omt * y0 + h * t * omt * d0) * omt + t * t * (
                (3.0 - 2.0 * t) * y1 + h * (t - 1.0) * d1
            )
            slope = 6.0 * t * omt * (y1 - y0) / h + omt * (1.0 - 3.0 * t) * d0 + t * (
                3.0 * t - 2.0
            ) * d1
            done = done | (np.abs(lam - target) <= settled)
            step = np.where(done, 0.0, (lam - target) / slope)
            r = np.minimum(np.maximum(r - step, r0), r1)
            done = done | (np.abs(step) <= 1e-15 * r)
            if done.all():
                break
        r = np.where(at_horizon, 0.0, r)
        return float(r) if rho_arr.ndim == 0 else r

    def identity_residual(self):
        """Max relative defect of lambda'^2 - (kappa + lambda^2 - 2 m lambda^(2-n)).

        The interpolated-derivative path is compared against the closed form
        of the interpolated lambda at interval midpoints; at nodes the two
        agree by construction, so this measures table self-consistency.
        """
        rm = 0.5 * (self.r_grid[:-1] + self.r_grid[1:])
        lam = self.lam(rm)
        dlam = self.dlam_interp(rm)
        resid = np.abs(dlam**2 - v_squared(self.params, lam))
        return float(np.max(resid / np.maximum(1.0, dlam**2)))

    def convexity_margin(self):
        """Min of lambda'' over nodes and midpoints (should be >= 0)."""
        rm = 0.5 * (self.r_grid[:-1] + self.r_grid[1:])
        dd_mid = self.derivatives_at(self.lam(rm))[1]
        return float(min(np.min(self.dd_lam_nodes), np.min(dd_mid)))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,lambda\n")
            for r, lam in zip(self.r_grid, self.lam_nodes):
                fh.write(f"{r!r},{lam!r}\n")


def _build_nodes(params, rho_start, r_max, h_target):
    """rho ladder from the horizon rho_start plus cumulative r by panel
    quadrature of 1/V, with rho = rho_start + xi^2 next to the horizon."""
    rho_c = rho_start + max(1.0, 0.25 * rho_start)
    pp = float(_v_squared_prime(params, rho_start))
    xi_c = math.sqrt(rho_c - rho_start)
    n_a = int(np.clip(math.ceil(xi_c / (0.1 * h_target * math.sqrt(pp))), 64, 80000))
    xi_edges = xi_c * np.linspace(0.0, 1.0, n_a + 1)
    r_inc = panel_integrals(lambda xi: 2.0 * xi / _v(params, rho_start + xi**2), xi_edges)
    rho_a = rho_start + xi_edges**2
    r_a = np.concatenate([[0.0], np.cumsum(r_inc)])

    d_sigma = 0.8 * h_target
    n_b = int(math.ceil(((r_max - r_a[-1]) * 1.3 + 2.0) / d_sigma))
    sig_edges = d_sigma * np.arange(n_b + 1)
    rho_of = lambda s: rho_c * np.exp(s)
    r_inc_b = panel_integrals(lambda s: rho_of(s) / _v(params, rho_of(s)), sig_edges)

    rho_nodes = np.concatenate([rho_a, rho_of(sig_edges[1:])])
    r_nodes = np.concatenate([r_a, r_a[-1] + np.cumsum(r_inc_b)])
    return rho_nodes, r_nodes


def _warp_tol_problem(r_max, target_nodes):
    """Why a table of ``target_nodes`` nodes over [0, r_max] cannot reach the
    relative tolerance 1e-11, or None if it can.  The node spacing is
    h = r_max / max(200, target_nodes), and exact-slope cubic Hermite errs by
    ~ h^4 |lambda''''| / 384 ~ h^4/384 relative."""
    attainable = (r_max / max(200, int(target_nodes))) ** 4 / 384.0
    if attainable <= 1e-11:
        return None
    return (f"tolerance 1e-11 unachievable with {target_nodes} nodes over r_max={r_max:g}; "
            f"attainable ~{attainable:.2g}")


def build_warp_table(params, r_max=25.0, target_nodes=4000):
    """Tabulate lambda(r) on [0, r_max] to relative tolerance 1e-11."""
    for name, value in (("r_max", r_max), ("target_nodes", target_nodes)):
        # NaN fails every comparison, so test finiteness explicitly.
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    problem = _warp_tol_problem(r_max, target_nodes)
    if problem:
        raise ResolutionError(problem)
    h_target = r_max / max(200, int(target_nodes))
    rho0 = find_horizon(params)
    if _v_squared_prime(params, rho0) <= 1e-8:
        raise ResolutionError(
            "degenerate (critical-mass) horizon: the radial coordinate is not tabulable"
        )
    rho_nodes, r_nodes = _build_nodes(params, rho0, r_max, h_target)
    stop = int(np.searchsorted(r_nodes, r_max))
    stop = min(stop + 1, len(r_nodes))
    return WarpTable(params, r_nodes[:stop], rho_nodes[:stop])

