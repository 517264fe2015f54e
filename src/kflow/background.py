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

Constant-curvature deviation: the curvature of (P, g) differs from the
hyperbolic model by O(m lambda^-n) terms, with the fiber-plane sectional
curvature 2 m lambda^-n - 1 and the radial-plane one -(1 + (n-2) m lambda^-n).

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
    "HorizonData",
    "WarpTable",
    "CurvatureDeviation",
    "critical_mass",
    "find_horizon",
    "potential",
    "v_squared",
    "build_warp_table",
    "hyperbolic_reference_table",
    "mass_from_horizon_area",
    "curvature_deviation",
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


def v_squared(params, rho):
    """V^2(rho) = rho^2 + kappa - 2 m rho^(2-n); no domain restriction."""
    rho = np.asarray(rho, dtype=float)
    if params.m == 0.0:  # avoid 0 * inf at rho = 0 in the massless limit
        return rho**2 + params.kappa
    return rho**2 + params.kappa - 2.0 * params.m * rho ** (2 - params.n)


def _v_squared_prime(params, rho):
    rho = np.asarray(rho, dtype=float)
    return 2.0 * rho + 2.0 * (params.n - 2) * params.m * rho ** (1 - params.n)


@dataclass(frozen=True)
class HorizonData:
    """Horizon radius, its fiber-area, and the mass recovered from that area."""

    rho0: float
    horizon_area: float
    horizon_mass_check: float


@lru_cache(maxsize=None)
def _horizon_radius(n, kappa, m):
    """Largest positive root of rho^2 + kappa - 2 m rho^(2-n)."""

    def phi(r):
        return r * r + kappa - 2.0 * m * r ** (2 - n)

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
        df = 2.0 * root + 2.0 * (n - 2) * m * root ** (1 - n)
        step = f / df
        root -= step
        root = min(max(root, a), b)
    else:
        raise NumericsError(
            f"horizon polish did not converge: bracket [{a:.17g}, {b:.17g}], residual {phi(root):.3g}"
        )
    return root


def find_horizon(params):
    """Locate the horizon: bracketed bisection plus a Newton polish."""
    rho0 = _horizon_radius(params.n, params.kappa, float(params.m))
    area = rho0 ** (params.n - 1) * params.theta
    return HorizonData(
        rho0=rho0,
        horizon_area=area,
        horizon_mass_check=mass_from_horizon_area(
            area, n=params.n, kappa=params.kappa, theta=params.theta
        ),
    )


def potential(params, rho):
    """Static potential V(rho) for rho >= rho0 (zero exactly at the horizon)."""
    rho0 = find_horizon(params).rho0
    rho_arr = np.asarray(rho, dtype=float)
    if not ((rho_arr >= rho0 * (1.0 - 1e-12)) & (rho_arr < math.inf)).all():
        raise DomainError(f"rho={rho!r} below the horizon radius {rho0:.12g} or not finite")
    val = np.sqrt(np.maximum(v_squared(params, rho_arr), 0.0))
    return float(val) if np.isscalar(rho) else val


def mass_from_horizon_area(area, *, n, kappa, theta):
    """Mass of the Kottler space whose horizon has the given fiber area."""
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
        n, m = params.n, params.m
        self.params = params
        self.r_grid = np.asarray(r_grid, dtype=float)
        self.lam_nodes = np.asarray(lam_nodes, dtype=float)
        if self.r_grid[0] != 0.0:
            raise DomainError("warp table must start at r = 0")
        if np.any(np.diff(self.r_grid) <= 0.0) or np.any(np.diff(self.lam_nodes) <= 0.0):
            raise NumericsError("warp table nodes must be strictly increasing")
        self.d_lam_nodes = np.sqrt(np.maximum(v_squared(params, self.lam_nodes), 0.0))
        if self.lam_nodes[0] > 0.0:
            # The table starts at the horizon, a root of V^2, so lambda'(0) = 0.
            # The polished root leaves |V^2| up to ~1e-14 rho0^2 there, which the
            # square root would turn into a spurious slope of up to ~1e-7.
            self.d_lam_nodes[0] = 0.0
        if m == 0.0:  # avoid 0 * inf when the table starts at lambda = 0
            self.dd_lam_nodes = self.lam_nodes.copy()
        else:
            self.dd_lam_nodes = self.lam_nodes + (n - 2) * m * self.lam_nodes ** (1 - n)
        self.rho0 = float(self.lam_nodes[0])
        self.r_max = float(self.r_grid[-1])
        # s = log lambda above this lies beyond the table, and e^s is finite below it.
        self.log_lam_cap = math.log(self.lam_nodes[-1]) + 1.0

    def lam(self, r):
        return hermite_eval(r, self.r_grid, self.lam_nodes, self.d_lam_nodes, "lambda")

    def derivatives_at(self, lam):
        """(lambda', lambda'') at warp values ``lam`` from the closed forms
        V(lambda) and lambda + (n-2) m lambda^(1-n); no table search."""
        n, kappa, m = self.params.n, self.params.kappa, self.params.m
        # q = m lambda^(1-n): V^2 = lambda (lambda - 2 q) + kappa, lambda'' = lambda + (n-2) q.
        q = m / lam ** (n - 1)
        return np.sqrt(np.maximum(lam * (lam - 2.0 * q) + kappa, 0.0)), lam + (n - 2) * q

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

    def asymptotic_constant(self):
        """(mean, relative variation) of lambda e^-r over the last decade of lambda."""
        mask = self.r_grid >= self.r_max - math.log(10.0)
        c = self.lam_nodes[mask] * np.exp(-self.r_grid[mask])
        mean = float(np.mean(c))
        var = float((np.max(c) - np.min(c)) / mean)
        return mean, var

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,lambda\n")
            for r, lam in zip(self.r_grid, self.lam_nodes):
                fh.write(f"{r!r},{lam!r}\n")


def _build_nodes(params, rho_start, r_max, h_target, singular_start):
    """rho ladder plus cumulative r by panel quadrature of 1/V."""

    def vfun(rho):
        return np.sqrt(np.maximum(v_squared(params, rho), 0.0))

    rho_c = rho_start + max(1.0, 0.25 * rho_start)
    if singular_start:
        pp = float(_v_squared_prime(params, rho_start))
        xi_c = math.sqrt(rho_c - rho_start)
        n_a = int(np.clip(math.ceil(xi_c / (0.1 * h_target * math.sqrt(pp))), 64, 80000))
        xi_edges = xi_c * np.linspace(0.0, 1.0, n_a + 1)
        r_inc = panel_integrals(lambda xi: 2.0 * xi / vfun(rho_start + xi**2), xi_edges)
        rho_a = rho_start + xi_edges**2
    else:
        n_a = max(64, int(math.ceil((rho_c - rho_start) / h_target)))
        rho_edges = np.linspace(rho_start, rho_c, n_a + 1)
        r_inc = panel_integrals(lambda rho: 1.0 / vfun(rho), rho_edges)
        rho_a = rho_edges
    r_a = np.concatenate([[0.0], np.cumsum(r_inc)])

    d_sigma = 0.8 * h_target
    n_b = int(math.ceil(((r_max - r_a[-1]) * 1.3 + 2.0) / d_sigma))
    sig_edges = d_sigma * np.arange(n_b + 1)
    rho_of = lambda s: rho_c * np.exp(s)
    r_inc_b = panel_integrals(lambda s: rho_of(s) / vfun(rho_of(s)), sig_edges)

    rho_nodes = np.concatenate([rho_a, rho_of(sig_edges[1:])])
    r_nodes = np.concatenate([r_a, r_a[-1] + np.cumsum(r_inc_b)])
    return rho_nodes, r_nodes


def build_warp_table(params, r_max=25.0, tol=1e-11, target_nodes=4000):
    """Tabulate lambda(r) on [0, r_max] to the requested relative tolerance."""
    for name, value in (("r_max", r_max), ("tol", tol), ("target_nodes", target_nodes)):
        # NaN fails every comparison, so test finiteness explicitly.
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    h_target = r_max / max(200, int(target_nodes))
    # Exact-slope cubic Hermite error ~ h^4 |lambda''''| / 384 ~ h^4/384 relative.
    if h_target**4 / 384.0 > tol:
        raise ResolutionError(
            f"tolerance {tol:g} unachievable with {target_nodes} nodes over r_max={r_max:g}; "
            f"attainable ~{h_target**4 / 384.0:.2g}"
        )
    rho0 = find_horizon(params).rho0
    if _v_squared_prime(params, rho0) <= 1e-8:
        raise ResolutionError(
            "degenerate (critical-mass) horizon: the radial coordinate is not tabulable"
        )
    rho_nodes, r_nodes = _build_nodes(params, rho0, r_max, h_target, True)
    stop = int(np.searchsorted(r_nodes, r_max))
    stop = min(stop + 1, len(r_nodes))
    return WarpTable(params, r_nodes[:stop], rho_nodes[:stop])


class _HyperbolicParams(SpaceParams):
    """Massless kappa=+1 limit; only for the dedicated comparison table."""

    def __post_init__(self):  # lambda(r) = sinh r has no horizon, so skip m > 0
        pass


def hyperbolic_reference_table(n, r_max=25.0, target_nodes=4000):
    """Warp table of the exact hyperbolic limit (kappa=1, m->0): lambda = sinh r."""
    theta = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    params = _HyperbolicParams(n=n, kappa=1, m=0.0, theta=theta)
    h_target = r_max / max(200, int(target_nodes))
    rho_nodes, r_nodes = _build_nodes(params, 0.0, r_max, h_target, False)
    stop = min(int(np.searchsorted(r_nodes, r_max)) + 1, len(r_nodes))
    return WarpTable(params, r_nodes[:stop], rho_nodes[:stop])


# ---------------------------------------------------------------------------
# Curvature deviation from the constant-curvature model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureDeviation:
    """Pointwise distance of the curvature from the hyperbolic model.

    ``sec_tangential`` and ``sec_radial`` are the sectional curvatures of the
    fiber and radial planes (both -1 in the model); the deviations are the
    max-component norms of Riem + g (x) g and Ric + (n-1) g.
    """

    riem_dev: float
    ric_dev: float
    sec_tangential: float
    sec_radial: float


def curvature_deviation(params, warp, r):
    if not 0.0 <= r <= warp.r_max:  # NaN fails too
        raise DomainError(f"r={r!r} outside [0, {warp.r_max:g}]")
    n, m = params.n, params.m
    lam = float(warp.lam(r))
    scale = m * lam ** (-n)
    return CurvatureDeviation(
        riem_dev=abs(scale) * max(2.0, float(n - 2)),
        ric_dev=(n - 1) * (n - 2) * abs(scale),
        sec_tangential=2.0 * scale - 1.0,
        sec_radial=-(1.0 + (n - 2) * scale),
    )
