"""Induced geometry and functionals of star-shaped graphs.

A star-shaped hypersurface Sigma in the background (P, dr^2 + lambda(r)^2 ghat)
is the radial graph {(u(x), x) : x in N}.  The fiber coordinate phi =
int du / lambda is notation only: it enters through its derivatives
phi_i = u_i / lambda(u) and phi_ij = u_ij / lambda - lambda' u_i u_j / lambda^2,
which are formed from the derivatives of u, and is never evaluated itself.
With v = sqrt(1 + |grad phi|^2), the induced metric, second fundamental form
and mean curvature are

    g_ij = lambda^2 (ghat_ij + phi_i phi_j),
    h_ij = (lambda / v) (lambda' (ghat_ij + phi_i phi_j) - phi_ij),
    H    = (n-1) lambda' / (lambda v) - gtil^ij phi_ij / (lambda v),

with gtil^ij = ghat^ij - phi^i phi^j / v^2.  Only H is formed; g_ij and h_ij
are not returned.  The support function is p = <grad V, nu> = lambda''(u) / v,
using <d_r, nu> = 1/v, and the star-shapedness witness is chi = v / lambda.
lambda(u) is looked up in the warp table once per evaluation; lambda'(u)
and lambda''(u) are its closed forms.  ``compute_geometry`` forms only what
a flow step and its checks read (lambda, lambda', lambda'', |grad phi|^2, v
and H); p, chi and the area element are formed when read, and the
aggregate functional record below on its first read.  A flow reads the
record only at its record times, so its midpoint stages never form it.

Aggregate functionals (all integrals over Sigma with its area measure
lambda^(n-1) v d mu_ghat):

    area, intVH = int V H, intP = int p, intVoverH = int V / H,
    J = n int_Omega V dvol = int_N (lambda(u)^n - rho0^n) d mu_ghat,
    K = theta [ (area/theta)^(n/(n-1)) - (|horizon|/theta)^(n/(n-1)) ],
    Q1 = (intVH - (n-1) J + (n-1) kappa rho0^(n-2) theta) / area^((n-2)/(n-1)),
    Q2 = (intVH + 2 (n-1) m theta - (n-1) theta (area/theta)^(n/(n-1)))
         / (area/theta)^((n-2)/(n-1)).

J uses the exact radial reduction (lambda^n)' = n lambda^(n-1) V, so no bulk
quadrature is ever performed.  The horizon area |dP| = rho0^(n-1) theta is
always taken from the background, never re-measured.

The deficit functions below vanish on every slice u = const (closed-form
algebra using 2m = rho0^n + kappa rho0^(n-2)) and are non-negative for
mean-convex star-shaped graphs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basegrid import ScalarField, differentiate, low_frequency_field
from .errors import ConfigurationError, DomainError, GenerationError, MeanConvexityError

__all__ = [
    "GraphSurface",
    "SurfaceGeometry",
    "FunctionalRecord",
    "compute_geometry",
    "minkowski_deficit",
    "weighted_volume_deficit",
    "heintze_karcher_deficit",
    "divergence_identity_residual",
    "deficit_scale",
    "random_star_shaped",
    "slice_surface",
]


@dataclass(frozen=True, eq=False)
class GraphSurface:
    """Radial graph height u > 0 over the base grid, inside the warp table."""

    u: ScalarField
    warp: object

    def __post_init__(self):
        params = self.warp.params
        grid = self.u.grid
        if grid.n != params.n or grid.kappa != params.kappa:
            raise ConfigurationError(
                f"surface: grid (n={grid.n}, kappa={grid.kappa}) does not match "
                f"background (n={params.n}, kappa={params.kappa})"
            )
        vals = self.u.values
        if (vals <= 0.0).any():
            raise DomainError("graph height must be strictly positive (outside the horizon)")
        if (vals > self.warp.r_grid[-1]).any():
            raise DomainError(
                f"graph height exceeds the tabulated range r <= {self.warp.r_grid[-1]:.6g}"
            )

    @property
    def grid(self):
        return self.u.grid


@dataclass(frozen=True)
class FunctionalRecord:
    area: float
    intVH: float
    intP: float
    intVoverH: float
    J: float
    K: float
    Q1: float
    Q2: float

    def as_dict(self):
        return {
            "area": self.area,
            "intVH": self.intVH,
            "intP": self.intP,
            "intVoverH": self.intVoverH,
            "J": self.J,
            "K": self.K,
            "Q1": self.Q1,
            "Q2": self.Q2,
        }


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    """Per-node geometry of a graph; its functional record is formed on first read.

    ``lam``, ``dlam``, ``ddlam`` are lambda, lambda' = V(lambda) and lambda''
    at the graph height u; ``grad_phi_sq`` = |grad phi|^2, ``v`` =
    sqrt(1 + |grad phi|^2) and ``H`` the mean curvature.  These are what a
    flow step reads.  The support function ``p`` = lambda'' / v, ``chi`` =
    v / lambda and ``area_element`` = lambda^(n-1) v (the density of the area
    measure against d mu_ghat) are formed on each read; ``functionals``, the
    aggregate record, is formed on the first read and then kept, so a flow
    pays for it only at record times.
    """

    surface: GraphSurface
    lam: np.ndarray
    dlam: np.ndarray
    ddlam: np.ndarray
    grad_phi_sq: np.ndarray
    v: np.ndarray
    H: np.ndarray

    @property
    def speed(self):
        """Graph-height speed v / H of the inverse mean curvature flow."""
        return self.v / self.H

    @property
    def p(self):
        return self.ddlam / self.v

    @property
    def chi(self):
        return self.v / self.lam

    @property
    def area_element(self):
        return self.lam ** (self.surface.warp.params.n - 1) * self.v

    @cached_property
    def functionals(self):
        """Aggregate functional record (see the module docstring)."""
        warp = self.surface.warp
        params = warp.params
        n = params.n
        lam, dlam, H = self.lam, self.dlam, self.H
        area_element = self.area_element
        w = self.surface.grid.quad_weights
        area = float(np.sum(w * area_element))
        int_vh = float(np.sum(w * dlam * H * area_element))
        int_p = float(np.sum(w * self.p * area_element))
        int_v_over_h = float(np.sum(w * (dlam / H) * area_element))
        rho0 = warp.rho0
        theta = params.theta
        j_val = float(np.sum(w * (lam**n - rho0**n)))
        k_val = theta * ((area / theta) ** (n / (n - 1)) - rho0**n)
        q1 = (
            int_vh - (n - 1) * j_val + (n - 1) * params.kappa * rho0 ** (n - 2) * theta
        ) / area ** ((n - 2) / (n - 1))
        q2 = (
            int_vh
            + 2.0 * (n - 1) * params.m * theta
            - (n - 1) * theta * (area / theta) ** (n / (n - 1))
        ) / (area / theta) ** ((n - 2) / (n - 1))
        return FunctionalRecord(
            area=area,
            intVH=int_vh,
            intP=int_p,
            intVoverH=int_v_over_h,
            J=j_val,
            K=k_val,
            Q1=q1,
            Q2=q2,
        )


def compute_geometry(surface):
    """Per-node geometry of a graph: what a flow step and its checks read.

    Raises MeanConvexityError when H <= 0 at any node.  The functional record
    is not formed here; ``SurfaceGeometry.functionals`` forms it on first read.
    """
    warp = surface.warp
    n = warp.params.n
    u = surface.u.values

    lam = warp.lam(u)
    dlam, ddlam = warp.derivatives_at(lam)

    d = differentiate(surface.u)
    grad_phi_sq = d.grad_sq / lam**2
    v = np.sqrt(1.0 + grad_phi_sq)
    lap_phi = d.lap / lam - dlam * d.grad_sq / lam**2
    quad_phi = d.quad_form / lam**3 - dlam * d.grad_sq**2 / lam**4
    gtil_phi = lap_phi - quad_phi / v**2
    H = ((n - 1) * dlam - gtil_phi) / (lam * v)

    if (H <= 0.0).any():
        bad = np.argwhere(H <= 0.0)
        raise MeanConvexityError(
            f"mean convexity violated at {len(bad)} node(s); min H = {float(H.min()):.6g}",
            nodes=bad,
        )

    return SurfaceGeometry(
        surface=surface,
        lam=lam,
        dlam=dlam,
        ddlam=ddlam,
        grad_phi_sq=grad_phi_sq,
        v=v,
        H=H,
    )


def _area_powers(geom):
    params = geom.surface.warp.params
    n, theta = params.n, params.theta
    rho0 = geom.surface.warp.rho0
    a_ratio = geom.functionals.area / theta
    hi = theta * (a_ratio ** (n / (n - 1)) - rho0**n)
    lo = theta * (a_ratio ** ((n - 2) / (n - 1)) - rho0 ** (n - 2))
    return hi, lo


def minkowski_deficit(geom):
    """Weighted-mean-curvature excess over the sharp area-power comparison;
    zero on slices, non-negative for mean-convex star-shaped graphs."""
    params = geom.surface.warp.params
    n, kappa = params.n, params.kappa
    hi, lo = _area_powers(geom)
    return geom.functionals.intVH - (n - 1) * kappa * lo - (n - 1) * hi


def weighted_volume_deficit(geom):
    """Weighted-mean-curvature excess over the weighted-volume comparison."""
    params = geom.surface.warp.params
    n, kappa = params.n, params.kappa
    _, lo = _area_powers(geom)
    return geom.functionals.intVH - (n - 1) * geom.functionals.J - (n - 1) * kappa * lo


def heintze_karcher_deficit(geom):
    """(n-1) int V/H  minus  (J + rho0^n theta); zero exactly on slices."""
    params = geom.surface.warp.params
    rho0 = geom.surface.warp.rho0
    return (params.n - 1) * geom.functionals.intVoverH - (
        geom.functionals.J + rho0**params.n * params.theta
    )


def divergence_identity_residual(geom):
    """int p  minus  J + (n/2 rho0^n + (n-2)/2 kappa rho0^(n-2)) theta.

    The continuum value is zero for every enclosing graph, so this is a pure
    quadrature-consistency probe.
    """
    params = geom.surface.warp.params
    n, kappa, theta = params.n, params.kappa, params.theta
    rho0 = geom.surface.warp.rho0
    boundary = (0.5 * n * rho0**n + 0.5 * (n - 2) * kappa * rho0 ** (n - 2)) * theta
    return geom.functionals.intP - (geom.functionals.J + boundary)


def deficit_scale(geom):
    """Max magnitude among the terms entering the deficit functionals.

    Tolerances are expressed relative to this scale so that checks stay
    resolution- and radius-portable.
    """
    params = geom.surface.warp.params
    n, kappa, theta = params.n, params.kappa, params.theta
    rho0 = geom.surface.warp.rho0
    rec = geom.functionals
    hi, lo = _area_powers(geom)
    terms = (
        abs(rec.intVH),
        (n - 1) * abs(rec.J),
        (n - 1) * abs(hi),
        (n - 1) * abs(kappa) * abs(lo),
        abs(rec.intP),
        (n - 1) * abs(rec.intVoverH),
        abs(rec.J + rho0**n * theta),
        (0.5 * n * rho0**n + 0.5 * (n - 2) * abs(kappa) * rho0 ** (n - 2)) * theta,
    )
    return max(terms)


def slice_surface(grid, warp, lam_value=None, r_value=None):
    """Exact slice u = const, specified either by lambda(u) or by u itself."""
    if (lam_value is None) == (r_value is None):
        raise ConfigurationError("slice_surface: give exactly one of lam_value / r_value")
    r = warp.r_from_rho(float(lam_value)) if lam_value is not None else float(r_value)
    return GraphSurface(ScalarField.constant(grid, r), warp)


def random_star_shaped(grid, warp, seed, amplitude, base_r):
    """Random mean-convex star-shaped graph u = base_r (1 + perturbation).

    The perturbation is a seed-deterministic low-frequency field; on mean
    convexity failure the amplitude is halved, up to 8 retries.
    """
    if amplitude < 0.0:
        raise DomainError(f"amplitude must be non-negative, got {amplitude!r}")
    pert = low_frequency_field(grid, seed, 1.0)
    amp = float(amplitude)
    for _ in range(9):
        surface = GraphSurface(ScalarField(base_r * (1.0 + amp * pert), grid), warp)
        try:
            geom = compute_geometry(surface)
        except MeanConvexityError:
            amp *= 0.5
            continue
        if float(geom.H.min()) > 0.0:
            return surface
        amp *= 0.5
    raise GenerationError(
        f"could not reach mean convexity from seed={seed}, amplitude={amplitude}"
    )
