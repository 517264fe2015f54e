"""Induced geometry and functionals of star-shaped graphs.

A star-shaped hypersurface Sigma in the background (P, dr^2 + lambda(r)^2 ghat)
is the radial graph {(u(x), x) : x in N}.  It is held as the field
s = log lambda(u): lambda = e^s, and lambda' = V(lambda), lambda'' =
lambda + (n-2) m lambda^(1-n) are closed forms of lambda, so no table search
is made once a graph exists.  The fiber coordinate phi = int du / lambda is
notation only: it enters through its derivatives, which follow from those of
s with V = lambda' and c = lambda lambda'' / V^2,

    phi_i = s_i / V,    phi_ij = (s_ij - c s_i s_j) / V,

and is never evaluated itself.  With v = sqrt(1 + |grad phi|^2), the induced
metric, second fundamental form and mean curvature are

    g_ij = lambda^2 (ghat_ij + phi_i phi_j),
    h_ij = (lambda / v) (lambda' (ghat_ij + phi_i phi_j) - phi_ij),
    H    = (n-1) lambda' / (lambda v) - gtil^ij phi_ij / (lambda v),

with gtil^ij = ghat^ij - phi^i phi^j / v^2.  Only H is formed; g_ij and h_ij
are not returned.  The support function is p = <grad V, nu> = lambda''(u) / v,
using <d_r, nu> = 1/v, and the star-shapedness witness is chi = v / lambda.
``compute_geometry`` forms only what a flow step and its checks read
(lambda, lambda', lambda'', |grad phi|^2, v, H and h_min = min H, the one
reduction of H, which must be > 0: a NaN H, as when V rounds to 0 next to
the horizon, is rejected as a mean-convexity failure); p, chi and the area
element are formed when read, and the aggregate functional record below on
its first read.  A flow reads the record only at its record times, so its
midpoint stages never form it.  The graph height u is formed only where it
is read, through the inverse table.  docs/derivations.md derives the
formulas in s.

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
mean-convex star-shaped graphs.  Two are read off the record: an area power
times Q2 or Q1 minus its slice value, its sharp bound (docs/derivations.md).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basegrid import ScalarField, differentiate, low_frequency_field, sharp_constant
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


class GraphSurface:
    """Star-shaped radial graph over the base grid, held as s = log lambda(u).

    ``GraphSurface(u, warp)`` takes the graph height u as a ScalarField and
    looks lambda(u) up in the warp table once.  ``from_log_lambda`` takes s
    itself and makes no table search; that is how a flow builds its states.
    ``s`` is a ScalarField and ``lam`` = e^s the warp-factor array, which
    must lie in (rho0, lambda_max]; ``lam_min`` and ``lam_max`` are its
    extrema, formed by that range check.  ``u`` is kept when it was given,
    and is otherwise formed on its first read through the inverse table.
    """

    def __init__(self, u, warp):
        _check_grid(u.grid, warp)
        vals = u.values
        if (vals <= 0.0).any():
            raise DomainError("graph height must be strictly positive (outside the horizon)")
        if (vals > warp.r_grid[-1]).any():
            raise DomainError(
                f"graph height exceeds the tabulated range r <= {warp.r_grid[-1]:.6g}"
            )
        lam = warp.lam(vals)
        self._set(ScalarField(np.log(lam), u.grid), lam, warp)
        self.u = u

    @classmethod
    def from_log_lambda(cls, s, grid, warp, lam=None):
        """The graph over ``grid`` with log lambda(u) = ``s``, a float array of
        the grid's shape; ``lam`` = e^s may be passed when it is known exactly
        (a slice).

        The caller vouches that ``grid`` matches ``warp`` (a flow stage reuses
        its parent's).  The one check is the range of lambda, which also
        rejects NaN and +-inf in s; max(s) is tested against
        ``warp.log_lam_cap`` first, so e^s cannot overflow.
        """
        if lam is None:
            s_max = s.max()
            # NaN fails the comparison, so it is rejected with the large values.
            if not s_max <= warp.log_lam_cap:
                raise DomainError(
                    f"warp factor e^{float(s_max):.6g} outside tabulated range "
                    f"({warp.rho0:.12g}, {warp.lam_nodes[-1]:.12g}]"
                )
            lam = np.exp(s)
        surface = cls.__new__(cls)
        surface._set(ScalarField.unchecked(s, grid), lam, warp)
        return surface

    def _set(self, s, lam, warp):
        lam_min, lam_max = lam.min(), lam.max()
        # NaN fails both comparisons, so it is rejected with the out-of-range values.
        if not (lam_min > warp.rho0 and lam_max <= warp.lam_nodes[-1]):
            raise DomainError(
                f"warp factor {float(lam_min):.6g}..{float(lam_max):.6g} outside "
                f"tabulated range ({warp.rho0:.12g}, {warp.lam_nodes[-1]:.12g}]"
            )
        self.s = s
        self.lam = lam
        self.lam_min = lam_min
        self.lam_max = lam_max
        self.warp = warp

    @cached_property
    def u(self):
        """Graph height u = r(lambda), through the inverse table."""
        return ScalarField(self.warp.r_from_rho(self.lam), self.grid)

    @property
    def grid(self):
        return self.s.grid


def _check_grid(grid, warp):
    params = warp.params
    if grid.n != params.n or grid.kappa != params.kappa:
        raise ConfigurationError(
            f"surface: grid (n={grid.n}, kappa={grid.kappa}) does not match "
            f"background (n={params.n}, kappa={params.kappa})"
        )


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


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    """Per-node geometry of a graph; its functional record is formed on first read.

    ``lam``, ``dlam``, ``ddlam`` are lambda, lambda' = V(lambda) and lambda''
    at the graph height u; ``grad_phi_sq`` = |grad phi|^2, ``v`` =
    sqrt(1 + |grad phi|^2), ``H`` the mean curvature and ``h_min`` = min H,
    which is > 0.  These are what a flow step reads.  The support function
    ``p`` = lambda'' / v, ``chi`` = v / lambda and ``area_element`` =
    lambda^(n-1) v (the density of the area measure against d mu_ghat) are
    formed on each read; ``functionals``, the aggregate record, is formed on
    the first read and then kept, so a flow pays for it only at record times.
    """

    surface: GraphSurface
    lam: np.ndarray
    dlam: np.ndarray
    ddlam: np.ndarray
    grad_phi_sq: np.ndarray
    v: np.ndarray
    H: np.ndarray
    h_min: float

    @property
    def speed(self):
        """Speed ds/dt = v lambda' / (lambda H) of s = log lambda(u) under the
        inverse mean curvature flow du/dt = v / H."""
        return self.v * self.dlam / (self.lam * self.H)

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

    The fiber derivatives are those of s = log lambda(u); lambda = e^s is
    held by the surface, so no table search is made (see the module
    docstring).  H is reduced once, to h_min = min H, and MeanConvexityError
    is raised unless h_min > 0: at a node where H <= 0 or H is NaN (as when
    V rounds to 0 next to the horizon), and ``nodes`` lists those nodes.
    The functional record is not formed here; ``SurfaceGeometry.functionals``
    forms it on first read.
    """
    n = surface.warp.params.n
    lam = surface.lam
    dlam, ddlam = surface.warp.derivatives_at(lam)

    d = differentiate(surface.s)
    grad_sq = d.grad_sq
    dlam_sq = dlam * dlam
    grad_phi_sq = grad_sq / dlam_sq
    v_sq = 1.0 + grad_phi_sq
    v = np.sqrt(v_sq)
    # Each quantity below is formed in place, left to right in the operand
    # order of its formula, so its bits equal those of the formula as written.
    # c |grad s|^2, with c = lambda lambda'' / V^2, formed once.
    c_grad_sq = lam * ddlam
    c_grad_sq /= dlam_sq
    c_grad_sq *= grad_sq
    # Lap phi = (Lap s - c |grad s|^2) / V
    lap_phi = d.lap - c_grad_sq
    lap_phi /= dlam
    # phi_i phi_ij phi_j / v^2 = ((quad_form - c |grad s|^4) / V^3) / v^2
    quad_over_v_sq = np.multiply(c_grad_sq, grad_sq, out=c_grad_sq)
    np.subtract(d.quad_form, quad_over_v_sq, out=quad_over_v_sq)
    quad_over_v_sq /= np.multiply(dlam_sq, dlam, out=dlam_sq)
    quad_over_v_sq /= v_sq
    # H = ((n-1) V - Lap phi + phi_i phi_ij phi_j / v^2) / (lambda v), where
    # gtil^ij phi_ij = Lap phi - phi_i phi_ij phi_j / v^2.
    H = (n - 1) * dlam
    H -= lap_phi
    H += quad_over_v_sq
    H /= np.multiply(lam, v, out=lap_phi)

    h_min = float(H.min())
    # NaN fails the comparison, so a NaN H is a mean-convexity failure too.
    if not h_min > 0.0:
        bad = np.argwhere(~(H > 0.0))
        raise MeanConvexityError(
            f"mean convexity violated at {len(bad)} node(s); min H = {h_min:.6g}",
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
        h_min=h_min,
    )


def minkowski_deficit(geom):
    """(|Sigma|/theta)^((n-2)/(n-1)) (Q2 - (n-1) kappa theta), the weighted
    Alexandrov-Fenchel deficit; zero on slices, non-negative for mean-convex
    star-shaped graphs."""
    params = geom.surface.warp.params
    n, kappa, theta = params.n, params.kappa, params.theta
    rec = geom.functionals
    return (rec.area / theta) ** ((n - 2) / (n - 1)) * (rec.Q2 - (n - 1) * kappa * theta)


def weighted_volume_deficit(geom):
    """|Sigma|^((n-2)/(n-1)) (Q1 - (n-1) kappa theta^(1/(n-1))), the
    weighted-volume deficit; zero on slices."""
    params = geom.surface.warp.params
    rec = geom.functionals
    bound = sharp_constant(params.n, params.kappa, params.theta)
    return rec.area ** ((params.n - 2) / (params.n - 1)) * (rec.Q1 - bound)


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
    lo = theta * ((rec.area / theta) ** ((n - 2) / (n - 1)) - rho0 ** (n - 2))
    terms = (
        abs(rec.intVH),
        (n - 1) * abs(rec.J),
        (n - 1) * abs(rec.K),
        (n - 1) * abs(kappa) * abs(lo),
        abs(rec.intP),
        (n - 1) * abs(rec.intVoverH),
        abs(rec.J + rho0**n * theta),
        (0.5 * n * rho0**n + 0.5 * (n - 2) * abs(kappa) * rho0 ** (n - 2)) * theta,
    )
    return max(terms)


def slice_surface(grid, warp, lam_value=None, r_value=None):
    """Exact slice u = const, specified either by lambda(u) or by u itself.

    A slice given by lambda(u) holds that lambda exactly: no inversion and
    no table search."""
    if (lam_value is None) == (r_value is None):
        raise ConfigurationError("slice_surface: give exactly one of lam_value / r_value")
    if r_value is not None:
        return GraphSurface(ScalarField.constant(grid, r_value), warp)
    lam = float(lam_value)
    if not lam > 0.0:
        raise DomainError(f"slice_surface: lam_value must be positive, got {lam_value!r}")
    _check_grid(grid, warp)
    return GraphSurface.from_log_lambda(np.full(grid.shape, math.log(lam)), grid, warp,
                                        lam=np.full(grid.shape, lam))


def random_star_shaped(grid, warp, seed, amplitude, base_r):
    """Random mean-convex star-shaped graph u = base_r (1 + perturbation).

    The perturbation is a seed-deterministic low-frequency field; on mean
    convexity failure (compute_geometry raises) the amplitude is halved, up
    to 8 retries.
    """
    if not 0.0 <= amplitude < math.inf:
        raise DomainError(f"amplitude must be non-negative and finite, got {amplitude!r}")
    pert = low_frequency_field(grid, seed, 1.0)
    amp = float(amplitude)
    for _ in range(9):
        surface = GraphSurface(ScalarField(base_r * (1.0 + amp * pert), grid), warp)
        try:
            compute_geometry(surface)
        except MeanConvexityError:
            amp *= 0.5
            continue
        return surface
    raise GenerationError(
        f"could not reach mean convexity from seed={seed}, amplitude={amplitude}"
    )
