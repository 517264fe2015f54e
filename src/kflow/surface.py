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

with gtil^ij = ghat^ij - phi^i phi^j / v^2.  g_ij and h_ij are not returned.
The support function is p = <grad V, nu> = lambda''(u) / v, using
<d_r, nu> = 1/v.

The kernel forms none of V, v, phi or H on the step path.  With
V^2 = lambda^2 + kappa - 2 q and lambda lambda'' = lambda^2 + (n-2) q, where
q = m lambda^(2-n), v^2 = W / V^2 and the c |grad s|^2 terms collapse, so

    W = V^2 + |grad s|^2,
    D = ((n-1) V^2 - Lap s) W + lambda lambda'' |grad s|^2 + grad s . Hess s . grad s,
    H = D / (lambda W^(3/2)),    v lambda H = D / (V W),    ds/dt = W^2 / D

(docs/derivations.md, "Flow speed as W^2/D").  ``compute_geometry`` forms
V^2, W and D and tests mean convexity as D > 0, with V^2 > 0: where V^2
rounds to <= 0, next to the horizon, H is NaN and the graph is rejected.
Every other field is formed on its first read: a flow's midpoint stage
forms only the speed W^2 / D, its full stage also max W, for a lower bound
on min H, and H only where that bound does not settle a test; p
and the area element are formed when read, and the aggregate functional
record below on its first read, which a flow makes only at its record
times.  The graph height u is formed only where it is read, through the
inverse table.  docs/derivations.md derives the formulas in s.

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

import numpy as np

from .background import _lam_ddlam, _v_squared_at
from .basegrid import ScalarField, differentiate, low_frequency_field, sharp_constant
from .errors import ConfigurationError, DomainError, MeanConvexityError

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


class _lazy:
    """A field formed on its first read and kept in the instance's __dict__,
    where later reads find it before this non-data descriptor.  It is
    functools.cached_property without the lock that Python <= 3.11 takes on
    every first read (3.12 dropped it too): two threads reading first at once
    may both run the formula, and the last equal result is kept.  A value
    assigned before the first read is kept."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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

    @_lazy
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


class SurfaceGeometry:
    """Per-node geometry of a graph, formed from three kernel arrays.

    ``compute_geometry`` forms ``dlam_sq`` = V^2 = lambda'^2, ``W`` = V^2 +
    |grad s|^2 and ``D`` = v lambda H V W (module docstring); ``lam_ddlam`` =
    lambda lambda'' and ``grad_s_sq`` = |grad s|^2 are kept for the fields
    below, with ``lam`` = lambda at the graph height u.  ``speed`` = W^2 / D
    is what an RK2 midpoint stage reads.  Every other field is formed on its
    first read and then kept: ``dlam`` and ``ddlam`` are lambda' and lambda'';
    ``grad_phi_sq`` = |grad phi|^2 = |grad s|^2 / V^2, ``v`` =
    sqrt(1 + |grad phi|^2), ``H`` = D / (lambda W^(3/2)) the mean curvature,
    ``h_min`` = min H, which is > 0, and ``lam_h_bound``, a lower bound on
    min lambda H from ``d_min`` = min D and max W that forms no H.  The
    support function ``p`` = lambda'' / v and ``area_element`` =
    lambda^(n-1) v (the density of the area measure against d mu_ghat) are
    formed on each read; ``functionals``, the
    aggregate record, is formed on the first read and then kept, so a flow
    pays for it only at record times.
    """

    def __init__(self, surface, dlam_sq, lam_ddlam, grad_s_sq, W, D, d_min):
        self.surface = surface
        self.lam = surface.lam
        self.dlam_sq = dlam_sq
        self.lam_ddlam = lam_ddlam
        self.grad_s_sq = grad_s_sq
        self.W = W
        self.D = D
        self.d_min = d_min

    @_lazy
    def speed(self):
        """Speed ds/dt = v lambda' / (lambda H) = W^2 / D of s = log lambda(u)
        under the inverse mean curvature flow du/dt = v / H."""
        speed = self.W * self.W
        speed /= self.D
        return speed

    @_lazy
    def H(self):
        """Mean curvature D / (lambda W^(3/2))."""
        H = np.sqrt(self.W)
        H *= self.W
        H *= self.lam
        return np.divide(self.D, H, out=H)

    @_lazy
    def h_min(self):
        return float(self.H.min())

    @_lazy
    def lam_h_bound(self):
        """A lower bound on min lambda H without H: lambda H = D / W^(3/2) >=
        min D / (max W)^(3/2) at every node, shrunk by 1e-9 relative, far more
        than the few roundings by which the formed H or the bound may stray.
        Over lambda_max it bounds min H from below."""
        w_max = float(self.W.max())
        return float(self.d_min) / (w_max * math.sqrt(w_max)) * (1.0 - 1e-9)

    @_lazy
    def dlam(self):
        return np.sqrt(self.dlam_sq)

    @_lazy
    def ddlam(self):
        return self.lam_ddlam / self.lam

    @_lazy
    def grad_phi_sq(self):
        return self.grad_s_sq / self.dlam_sq

    @_lazy
    def v(self):
        return np.sqrt(1.0 + self.grad_phi_sq)

    @property
    def p(self):
        return self.ddlam / self.v

    @property
    def area_element(self):
        return self.lam ** (self.surface.warp.params.n - 1) * self.v

    @_lazy
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
    """Per-node geometry of a graph: V^2, W and D (see SurfaceGeometry).

    lambda = e^s is held by the surface and V^2 = lambda^2 + kappa - 2 q,
    lambda lambda'' = lambda^2 + (n-2) q with q = m lambda^(2-n) are closed
    forms of it (``background._v_squared_at`` and ``_lam_ddlam``), so no
    table search is made; the fiber derivatives are those of s.  No square
    root is taken, and the only inverse formed is lambda^(2-n).
    The graph is mean convex where D > 0 and V^2 > 0, and MeanConvexityError
    is raised unless both hold at every node; ``nodes`` lists the nodes where
    either fails.  H is NaN where V^2 rounds to <= 0 (next to the horizon,
    where V = 0), and the error then reads min H = nan.  Every other field
    is formed on its first read.
    """
    params = surface.warp.params
    n = params.n
    lam = surface.lam
    # V^2 and lambda lambda'' are the background's closed forms of lambda.  Each
    # array is formed left to right in the operand order of its formula, in
    # place where it can be, so its bits equal those of the formula as written.
    lam_sq = lam * lam
    dlam_sq, two_q = _v_squared_at(n, params.kappa, lam, (params.m,), rho_sq=lam_sq)
    lam_ddlam = _lam_ddlam(n, lam_sq, two_q)
    d = differentiate(surface.s)
    grad_sq = d.grad_sq
    # W = V^2 + |grad s|^2 = v^2 V^2
    W = dlam_sq + grad_sq
    # D = ((n-1) V^2 - Lap s) W + lambda lambda'' |grad s|^2 + grad s . Hess s . grad s
    D = (n - 1) * dlam_sq
    D -= d.lap
    D *= W
    # Lap s is spent, so its array takes lambda lambda'' |grad s|^2.
    D += np.multiply(lam_ddlam, grad_sq, out=d.lap)
    D += d.quad_form

    geom = SurfaceGeometry(surface, dlam_sq, lam_ddlam, grad_sq, W, D, D.min())
    # NaN fails the comparisons, so a NaN D is a mean-convexity failure too.
    if not (geom.d_min > 0.0 and dlam_sq.min() > 0.0):
        near_horizon = ~(dlam_sq > 0.0)
        bad = np.argwhere(near_horizon | ~(D > 0.0))
        h_min = math.nan if near_horizon.any() else geom.h_min
        raise MeanConvexityError(
            f"mean convexity violated at {len(bad)} node(s); min H = {h_min:.6g}",
            nodes=bad,
        )
    return geom


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


def slice_surface(grid, warp, lam_value):
    """Exact slice u = const given by its warp factor lambda(u) = ``lam_value``.

    The slice holds that lambda exactly: no inversion and no table search."""
    lam = float(lam_value)
    if not lam > 0.0:
        raise DomainError(f"slice_surface: lam_value must be positive, got {lam_value!r}")
    _check_grid(grid, warp)
    return GraphSurface.from_log_lambda(np.full(grid.shape, math.log(lam)), grid, warp,
                                        lam=np.full(grid.shape, lam))


def random_star_shaped(grid, warp, seed, amplitude, base_r):
    """Star-shaped graph u = base_r (1 + amplitude * pert), pert the seed's
    low-frequency field with sup |pert| = 1.  Its mean convexity is checked
    where its geometry is formed (``compute_geometry``)."""
    if not 0.0 <= amplitude < math.inf:
        raise DomainError(f"amplitude must be non-negative and finite, got {amplitude!r}")
    pert = low_frequency_field(grid, seed, 1.0)
    return GraphSurface(ScalarField(base_r * (1.0 + float(amplitude) * pert), grid), warp)
