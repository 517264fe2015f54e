"""Radial graphical manifolds over a Kottler base: profiles, mass, identity.

A radial graph {t = f(rho)} in the Riemannian cylinder (R x P, V^2 dt^2 + g)
induces on P \\ (interior) the metric g + psi d rho (x) d rho with
psi = (V f')^2.  This module is the one place that builds such graphs.
Each family gives psi and d log(psi V^2) / d rho, from which

    f'  = sqrt(psi / V^2),
    f'' = f' (d log psi / d rho - (V^2)' / V^2) / 2.

Each graph carries one pointwise evaluator that forms V^2, (V^2)', psi, f'
and f'' of a whole array of radii together, once per call, in two steps.
The psi step forms the base V^2 and the family's own V^2 terms (V_graph^2;
the exponential, mtilde, U and the 2q numerators) from one rho^(2-n); the
log-derivative step forms the base (V^2)' and the family's own lambda''
from one rho^(1-n).  The shape operator reads all five values from one
evaluator call; ``psi`` and the mass integrand make only the psi step, so
they form no rho^(1-n) of the graph and no f''.

Both families decay at order tau = n, psi = O(rho^(-n-2)), by
construction: psi = 2 q_dm / (V_graph^2 V^2), with q_dm = dm rho^(2-n) and
dm >= 0 bounded (m_graph - m, or mtilde(rho) - m -> m_total - m), and
psi = 0 exactly at equal masses.  So tau > n/2, the mass limit exists, and
no decay order is fitted; ``mass_limit``'s convergence guards check its
samples.

A Kottler space of mass m_graph >= m_base embeds as a radial graph over the
mass-m_base space (``kottler_pair_graph``), with

    (V_base f')^2 = 1 / V_graph^2 - 1 / V_base^2,

which blows up like (rho - rho_start)^(-1/2) at the horizon of the heavier
space and decays like rho^(-(n+4)/2) at infinity.

For radial perturbations the static-potential boundary integrand at the
coordinate sphere N_rho reduces to closed 1-D forms (docs/derivations.md):

    V (div e - d tr e)(nu)  =  (n-1) V^4 psi / rho,
    (tr e) dV(nu)           =   V^3 V' psi,
    -e(grad V, .)(nu)       =  -V^3 V' psi      (the last two cancel),

so the mass evaluated against the mass-m base at finite radius is

    m(rho) = m + c_n theta rho^(n-1) [(n-1) V^4 psi / rho]
           = m + (1/2) rho^(n-2) V^4 psi,       c_n = 1/(2 (n-1) theta),

with m(rho) -> total mass as rho -> oo.  Generic admissible profiles leave a
rho^-2 error term, removed here by Richardson extrapolation of the samples
at rho = 50, 100, 200 (``RHO_SCHEDULE``); for
the exact Kottler-over-Kottler profile even that term cancels and the
samples converge at O(rho^-n).

The shape operator of the graph has one radial and n-1 equal tangential
principal curvatures,

    k_tan = V^3 f' / (rho sqrt(G)),
    k_rad = (V / sqrt(G)) [ (V^2 f'' + 2 V V' f') / G + V V' f' ],
    G     = 1 + V^4 f'^2,

and S2 = (n-1) k_rad k_tan + (n-1)(n-2)/2 k_tan^2 is half the scalar-
curvature excess R_g + n(n-1) of the induced metric.  Writing the induced
radial metric as d rho^2 / U + rho^2 ghat and U = rho^2 + kappa -
2 mtilde(rho) rho^(2-n) gives S2 = (n-1) mtilde'(rho) rho^(1-n): the
dominant energy condition S2 >= 0 is exactly a nondecreasing interior mass.
The ``mass_profile_graph`` family below exploits this to manufacture
dominant-energy scenarios with closed-form oracles.

The total-mass identity decomposes the mass as

    mass = m + 2 c_n int_M S2 <dt, xi> dV_g + c_n int_Sigma V H dmu,

where <dt, xi> = V / sqrt(1 + V^2 psi) and, for radial graphs, the product
<dt, xi> dV_g collapses to rho^(n-1) d rho d mu_ghat; the inner boundary
Sigma = {rho_inner} x N carries H = (n-1) V(rho_inner) / rho_inner.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._util import fit_log_slope, integrate_panels
from .background import (SpaceParams, _ddlam_at, _v, _v_squared_at, _v_squared_prime,
                         find_horizon, mass_from_horizon_area)
from .errors import DecayViolationError, DomainError, NonRepresentableGraphError, NumericsError

__all__ = [
    "RadialGraph",
    "MassEstimate",
    "ShapeRecord",
    "IdentityReport",
    "kottler_pair_graph",
    "mass_profile_graph",
    "mass_integrand",
    "mass_limit",
    "radial_shape_operator",
    "mass_identity_check",
    "penrose_deficit",
]

# The radii of the finite-radius mass samples that mass_limit extrapolates.
RHO_SCHEDULE = (50.0, 100.0, 200.0)


@dataclass(frozen=True, eq=False)
class RadialGraph:
    """Radial graph data over a Kottler base.

    ``psi`` is the radial metric perturbation (V f')^2 in a cancellation-free
    closed form; ``f_prime``, ``f_prime2`` and ``psi`` accept arrays of
    radii, and ``f_prime2`` is never None.
    ``psi_step`` maps an array of radii to (V^2, psi, the family's terms),
    from one rho^(2-n), and ``pointwise`` maps it to the tuple
    (V^2, (V^2)', psi, f', f''), from one ``psi_step`` call and one
    rho^(1-n) (module docstring).
    """

    base: SpaceParams
    f_prime: object
    f_prime2: object
    psi: object
    psi_step: object
    pointwise: object
    rho_inner: float
    horizon_graph: bool
    bulk_cut: float
    oracle: dict = None


def _radial_graph(params, rho_inner, horizon_graph, bulk_cut, psi_step, dlog_step,
                  oracle=None):
    """The radial graph over ``params`` with inner radius ``rho_inner``, from
    a family's two steps (module docstring):

    * ``psi_step(rho)`` = (V^2, psi, terms), the base V^2 and the family's
      own V^2 terms from one rho^(2-n);
    * ``dlog_step(rho, terms)`` = (lambda'', d log(psi V^2) / d rho), the
      base lambda'' = (V^2)' / 2 and the family's own lambda'' from one
      rho^(1-n).

    The graph's ``pointwise`` makes one call of each step and forms f' and
    f''; ``psi`` makes only the first.
    """
    def pointwise(rho):
        v2, psi, terms = psi_step(rho)
        ddlam, dlog_psi_v2 = dlog_step(rho, terms)
        dv2 = 2.0 * ddlam
        fp = np.sqrt(np.maximum(psi, 0.0) / np.maximum(v2, 1e-300))
        dlog_psi = dlog_psi_v2 - dv2 / v2
        return v2, dv2, psi, fp, fp * (0.5 * dlog_psi - 0.5 * dv2 / v2)

    def f_prime(rho):
        return pointwise(np.asarray(rho, dtype=float))[3]

    def f_prime2(rho):
        return pointwise(np.asarray(rho, dtype=float))[4]

    def psi(rho):
        return psi_step(np.asarray(rho, dtype=float))[1]

    return RadialGraph(
        base=params,
        f_prime=f_prime,
        f_prime2=f_prime2,
        psi=psi,
        psi_step=psi_step,
        pointwise=pointwise,
        rho_inner=float(rho_inner),
        horizon_graph=horizon_graph,
        bulk_cut=bulk_cut,
        oracle=oracle,
    )


def kottler_pair_graph(params, m_graph):
    """The mass-``m_graph`` Kottler space as a radial graph over ``params``,
    with (V f')^2 = 1/V_graph^2 - 1/V^2 (module docstring)."""
    if m_graph < params.m:
        raise NonRepresentableGraphError(
            f"m_graph={m_graph} < m_base={params.m}: the radicand is negative"
        )
    n, kappa, masses = params.n, params.kappa, (params.m, m_graph)
    dm = m_graph - params.m

    def psi_step(rho):  # V^2, psi, and V_graph^2 for the log-derivative
        vb2, vg2, _, _, two_q_dm = _v_squared_at(n, kappa, rho, masses, (dm,))
        return vb2, two_q_dm / (vg2 * vb2), vg2

    def dlog_step(rho, vg2):
        ddlam, ddlam_graph = _ddlam_at(n, rho, masses)
        return ddlam, (2 - n) / rho - 2.0 * ddlam_graph / vg2

    rho_start = find_horizon(replace(params, m=m_graph))
    return _radial_graph(params, rho_start, m_graph > params.m, rho_start + 20.0,
                         psi_step, dlog_step)


def mass_profile_graph(params, m_horizon, m_total, rate=1.0):
    """Dominant-energy radial graph from a nondecreasing interior mass.

    The induced radial metric is d rho^2 / U + rho^2 ghat with
    U = rho^2 + kappa - 2 mtilde(rho) rho^(2-n) and

        mtilde(rho) = m_total - (m_total - m_horizon) e^(-rate (rho - rho_inner)),

    where rho_inner is the horizon radius of the mass-``m_horizon`` Kottler
    space.  Then S2 = (n-1) mtilde' rho^(1-n) >= 0, the inner boundary is a
    horizon graph, and the total mass is exactly ``m_total``.
    """
    if not params.m < m_horizon <= m_total < math.inf:
        raise DomainError(
            f"need base m < m_horizon <= m_total < oo, got {params.m}, {m_horizon}, {m_total}"
        )
    if not (math.isfinite(rate) and rate > 0.0):  # the bulk cut-off divides by it
        raise DomainError(f"rate must be positive and finite, got {rate!r}")
    n, kappa = params.n, params.kappa
    rho_i = find_horizon(replace(params, m=m_horizon))
    dm_tot = m_total - m_horizon

    def mtilde_and_prime(rho):
        decay = np.exp(-rate * (rho - rho_i))
        return m_total - dm_tot * decay, rate * dm_tot * decay

    def psi_step(rho):  # V^2, psi, and the terms the log-derivative reuses
        mt, mt_prime = mtilde_and_prime(rho)
        dm = mt - params.m
        # U = V^2 at the mass mtilde, with 2q at dm and mtilde' from the same power
        vb2, u, _, _, two_q_dm, two_q_mt_prime = _v_squared_at(
            n, kappa, rho, (params.m, mt), (dm, mt_prime))
        return vb2, two_q_dm / (u * vb2), (mt, mt_prime, u, dm, two_q_mt_prime)

    def dlog_step(rho, terms):
        mt, mt_prime, u, dm, two_q_mt_prime = terms
        ddlam, ddlam_mt = _ddlam_at(n, rho, (params.m, mt))
        # U' = (V^2)' = 2 lambda'' at the mass mtilde, minus 2 mtilde' rho^(2-n)
        u_prime = 2.0 * ddlam_mt - two_q_mt_prime
        return ddlam, mt_prime / dm + (2 - n) / rho - u_prime / u

    return _radial_graph(
        params, rho_i, True, rho_i + max(45.0 / rate, 10.0),
        psi_step,
        dlog_step,
        oracle={
            "mtilde": lambda rho: mtilde_and_prime(rho)[0],
            "mtilde_prime": lambda rho: mtilde_and_prime(rho)[1],
            "m_total": float(m_total),
            "m_horizon": float(m_horizon),
        },
    )


# ---------------------------------------------------------------------------
# Mass integrand and limit
# ---------------------------------------------------------------------------


def mass_integrand(graph, rho):
    """Finite-radius mass m + c_n * (boundary integrand) * |N_rho|.

    The three displayed pieces are evaluated separately; the potential-
    gradient pair cancels identically for radial perturbations.  V^2 and psi
    come from one ``graph.psi_step`` call, so neither f' nor f'' is formed.
    """
    params = graph.base
    rho = float(rho)
    rho0 = find_horizon(params)
    if not max(graph.rho_inner, rho0) < rho < math.inf:
        raise DomainError(
            f"rho={rho:.6g} not finite and beyond "
            f"max(rho_inner={graph.rho_inner:.6g}, rho0={rho0:.6g})"
        )
    n = params.n
    rho_arr = np.asarray(rho)
    v2, psi, _ = graph.psi_step(rho_arr)
    v2, psi = float(v2), float(psi)
    v = math.sqrt(v2)
    dv = float(_v_squared_prime(params, rho_arr)) / (2.0 * v)
    term_div = (n - 1) * v2 * v2 * psi / rho
    term_trace = v2 * v * dv * psi
    term_grad = -(v2 * v * dv * psi)
    per_area = term_div + term_trace + term_grad
    return params.m + params.mass_constant * params.theta * rho ** (n - 1) * per_area


@dataclass(frozen=True)
class MassEstimate:
    samples: tuple
    mass: float
    error_estimate: float

    def as_dict(self):
        return asdict(self)


def mass_limit(graph):
    """Richardson extrapolation of the finite-radius mass in rho^-2, from
    samples at the radii RHO_SCHEDULE.

    The leading error of generic admissible profiles is O(rho^-2); the
    extrapolation ladder removes rho^-2, rho^-4, ... successively.  Samples
    must already be convergent: increasing |increments| raise a
    decay-violation error, as does a fitted error slope shallower than
    rho^-1.5 (checked only when the errors are above rounding).
    """
    samples = [(r, mass_integrand(graph, r)) for r in RHO_SCHEDULE]
    vals = np.array([s[1] for s in samples])
    rhos = np.array(RHO_SCHEDULE)

    scale = max(1.0, float(np.max(np.abs(vals))))
    incs = np.abs(np.diff(vals))
    if len(incs) >= 2 and incs[-1] > 2.0 * incs[0] + 1e-13 * scale:
        raise DecayViolationError(
            f"mass samples are not converging: increments {incs.tolist()}"
        )

    level_vals = vals.copy()
    level_rhos = rhos.copy()
    last_diff = 0.0
    power = 2
    while len(level_vals) > 1:
        wts = level_rhos**power
        new_vals = (wts[1:] * level_vals[1:] - wts[:-1] * level_vals[:-1]) / (wts[1:] - wts[:-1])
        last_diff = float(abs(new_vals[-1] - level_vals[-1]))
        level_vals = new_vals
        level_rhos = level_rhos[1:]
        power += 2
    mass = float(level_vals[0])

    errs = np.abs(vals - mass)
    tiny = 1e-11 * scale
    if np.all(errs[:-1] > tiny):
        slope = fit_log_slope(np.log(rhos), np.maximum(errs, 1e-300))
        if slope is not None and slope > -1.5:
            raise DecayViolationError(
                f"fitted mass-error slope {slope:.3g} is shallower than rho^-1.5; "
                "the rho^-2 extrapolation model does not apply"
            )
    error_estimate = last_diff + float(errs[-1]) * 1e-2 + 1e-13 * scale
    return MassEstimate(samples=tuple(samples), mass=mass, error_estimate=error_estimate)


# ---------------------------------------------------------------------------
# Shape operator and the mass identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeRecord:
    """Floats for a scalar radius; arrays shaped like the radii otherwise."""

    kappa_rad: float
    kappa_tan: float
    s2: float


def radial_shape_operator(graph, rho):
    """Principal curvatures (radial, tangential) and S2 of the radial graph.

    Vectorized in ``rho``: an array of radii gives a record of arrays of the
    same shape, and a scalar radius gives a record of Python floats.  Every
    radius must be finite and beyond ``rho_inner``.  V^2, (V^2)', psi, f'
    and f'' come from one ``graph.pointwise`` call.
    """
    params = graph.base
    rho = np.asarray(rho, dtype=float)
    scalar = rho.ndim == 0  # np.ndim of a float raises and catches an AttributeError
    # A NaN propagates through min and max and fails both comparisons, so it is
    # rejected with the out-of-range values; an empty array has nothing to check.
    if rho.size and not (rho.min() > graph.rho_inner and rho.max() < math.inf):
        inside = (rho > graph.rho_inner) & (rho < math.inf)
        raise DomainError(
            f"rho={float(rho[~inside][0]):.6g} not in (rho_inner={graph.rho_inner:.6g}, oo)"
        )
    n = params.n
    v2, dv2, psi, fp, fpp = graph.pointwise(rho)
    v = np.sqrt(v2)
    dv = dv2 / (2.0 * v)
    big_g = 1.0 + v2 * psi
    sqrt_g = np.sqrt(big_g)
    k_tan = v2 * v * fp / (rho * sqrt_g)
    k_rad = (v / sqrt_g) * ((v2 * fpp + 2.0 * v * dv * fp) / big_g + v * dv * fp)
    s2 = (n - 1) * k_rad * k_tan + 0.5 * (n - 1) * (n - 2) * k_tan**2
    if scalar:
        return ShapeRecord(kappa_rad=float(k_rad), kappa_tan=float(k_tan), s2=float(s2))
    return ShapeRecord(kappa_rad=k_rad, kappa_tan=k_tan, s2=s2)


def _bulk_energy_integral(graph):
    """2 c_n int_M S2 <dt, xi> dV_g by graded radial quadrature.

    Near the inner boundary the profile gradient blows up like
    (rho - rho_inner)^(-1/2); the substitution rho = rho_inner + zeta^2 keeps
    the integrand smooth (S2 stays bounded there and <dt, xi> -> 0).

    The weight <dt, xi> = V / sqrt(1 + V^2 psi) times the volume factor
    rho^(n-1) sqrt(1/V^2 + psi) is exactly rho^(n-1) (docs/derivations.md),
    so the integrand is S2 rho^(n-1).  It is vectorized: each
    ``integrate_panels`` call evaluates S2 once, on its whole
    (n_panels, order) node array.
    """
    params = graph.base
    n = params.n
    rho_i = graph.rho_inner
    two_cn_theta = 2.0 * params.mass_constant * params.theta  # = 1/(n-1)

    def integrand(rho):
        return radial_shape_operator(graph, rho).s2 * rho ** (n - 1)

    near = integrate_panels(
        lambda z: integrand(rho_i + z * z) * 2.0 * z, 0.0, 1.0, n_panels=16, order=12
    )
    total = near
    lo = rho_i + 1.0
    hi = max(graph.bulk_cut, lo + 1.0)
    for _ in range(8):
        inc = integrate_panels(
            lambda s: integrand(np.exp(s)) * np.exp(s),
            math.log(lo),
            math.log(hi),
            n_panels=24,
            order=12,
        )
        total += inc
        if abs(inc) < 1e-10 * max(1.0, abs(total)):
            return two_cn_theta * total
        lo, hi = hi, hi * 2.0
    raise NumericsError(
        f"bulk energy integral did not converge in 8 doublings past bulk_cut="
        f"{graph.bulk_cut:.6g}: last increment {inc:.6g}, running total {total:.12g}"
    )


@dataclass(frozen=True)
class IdentityReport:
    lhs_mass: float
    rhs_mass: float
    residual: float
    bulk_term: float
    boundary_term: float

    def as_dict(self):
        return asdict(self)


def mass_identity_check(graph, *, estimate=None):
    """Total mass versus base mass + interior energy + horizon flux.

    The total mass is ``mass_limit(graph)``; a caller that already holds
    that estimate passes it as ``estimate``."""
    if not graph.horizon_graph:
        raise DomainError("mass identity check needs a horizon-type inner boundary")
    params = graph.base
    n = params.n
    rho_i = graph.rho_inner
    v_i = float(_v(params, rho_i))
    h_sigma = (n - 1) * v_i / rho_i
    flux = v_i * h_sigma * rho_i ** (n - 1) * params.theta
    boundary = params.mass_constant * flux
    bulk = _bulk_energy_integral(graph)
    if estimate is None:
        estimate = mass_limit(graph)
    lhs = estimate.mass
    rhs = params.m + bulk + boundary
    return IdentityReport(
        lhs_mass=lhs,
        rhs_mass=rhs,
        residual=abs(lhs - rhs),
        bulk_term=bulk,
        boundary_term=boundary,
    )


def penrose_deficit(mass, sigma_area, params):
    """mass minus the mass of the Kottler space whose horizon has area
    ``sigma_area`` (``background.mass_from_horizon_area``)."""
    return mass - mass_from_horizon_area(sigma_area, n=params.n, kappa=params.kappa,
                                         theta=params.theta)
