"""Explicit time integration of the inverse mean curvature flow of graphs.

The graph height evolves under du/dt = v/H.  The state integrated is
s = log lambda(u), which evolves under ds/dt = v lambda' / (lambda H) =
W^2 / D (``kflow.surface``), so a step makes no warp-table search, takes no
square root and divides by V nowhere.  For slice data ds/dt = 1/(n-1) is
constant, i.e. lambda(u(t)) = lambda(u(0)) e^(t/(n-1)), which the scheme
below integrates exactly up to rounding; the area obeys
|Sigma_t| = e^t |Sigma_0|.

Scheme: explicit midpoint (RK2) in s with an adaptive step bounded by

    dt <= CFL_SAFETY * dx^2 * min_nodes (v^2 lambda^2 H^2) / (2 e_max),

where v lambda H = D / (V W), so v^2 lambda^2 H^2 = D^2 / (V^2 W^2), and
e_max is the largest eigenvalue of gtil^ij, the coefficient matrix of phi_ij
in the quasilinear graph equation (its eigenvalues are 1 and 1/v^2 in
orthonormal fiber coordinates, so e_max = 1; s is a pointwise function of u,
so the bound is the same in s as in u), CFL_SAFETY = 0.2, and additionally
by ``dt_max``, a configured cap on the step.  The parabolic bound grows like
e^(2t/(n-1)), but the area law does not need the cap: uncapped, a perturbed
64^2 torus flow keeps an area-law residual of 3.9e-8 (1e-5 gate).  Steps whose
candidate update loses mean convexity, finiteness or the tabulated range are
rejected and retried at dt/2.  An accepted step whose min H is at or below
the floor H_FLOOR (n-1) = 1e-4 (n-1) ends the run as a breakdown.

Each step takes dt = min(dt_max, stable_dt, t_next - t), with t_next the
next record time.  Since v >= 1 (W >= V^2 holds exactly in floating point),
CFL_SAFETY dx^2 m^2 / 2 bounds stable_dt from below up to rounding, for m
both min(lambda H) and min lambda min H.  min lambda H is bounded below
without H, by min D / (max W)^(3/2) shrunk by 1e-9 relative (the
geometry's ``lam_h_bound``; min D is formed by the mean-convexity test),
and over lambda_max (formed by the range check) that bounds min H.  The
pre-test and the floor test try this bound first, and form H (one square
root, three products and a min) only where it fails; records form H
anyway.  While a bound exceeds dt_max (1 + 1e-9), stable_dt cannot bind
and is not formed; otherwise it is formed, so the step sequence is the
same as if it were formed on every step.
The trace counts the steps set by each bound (``dt_bounds``: a step equal to
dt_max up to rounding counts as dt_max even when the record time coincides)
and the times stable_dt was formed (``stable_dt_evals``); neither enters
``as_dict()``.

Each RK2 stage builds its surface with ``GraphSurface.from_log_lambda``,
whose one check is the range of lambda = e^s: a stage's grid and warp are
its parent's, and the range check already rejects NaN and +-inf in s.  Its
geometry forms V^2, W and D and tests D > 0 and V^2 > 0; the midpoint stage
then forms only its speed W^2 / D.

A run records, at fixed intervals, the aggregate functional record plus
extrema (H, |grad phi|, u, lambda(u)) and step diagnostics; the u extrema
are r(lambda) of the lambda extrema, through the inverse table.  The monitor
report forms the figures that the check table (``kflow.checks``) judges: the
largest rise of the normalized mean-curvature-excess functional Q1 between
samples; the slice barriers lambda(u_min(t)) >= e^(t/(n-1)) lambda(u_min(0))
(and the reverse bound for the max); the exponential area law; the balance
d/dt int p = n int V/H; the largest rise of Q2 over record pairs with
J <= K, which is not evaluated when no record pair lies in J <= K; and the
terminal lower bound Q1(t_end) >= (n-1) kappa theta^(1/(n-1)).  J - K is
always reported as a signed diagnostic, never asserted.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import fit_log_slope
from .basegrid import sharp_constant
from .errors import DomainError, FlowBreakdownError, MeanConvexityError
from .surface import GraphSurface, compute_geometry

__all__ = [
    "FlowConfig",
    "FlowSample",
    "FlowTrace",
    "MonotonicityReport",
    "CSV_COLUMNS",
    "flow_step",
    "stable_dt",
    "run_flow",
    "monotonicity_report",
]

CSV_COLUMNS = (
    "t",
    "area",
    "intVH",
    "intP",
    "J",
    "K",
    "Q1",
    "Q2",
    "Hmin",
    "Hmax",
    "grad_sup",
    "umin",
    "umax",
    "dt",
)


# The safety factor of the parabolic step bound, and the mean-curvature floor
# in units of n-1, the limit of H on large slices (module docstring).
CFL_SAFETY = 0.2
H_FLOOR = 1e-4


@dataclass(frozen=True)
class FlowConfig:
    t_end: float
    dt_max: float = 0.005
    record_interval: float = 0.25

    def __post_init__(self):
        for name in ("t_end", "dt_max", "record_interval"):
            value = getattr(self, name)
            # NaN fails every comparison, so test finiteness explicitly.
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class FlowSample:
    t: float
    functionals: object
    h_min: float
    h_max: float
    grad_sup: float
    u_min: float
    u_max: float
    lam_umin: float
    lam_umax: float
    dt: float

    def row(self):
        f = self.functionals
        return [
            self.t,
            f.area,
            f.intVH,
            f.intP,
            f.J,
            f.K,
            f.Q1,
            f.Q2,
            self.h_min,
            self.h_max,
            self.grad_sup,
            self.u_min,
            self.u_max,
            self.dt,
        ]


@dataclass
class FlowTrace:
    params: object
    config: FlowConfig
    samples: list = field(default_factory=list)
    dt_history: list = field(default_factory=list)
    rejected_steps: int = 0
    breakdown: dict = None
    # Diagnostics kept out of as_dict(): how many accepted steps each bound
    # set, and how many times stable_dt was formed.
    dt_bounds: dict = field(default_factory=lambda: {"cfl": 0, "dt_max": 0, "record": 0})
    stable_dt_evals: int = 0

    def column(self, name):
        idx = CSV_COLUMNS.index(name)
        return np.array([s.row()[idx] for s in self.samples])

    def times(self):
        return np.array([s.t for s in self.samples])

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for s in self.samples:
                fh.write(",".join(repr(float(x)) for x in s.row()) + "\n")

    def as_dict(self):
        return {
            "columns": list(CSV_COLUMNS),
            "samples": [[float(x) for x in s.row()] for s in self.samples],
            "extra": {
                "intVoverH": [s.functionals.intVoverH for s in self.samples],
                "lam_umin": [s.lam_umin for s in self.samples],
                "lam_umax": [s.lam_umax for s in self.samples],
            },
            "rejected_steps": self.rejected_steps,
            "n_steps": len(self.dt_history),
            "breakdown": self.breakdown,
            "config": asdict(self.config),
        }


def _sample(t, geom, dt):
    # u is increasing in lambda, so its extrema are r(lambda_min), r(lambda_max).
    surface = geom.surface
    lam_min, lam_max = float(surface.lam_min), float(surface.lam_max)
    u_min, u_max = surface.warp.r_from_rho(np.array([lam_min, lam_max]))
    return FlowSample(
        t=float(t),
        functionals=geom.functionals,
        h_min=geom.h_min,
        h_max=float(geom.H.max()),
        grad_sup=float(np.sqrt(geom.grad_phi_sq.max())),
        u_min=float(u_min),
        u_max=float(u_max),
        lam_umin=lam_min,
        lam_umax=lam_max,
        dt=float(dt),
    )


def _dt_bound(dt, dt_max, to_record):
    """The bound that set an accepted step: a step equal to dt_max up to
    rounding is dt_max-bound even when the record boundary coincides; a step
    cut short by the boundary is record-bound; anything smaller is CFL-bound
    (or halved after a rejection)."""
    if dt >= dt_max * (1.0 - 1e-9):
        return "dt_max"
    if abs(dt - to_record) <= 1e-9 * dt_max:
        return "record"
    return "cfl"


def stable_dt(geom):
    """Parabolic step bound CFL_SAFETY dx^2 min(v^2 lambda^2 H^2) / 2, with
    v^2 lambda^2 H^2 = D^2 / (V^2 W^2); the fiber-stencil eigenvalue bound
    e_max is 1."""
    grid = geom.surface.grid
    if not math.isfinite(grid.dx_min):
        return math.inf
    coeff = geom.D / geom.W
    coeff *= coeff
    coeff /= geom.dlam_sq
    return CFL_SAFETY * grid.dx_min**2 * float(coeff.min()) / 2.0


def flow_step(surface, geometry, dt):
    """One explicit-midpoint update of s = log lambda(u) under
    ds/dt = v lambda' / (lambda H) = W^2 / D.

    Returns ``(surface, geometry)`` at t + dt; dt = 0 returns the inputs
    unchanged.  Raises DomainError or MeanConvexityError when the step leaves
    the tabulated range, loses finiteness or loses mean convexity.
    """
    if dt == 0.0:
        return surface, geometry
    grid, warp = surface.grid, surface.warp
    s = surface.s.values
    half = GraphSurface.from_log_lambda(s + 0.5 * dt * geometry.speed, grid, warp)
    geom_half = compute_geometry(half)
    new = GraphSurface.from_log_lambda(s + dt * geom_half.speed, grid, warp)
    return new, compute_geometry(new)


def run_flow(surface0, config):
    """Integrate to t_end, recording every record_interval.

    Raises FlowBreakdownError (carrying the partial trace and last surface)
    if the mean-curvature floor is tripped; in the continuum H stays bounded
    below, so tripping the floor indicates a discretization failure.
    """
    geom = compute_geometry(surface0)
    params = surface0.warp.params
    h_floor = H_FLOOR * (params.n - 1)
    trace = FlowTrace(params=params, config=config)
    trace.samples.append(_sample(0.0, geom, 0.0))

    # v >= 1, so cfl_scale (min lambda H)^2, and below it cfl_scale (min lambda
    # min H)^2, bound stable_dt from below; while either clears dt_max (with a
    # margin for rounding) stable_dt cannot bind.  min lambda H is bounded below
    # without H (lam_h_bound), so H is formed only where that bound fails.
    cfl_scale = CFL_SAFETY * surface0.grid.dx_min**2 / 2.0
    dt_max_margin = config.dt_max * (1.0 + 1e-9)
    surface = surface0
    t = 0.0
    k_rec = 1
    eps = 1e-12 * max(1.0, config.t_end)
    while t < config.t_end - eps:
        t_next = min(k_rec * config.record_interval, config.t_end)
        dt = min(config.dt_max, t_next - t)
        if (not cfl_scale * geom.lam_h_bound**2 > dt_max_margin
                and not cfl_scale * (surface.lam_min * geom.h_min) ** 2 > dt_max_margin):
            dt = min(dt, stable_dt(geom))
            trace.stable_dt_evals += 1
        while True:
            try:
                surface_new, geom_new = flow_step(surface, geom, dt)
                break
            except (DomainError, MeanConvexityError) as exc:
                trace.rejected_steps += 1
                dt *= 0.5
                if dt < 1e-13:
                    trace.breakdown = {"t": t, "reason": f"step rejection cascade: {exc}"}
                    raise FlowBreakdownError(
                        f"flow breakdown at t={t:.6g}: {exc}", trace=trace, surface=surface
                    ) from exc
        surface, geom = surface_new, geom_new
        trace.dt_bounds[_dt_bound(dt, config.dt_max, t_next - t)] += 1
        t += dt
        trace.dt_history.append(dt)
        if not geom.lam_h_bound / surface.lam_max > h_floor and geom.h_min <= h_floor:
            trace.breakdown = {
                "t": t,
                "reason": f"H_min={geom.h_min:.6g} at/below floor {h_floor:.6g}",
            }
            trace.samples.append(_sample(t, geom, dt))
            raise FlowBreakdownError(
                f"flow breakdown at t={t:.6g}: H reached the floor", trace=trace, surface=surface
            )
        if t >= t_next - eps:
            trace.samples.append(_sample(t, geom, dt))
            k_rec += 1
    return trace


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------


# sup |grad phi| at or below this is rounding noise (a slice reads ~1e-16).
GRAD_FLOOR = 1e-10


def _fd_derivative(values, dt):
    """First derivative of a uniformly sampled series, 4th order inside."""
    v = np.asarray(values, dtype=float)
    out = np.full_like(v, np.nan)
    if len(v) >= 5:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * dt)
    return out


@dataclass(frozen=True)
class MonotonicityReport:
    """Figures of the flow monitors; ``kflow.checks`` judges them.  A figure
    that could not be formed is NaN, and ``not_evaluated`` gives the reason."""

    n: int
    q1_initial: float
    q1_max_jump: float
    q1_worst_interval: tuple
    q1_drift: float
    barrier_lower_margin: float
    barrier_upper_margin: float
    area_law_residual: float
    p_balance_max_rel: float
    q2_initial: float
    q2_max_jump: float
    q2_samples_in_regime: int
    q2_worst_interval: tuple
    q1_final: float
    q1_final_bound: float
    j_minus_k_max: float
    j_minus_k_final: float
    h_final_gap: float
    grad_decay_rate: float
    not_evaluated: dict

    def as_dict(self):
        """The figures as JSON values: NaN as None, intervals as lists."""
        return {
            key: None if isinstance(value, float) and math.isnan(value)
            else list(value) if isinstance(value, tuple) else value
            for key, value in vars(self).items()
        }


def monotonicity_report(trace):
    """Form the flow monitors' figures on a recorded trace.

    The p balance is formed only on >= 5 uniformly spaced samples.  The decay
    rate of sup |grad phi| is fitted only to late samples (t >= 0.6 t_end)
    above the rounding floor GRAD_FLOOR, and needs 3 of them.  Q2's largest
    rise is taken over the record pairs in the regime J <= K only.
    """
    if not trace.samples:
        raise DomainError("monotonicity_report: empty trace")
    params = trace.params
    n = params.n
    t = trace.times()
    q1 = trace.column("Q1")
    q2 = trace.column("Q2")
    area = trace.column("area")
    intp = trace.column("intP")
    jcol = trace.column("J")
    kcol = trace.column("K")
    ivh = np.array([s.functionals.intVoverH for s in trace.samples])
    lam_lo = np.array([s.lam_umin for s in trace.samples])
    lam_hi = np.array([s.lam_umax for s in trace.samples])
    not_evaluated = {}

    jumps = np.diff(q1)
    if len(jumps):
        worst = int(np.argmax(jumps))
        q1_max_jump = float(jumps[worst])
        q1_interval = (float(t[worst]), float(t[worst + 1]))
    else:
        q1_max_jump, q1_interval = 0.0, (float(t[0]), float(t[0]))

    growth = np.exp(t / (n - 1))
    lower_ref = growth * lam_lo[0]
    upper_ref = growth * lam_hi[0]
    low_margin = float(np.min((lam_lo - lower_ref) / lower_ref))
    up_margin = float(np.min((upper_ref - lam_hi) / upper_ref))

    area_resid = float(np.max(np.abs(np.log(area / area[0]) - t)))

    # The balance needs a 4th-order difference, so >= 5 uniform samples.
    p_max = math.nan
    if len(t) < 5:
        not_evaluated["p_balance_max_rel"] = f"needs at least 5 samples, the trace has {len(t)}"
    elif not np.allclose(np.diff(t), t[1] - t[0], rtol=1e-8, atol=1e-12):
        not_evaluated["p_balance_max_rel"] = ("needs uniformly spaced samples, "
                                              "the trace's spacing varies")
    else:
        dintp = _fd_derivative(intp, float(t[1] - t[0]))
        target = n * ivh
        inner = slice(2, len(t) - 2)
        rel = np.abs(dintp[inner] - target[inner]) / np.maximum(np.abs(target[inner]), 1e-300)
        p_max = float(np.max(rel))

    jk_scale = np.maximum(np.maximum(np.abs(jcol), np.abs(kcol)), 1.0)
    in_regime = jcol <= kcol + 1e-12 * jk_scale
    q2_max_jump = 0.0
    q2_interval = (float(t[0]), float(t[0]))
    pairs = 0
    for k in range(len(t) - 1):
        if in_regime[k] and in_regime[k + 1]:
            pairs += 1
            jump = float(q2[k + 1] - q2[k])
            if jump > q2_max_jump:
                q2_max_jump = jump
                q2_interval = (float(t[k]), float(t[k + 1]))

    h_gap = max(abs(trace.samples[-1].h_max - (n - 1)), abs(trace.samples[-1].h_min - (n - 1)))

    # On a slice sup |grad phi| is rounding noise, and a rate fitted to it
    # means nothing, so only samples above the floor count.
    grad = trace.column("grad_sup")
    fitted = (t >= 0.6 * t[-1]) & (grad > GRAD_FLOOR)
    rate = math.nan
    if np.count_nonzero(fitted) < 3:
        not_evaluated["grad_decay_rate"] = (
            f"needs at least 3 late samples with grad_sup > {GRAD_FLOOR:g}, "
            f"the trace has {np.count_nonzero(fitted)}")
    else:
        rate = fit_log_slope(t[fitted], grad[fitted])

    return MonotonicityReport(
        n=n,
        q1_initial=float(q1[0]),
        q1_max_jump=q1_max_jump,
        q1_worst_interval=q1_interval,
        q1_drift=float(np.max(np.abs(q1 - q1[0]))),
        barrier_lower_margin=low_margin,
        barrier_upper_margin=up_margin,
        area_law_residual=area_resid,
        p_balance_max_rel=p_max,
        q2_initial=float(q2[0]),
        q2_max_jump=q2_max_jump,
        q2_samples_in_regime=pairs,
        q2_worst_interval=q2_interval,
        q1_final=float(q1[-1]),
        q1_final_bound=float(sharp_constant(n, params.kappa, params.theta)),
        j_minus_k_max=float(np.max(jcol - kcol)),
        j_minus_k_final=float(jcol[-1] - kcol[-1]),
        h_final_gap=float(h_gap),
        grad_decay_rate=rate,
        not_evaluated=not_evaluated,
    )
