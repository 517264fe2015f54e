"""Benchmark workloads: inputs drawn from the seed, operations, and their gates.

An operation is one flow or one graph.  Every gate uses the acceptance
suite's tolerance and is computed here from the operation's outputs, so a
monitor that stops evaluating cannot turn into a pass.  kflow is always
called through module attributes (``F.run_flow``, ``M.mass_limit``, ...)
so that the traced run sees the same calls through its wrappers.
"""

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import kflow.background as B
import kflow.basegrid as G
import kflow.flow as F
import kflow.mass as M
import kflow.plots as P
import kflow.surface as S

DT_MAX = 0.005
RECORD_INTERVAL = 0.25
# Graphs per (n, kappa, family) cell of the mass sweep.
GRAPHS_PER_CELL = 6


@dataclass(frozen=True)
class FlowSpec:
    name: str
    n: int
    kappa: int
    m: float
    theta: float
    mode: str
    resolution: int
    t_end: float
    base_lambda: float = None
    amplitude: float = 0.0
    surface_seed: int = 0
    slice_lambda: float = None

    @property
    def perturbed(self):
        return self.slice_lambda is None


@dataclass(frozen=True)
class GraphSpec:
    name: str
    n: int
    kappa: int
    m_base: float
    theta: float
    family: str
    m_graph: float = None
    m_horizon: float = None
    m_total: float = None
    rate: float = None

    @property
    def oracle_mass(self):
        return self.m_graph if self.family == "kottler_pair" else self.m_total


@dataclass
class OpResult:
    name: str
    error: str = None
    gates: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.error is None and bool(self.gates) and all(self.gates.values())

    def as_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "error": self.error,
            "gates": self.gates,
            "figures": self.figures,
            "digests": self.digests,
            "counts": self.counts,
        }


# ---------------------------------------------------------------------------
# Inputs from the seed
# ---------------------------------------------------------------------------

TORUS_THETA = (2.0 * math.pi) ** 2
FOUR_PI = 4.0 * math.pi


def torus_flow_specs(rng):
    """The shipped perturbed-flow run on the 64^2 flat torus, seeded surface."""
    return [
        FlowSpec("torus", 3, 0, 0.5, TORUS_THETA, "torus2d", 64, 10.0,
                 base_lambda=2.0, amplitude=0.05, surface_seed=rng.randrange(2**31)),
    ]


def small_fiber_specs(rng):
    """Axisymmetric round-sphere flows (n = 3, 4) plus the shipped kappa=-1 slice flow."""
    specs = [
        FlowSpec(f"sphere-n{n}", n, 1, 1.0, G.sphere_area(n - 1), "sphere_axisym", 64, 10.0,
                 base_lambda=3.0, amplitude=0.05, surface_seed=rng.randrange(2**31))
        for n in (3, 4)
    ]
    specs.append(
        FlowSpec("symmetric", 3, -1, 0.5, FOUR_PI, "symmetric", 1, 5.0, slice_lambda=2.0)
    )
    return specs


def _latin_hypercube(rng, k, dims):
    """k points in [0, 1)^dims, one in each of the k strata of every axis."""
    axes = []
    for _ in range(dims):
        strata = list(range(k))
        rng.shuffle(strata)
        axes.append([(j + rng.random()) / k for j in strata])
    return list(zip(*axes))


def mass_sweep_specs(rng, per_cell=GRAPHS_PER_CELL):
    """Stratified radial graphs over n in {3,4,5}, kappa in {-1,0,+1}.

    Base masses are those of acceptance criteria 8-10 (0.5, or 0 for
    kappa = -1).  Kottler pairs draw m_graph from [0.6, 1.2]; dominant-energy
    profiles draw m_horizon - m_base from [0.05, 0.3], m_total - m_horizon
    from [0.25, 0.4] and the rate from [0.7, 2.0].  Each cell's parameters
    form a Latin hypercube, so the sweep covers every range evenly whatever
    the seed and its mean accuracy barely moves from seed to seed.
    """
    specs = []
    for n in (3, 4, 5):
        for kappa in (-1, 0, 1):
            m_base = 0.0 if kappa == -1 else 0.5
            cell = f"n{n}-k{kappa:+d}"
            for j, (u,) in enumerate(_latin_hypercube(rng, per_cell, 1)):
                specs.append(GraphSpec(f"pair-{cell}-{j}", n, kappa, m_base, FOUR_PI,
                                       "kottler_pair", m_graph=0.6 + 0.6 * u))
            for j, (u, v, w) in enumerate(_latin_hypercube(rng, per_cell, 3)):
                m_h = m_base + 0.05 + 0.25 * u
                specs.append(GraphSpec(f"profile-{cell}-{j}", n, kappa, m_base, FOUR_PI,
                                       "mass_profile", m_horizon=m_h,
                                       m_total=m_h + 0.25 + 0.15 * v, rate=0.7 + 1.3 * w))
    return specs


# Calibration kernel per workload, timed around every solution to measure
# the host's current speed: (array length, scalar operations per step, steps,
# its median seconds at the reference speed, on a 2-vCPU 2.1 GHz Intel Xeon
# VM with Python 3.11.7 and numpy 2.4.6).  Each resembles its workload's
# work: whole-grid numpy arithmetic for the torus; small arrays and scalar
# float math for the small fibers and the mass layer.
CALIBRATION = {
    "torus-flow": (4096, 0, 1000, 0.020),
    "small-fiber-flow": (512, 20, 1500, 0.019),
    "mass-sweep": (512, 20, 1500, 0.019),
}

WORKLOADS = {
    "torus-flow": torus_flow_specs,
    "small-fiber-flow": small_fiber_specs,
    "mass-sweep": mass_sweep_specs,
}


def make_specs(workload, seed):
    return WORKLOADS[workload](random.Random(seed))


# ---------------------------------------------------------------------------
# Set-up: warp tables, grids, r_from_rho, initial surfaces, radial graphs
# ---------------------------------------------------------------------------


def setup(spec):
    if isinstance(spec, GraphSpec):
        params = B.SpaceParams(spec.n, spec.kappa, spec.m_base, spec.theta)
        if spec.family == "kottler_pair":
            return M.kottler_pair_graph(params, spec.m_graph)
        return M.mass_profile_graph(params, spec.m_horizon, spec.m_total, rate=spec.rate)
    params = B.SpaceParams(spec.n, spec.kappa, spec.m, spec.theta)
    warp = B.build_warp_table(params)
    if spec.mode == "torus2d":
        grid = G.make_grid(spec.mode, spec.resolution, math.sqrt(spec.theta))
    elif spec.mode == "sphere_axisym":
        grid = G.make_grid(spec.mode, spec.resolution, n=spec.n)
    else:
        grid = G.make_grid(spec.mode, spec.resolution, spec.theta, n=spec.n, kappa=spec.kappa)
    if not spec.perturbed:
        return S.slice_surface(grid, warp, lam_value=spec.slice_lambda)
    base_r = warp.r_from_rho(spec.base_lambda)
    return S.random_star_shaped(grid, warp, seed=spec.surface_seed, amplitude=spec.amplitude,
                                base_r=base_r)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def solve(spec, inputs, out_root, tracer):
    if isinstance(spec, GraphSpec):
        return _solve_graph(spec, inputs, tracer)
    return _solve_flow(spec, inputs, os.path.join(out_root, spec.name), tracer)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _bools(gates):
    return {name: bool(ok) for name, ok in gates.items()}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def dt_bound_counts(dt_history, config):
    """Classify each accepted step by the bound that set it.

    Mirrors run_flow's choice dt = min(dt_max, cfl, t_next - t): a step
    equal to dt_max up to rounding is dt_max-bound even when the record
    boundary coincides; a step cut short by the boundary is record-bound;
    anything smaller is CFL-bound (or halved after a rejection).
    """
    counts = {"cfl": 0, "dt_max": 0, "record": 0}
    t, k_rec = 0.0, 1
    eps = 1e-12 * max(1.0, config.t_end)
    for dt in dt_history:
        t_next = min(k_rec * config.record_interval, config.t_end)
        if dt >= config.dt_max * (1.0 - 1e-9):
            counts["dt_max"] += 1
        elif abs(dt - (t_next - t)) <= 1e-9 * config.dt_max:
            counts["record"] += 1
        else:
            counts["cfl"] += 1
        t += dt
        if t >= t_next - eps:
            k_rec += 1
    return counts


def _solve_flow(spec, surface, out_dir, tracer):
    config = F.FlowConfig(t_end=spec.t_end, dt_max=DT_MAX, record_interval=RECORD_INTERVAL)
    trace = F.run_flow(surface, config)
    report = F.monotonicity_report(trace)

    n = spec.n
    t = trace.times()
    area = trace.column("area")
    q1 = trace.column("Q1")
    q1_tol = 1e-7 * abs(q1[0]) + 1e-9
    q1_jump = float(np.max(np.diff(q1))) if len(q1) > 1 else 0.0
    final_bound = (n - 1) * spec.kappa * spec.theta ** (1.0 / (n - 1))
    last = trace.samples[-1]
    h_gap = max(abs(last.h_max - (n - 1)), abs(last.h_min - (n - 1)))
    spacing = np.diff(t)
    # The d/dt int p balance is only evaluated on >= 5 uniformly spaced samples.
    p_evaluated = len(t) >= 5 and bool(
        np.allclose(spacing, spacing[0], rtol=1e-8, atol=1e-12)
    )
    figures = {
        "area_law_residual": float(np.max(np.abs(np.log(area / area[0]) - t))),
        "q1_jump_over_tol": q1_jump / q1_tol,
        "barrier_margin": min(report.barrier_lower_margin, report.barrier_upper_margin),
        "final_bound_slack": float(q1[-1] - final_bound),
        "p_balance_max_rel": report.p_balance_max_rel,
        "h_final_gap": float(h_gap),
    }
    gates = {
        "area_law": figures["area_law_residual"] <= 1e-5,
        "q1_monotone": q1_jump <= q1_tol,
        "barrier": figures["barrier_margin"] >= -1e-6,
        "final_bound": figures["final_bound_slack"] >= -1e-6,
        "p_balance": p_evaluated and report.p_balance_max_rel <= 1e-2,
    }
    if spec.perturbed:
        gates["h_limit"] = h_gap <= 1e-3
    figures["headline_over_gate"] = figures["area_law_residual"] / 1e-5

    with tracer.span("flow.artifact_write"):
        os.makedirs(out_dir, exist_ok=True)
        trace.to_csv(os.path.join(out_dir, "trace.csv"))
        _write_json(os.path.join(out_dir, "trace.json"), trace.as_dict())
        payload = report.as_dict()
        payload["checks"] = gates
        payload["passed_enabled_checks"] = all(gates.values())
        _write_json(os.path.join(out_dir, "report.json"), payload)
    P.emit_plots(trace, os.path.join(out_dir, "plots"))

    counts = {
        "steps_accepted": len(trace.dt_history),
        "steps_rejected": trace.rejected_steps,
        "nodes": int(surface.u.values.size),
    }
    bounds = dt_bound_counts(trace.dt_history, config)
    counts.update({f"dt_bound.{k}": v for k, v in bounds.items()})
    digests = {
        name: _sha256(os.path.join(out_dir, name))
        for name in ("trace.csv", "trace.json", "report.json")
    }
    return OpResult(spec.name, gates=_bools(gates), figures=figures, digests=digests,
                    counts=counts)


def _solve_graph(spec, graph, tracer):
    params = graph.base
    est = M.mass_limit(graph)
    identity = M.mass_identity_check(graph)
    with tracer.span("mass.s2_probe"):
        probe = np.linspace(graph.rho_inner + 1e-4, graph.rho_inner + 20.0, 60)
        s2_min = min(M.radial_shape_operator(graph, float(r)).s2 for r in probe)
    sigma_area = graph.rho_inner ** (params.n - 1) * params.theta
    deficit = M.penrose_deficit(est.mass, sigma_area, params)

    identity_over_gate = identity.residual / (1e-5 * max(1.0, abs(identity.lhs_mass)))
    figures = {
        "mass_identity_residual": identity_over_gate,
        "mass_error": abs(est.mass - spec.oracle_mass),
        "penrose_deficit": deficit,
        "s2_min": s2_min,
        "headline_over_gate": identity_over_gate,
    }
    gates = {
        "mass_identity": identity_over_gate <= 1.0,
        "mass_value": figures["mass_error"] <= 1e-6,
        "s2_nonneg": s2_min >= -1e-9,
    }
    if spec.family == "kottler_pair":
        gates["penrose_equality"] = abs(deficit) <= 1e-6
    else:
        gates["penrose"] = deficit >= -1e-6
    digest = hashlib.sha256(repr((est.mass, identity.residual)).encode()).hexdigest()
    return OpResult(spec.name, gates=_bools(gates), figures=figures,
                    digests={"mass,residual": digest})
