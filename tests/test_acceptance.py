"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy flow runs are shared across criteria through module-scoped fixtures;
each test prints a single [criterion NN] PASS line with its wall time.
"""

import math
import time

import numpy as np
import pytest

import kflow as kf
from kflow.basegrid import ScalarField, beckner_report, low_frequency_field
from kflow.checks import judge

TORUS_THETA = (2.0 * math.pi) ** 2
FLOW_SEEDS = (7, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109)


def _report(number, elapsed, detail):
    print(f"[criterion {number:02d}] PASS ({elapsed:.2f} s) {detail}")


@pytest.fixture(scope="module")
def flat_setup():
    params = kf.SpaceParams(3, 0, 0.5, TORUS_THETA)
    warp = kf.build_warp_table(params)
    grid = kf.make_grid("torus2d", 64, math.sqrt(params.theta))
    return params, warp, grid


@pytest.fixture(scope="module")
def flow_runs(flat_setup):
    """Criterion-4/5/6/7 runs: the reference perturbed run plus 10 seeds."""
    params, warp, grid = flat_setup
    base_r = warp.r_from_rho(2.0)
    runs = {}
    t0 = time.perf_counter()
    for seed in FLOW_SEEDS:
        surf = kf.random_star_shaped(grid, warp, seed=seed, amplitude=0.05, base_r=base_r)
        t_run = time.perf_counter()
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=10.0, dt_max=0.005))
        report = kf.monotonicity_report(trace)
        checks, _ = judge("flow", report.as_dict())
        runs[seed] = (trace, report, checks, time.perf_counter() - t_run)
    total = time.perf_counter() - t0
    return {"runs": runs, "total_time": total}


def test_criterion_01_horizon_mass_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        kappa = int(rng.integers(-1, 2))
        if kappa >= 0:
            m = float(rng.uniform(0.05, 20.0))
        else:
            m = float(rng.uniform(0.9 * kf.critical_mass(n), 20.0))
        theta = float(rng.uniform(0.5, 50.0))
        p = kf.SpaceParams(n, kappa, m, theta)
        area = kf.find_horizon(p) ** (n - 1) * theta
        got = kf.mass_from_horizon_area(area, n=n, kappa=kappa, theta=theta)
        worst = max(worst, abs(got - m) / max(1.0, abs(m)))
        assert abs(got - m) <= 1e-10 * max(1.0, abs(m))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, f"50 round trips, worst relative error {worst:.2e}")


def test_criterion_02_warp_identity():
    t0 = time.perf_counter()
    cases = [
        (3, 0, 0.5), (3, 1, 1.0), (3, -1, 0.5), (3, -1, -0.15),
        (4, 0, 1.0), (4, 1, 0.7), (4, -1, -0.1),
        (5, 0, 0.25), (5, 1, 2.0), (5, -1, 0.3),
    ]
    worst_id, worst_cx = 0.0, 0.0
    for n, kappa, m in cases:
        w = kf.build_warp_table(kf.SpaceParams(n, kappa, m, 4 * math.pi), r_max=25.0)
        res = w.identity_residual()
        cx = w.convexity_margin()
        worst_id = max(worst_id, res)
        worst_cx = min(worst_cx, cx) if worst_cx else cx
        assert res < 1e-10
        assert cx >= -1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, elapsed, f"10 backgrounds, worst identity {worst_id:.2e}")


def test_criterion_03_slice_equality_suite():
    t0 = time.perf_counter()
    setups = [
        (kf.SpaceParams(3, 0, 0.5, TORUS_THETA), "torus2d", 64),
        (kf.SpaceParams(3, -1, 0.5, 4 * math.pi), "symmetric", 1),
        (kf.SpaceParams(3, 1, 1.0, 4 * math.pi), "sphere_axisym", 64),
    ]
    worst = 0.0
    for params, mode, res in setups:
        warp = kf.build_warp_table(params)
        if mode == "torus2d":
            grid = kf.make_grid(mode, res, math.sqrt(params.theta))
        elif mode == "sphere_axisym":
            grid = kf.make_grid(mode, res)
        else:
            grid = kf.make_grid(mode, res, params.theta, kappa=params.kappa)
        for lam in (1.5, 2.0, 4.0):
            geom = kf.compute_geometry(kf.slice_surface(grid, warp, lam_value=lam))
            scale = kf.deficit_scale(geom)
            for fn in (
                kf.weighted_volume_deficit,
                kf.minkowski_deficit,
                kf.heintze_karcher_deficit,
                kf.divergence_identity_residual,
            ):
                rel = abs(fn(geom)) / scale
                worst = max(worst, rel)
                assert rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, elapsed, f"9 slices x 4 identities, worst {worst:.2e} of scale")


def test_criterion_04_flow_area_law(flow_runs):
    trace, report, _, run_time = flow_runs["runs"][7]
    assert run_time <= 300.0
    assert report.area_law_residual <= 1e-5
    _report(4, run_time, f"area-law residual {report.area_law_residual:.2e} (tol 1e-5)")


def test_criterion_05_q1_monotonicity(flow_runs):
    total = flow_runs["total_time"]
    assert total <= 1800.0
    worst_jump_rel, worst_final = -math.inf, math.inf
    for seed, (trace, report, checks, _) in flow_runs["runs"].items():
        q1 = checks["q1_monotone"]
        assert q1["evaluated"] and q1["ok"], f"seed {seed}: {q1}"
        assert checks["final_bound"]["ok"], f"seed {seed}: final Q1 {report.q1_final}"
        worst_jump_rel = max(worst_jump_rel, q1["value"] / q1["tolerance"])
        worst_final = min(worst_final, report.q1_final - report.q1_final_bound)
    _report(
        5,
        total,
        f"11 runs, worst jump {worst_jump_rel:.2f} of tolerance, "
        f"min final-bound slack {worst_final:.2e}",
    )


def test_criterion_06_h_convergence_and_gradient_decay(flow_runs):
    t0 = time.perf_counter()
    worst_gap, worst_rate = 0.0, 0.0
    for seed, (trace, report, _, _) in flow_runs["runs"].items():
        assert report.h_final_gap <= 1e-3, f"seed {seed}: H gap {report.h_final_gap}"
        rate = report.grad_decay_rate
        assert not math.isnan(rate), f"seed {seed}: no gradient decay fit"
        assert abs(rate - (-0.5)) <= 0.1, f"seed {seed}: rate {rate}"
        worst_gap = max(worst_gap, report.h_final_gap)
        worst_rate = max(worst_rate, abs(rate + 0.5))
    _report(
        6,
        time.perf_counter() - t0,
        f"max |H-2| = {worst_gap:.2e} (tol 1e-3), max rate offset {worst_rate:.3f} (tol 0.1)",
    )


def test_criterion_07_slice_barrier(flow_runs):
    t0 = time.perf_counter()
    worst = 0.0
    for seed, (trace, report, checks, _) in flow_runs["runs"].items():
        assert checks["barrier"]["ok"], f"seed {seed}"
        worst = min(worst, report.barrier_lower_margin, report.barrier_upper_margin)
    _report(7, time.perf_counter() - t0, f"node-wise bracketing, worst margin {worst:.2e}")


def test_criterion_08_kottler_over_kottler_mass():
    t0 = time.perf_counter()
    worst = 0.0
    for kappa, m_base in ((0, 0.5), (-1, 0.0)):
        params = kf.SpaceParams(3, kappa, m_base, 4 * math.pi)
        est = kf.mass_limit(kf.kottler_pair_graph(params, 1.0), (50.0, 100.0, 200.0))
        err = abs(est.mass - 1.0)
        worst = max(worst, err)
        assert err <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(8, elapsed, f"kappa in {{0,-1}}, worst mass error {worst:.2e} (tol 1e-6)")


FAMILY_CASES = [
    (0, 0.5, 0.75, 1.0, 1.0),
    (0, 0.5, 0.6, 0.9, 2.0),
    (0, 0.5, 0.8, 1.2, 0.7),
    (0, 0.5, 0.55, 0.8, 1.5),
    (-1, 0.0, 0.3, 0.6, 1.0),
]


def _family_graphs():
    graphs = []
    for kappa, m_base, m_h, m_tot, rate in FAMILY_CASES:
        params = kf.SpaceParams(3, kappa, m_base, 4 * math.pi)
        graphs.append(kf.mass_profile_graph(params, m_h, m_tot, rate=rate))
    return graphs


def test_criterion_09_mass_identity():
    t0 = time.perf_counter()
    graphs = [
        kf.kottler_pair_graph(kf.SpaceParams(3, 0, 0.5, 4 * math.pi), 1.0),
        kf.kottler_pair_graph(kf.SpaceParams(3, -1, 0.0, 4 * math.pi), 1.0),
    ] + _family_graphs()
    worst = 0.0
    for graph in graphs:
        # dominant energy first: S2 >= 0 pointwise along a probe
        probe = np.linspace(graph.rho_inner + 1e-5, graph.rho_inner + 25.0, 80)
        s2 = np.array([kf.radial_shape_operator(graph, float(r)).s2 for r in probe])
        assert s2.min() >= -1e-9
        report = kf.mass_identity_check(graph)
        tol = 1e-5 * max(1.0, abs(report.lhs_mass))
        worst = max(worst, report.residual / tol)
        assert report.residual <= tol
        assert report.lhs_mass >= graph.base.m + report.boundary_term - 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, elapsed, f"7 graphs, worst residual {worst:.2f} of tolerance")


def test_criterion_10_penrose():
    t0 = time.perf_counter()
    worst_eq, worst_lower = 0.0, math.inf
    for kappa, m_base in ((0, 0.5), (-1, 0.0)):
        params = kf.SpaceParams(3, kappa, m_base, 4 * math.pi)
        graph = kf.kottler_pair_graph(params, 1.0)
        est = kf.mass_limit(graph)
        deficit = kf.penrose_deficit(est.mass, graph.rho_inner**2 * params.theta, params)
        worst_eq = max(worst_eq, abs(deficit))
        assert abs(deficit) <= 1e-6
    for graph in _family_graphs():
        est = kf.mass_limit(graph)
        deficit = kf.penrose_deficit(
            est.mass, graph.rho_inner**2 * graph.base.theta, graph.base
        )
        worst_lower = min(worst_lower, deficit)
        assert deficit >= -1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        10, elapsed,
        f"equality gap {worst_eq:.2e} (tol 1e-6), min dominant-energy deficit {worst_lower:.2e}",
    )


def test_criterion_11_beckner():
    t0 = time.perf_counter()
    worst = 0.0
    for n, res in ((3, 64), (4, 64)):
        grid = kf.make_grid("sphere_axisym", res, n=n)
        for c in (0.5, 1.0, 2.0):
            const = ScalarField.constant(grid, c)
            assert abs(beckner_report(const, n)["sharp"]) <= 1e-10
        for seed in range(100):
            pert = low_frequency_field(grid, seed, 0.2)
            rep = beckner_report(ScalarField(1.0 + pert, grid), n)
            rel = rep["sharp"] / rep["scale"]
            worst = min(worst, rel)
            assert rep["sharp"] >= -1e-8 * rep["scale"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(11, elapsed, f"200 random fields (n=3,4), worst {worst:.2e} of scale")


def test_criterion_12_convergence_order(flat_setup):
    t0 = time.perf_counter()
    params, warp, _ = flat_setup
    base_r = warp.r_from_rho(2.0)
    length = math.sqrt(params.theta)

    def fixed_surface(grid):
        # closed-form perturbation: identical continuum data at every
        # resolution (a sup-normalized random field would not be)
        x, y = np.meshgrid(grid.coords[0], grid.coords[1], indexing="ij")
        w = 2.0 * math.pi / length
        pert = (
            0.04 * np.cos(w * x + 0.3)
            + 0.03 * np.cos(w * y - 0.2)
            + 0.02 * np.cos(w * (x + y) + 1.0)
        )
        return kf.GraphSurface(ScalarField(base_r * (1.0 + pert), grid), warp)

    # Criterion-4 rerun: area-law residual at 32/64/128 with dt ~ dx^2.
    area_resid = {}
    for res, dt_max in ((32, 0.02), (64, 0.005), (128, 0.00125)):
        grid = kf.make_grid("torus2d", res, length)
        trace = kf.run_flow(fixed_surface(grid), kf.FlowConfig(t_end=10.0, dt_max=dt_max))
        area_resid[res] = kf.monotonicity_report(trace).area_law_residual
    r1 = area_resid[32] / area_resid[64]
    r2 = area_resid[64] / area_resid[128]
    assert r1 >= 3.0 and r2 >= 3.0, area_resid

    # Criterion-3 rerun: the slice identities must hold at every resolution,
    # and the one genuinely resolution-dependent deficit (through the stencil
    # content of the weighted mean-curvature integral of a fixed non-slice
    # graph) must shrink by at least the required factor per halving.  A
    # 256^2 evaluation serves as the reference value.
    def wv_deficit_at(res):
        grid = kf.make_grid("torus2d", res, length)
        for lam in (1.5, 2.0, 4.0):
            sgeom = kf.compute_geometry(kf.slice_surface(grid, warp, lam_value=lam))
            assert abs(kf.weighted_volume_deficit(sgeom)) <= 1e-8 * kf.deficit_scale(sgeom)
        return kf.weighted_volume_deficit(kf.compute_geometry(fixed_surface(grid)))

    ref = wv_deficit_at(256)
    resid = {res: abs(wv_deficit_at(res) - ref) for res in (32, 64, 128)}
    d1 = resid[32] / resid[64]
    d2 = resid[64] / resid[128]
    assert d1 >= 3.0 and d2 >= 3.0, resid

    elapsed = time.perf_counter() - t0
    assert elapsed <= 1200.0
    _report(
        12, elapsed,
        f"area-law ratios {r1:.1f}, {r2:.1f}; functional ratios {d1:.1f}, {d2:.1f} (need >= 3)",
    )
