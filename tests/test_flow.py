"""Flow integrator and monitors."""

import math
from dataclasses import replace

import numpy as np
import pytest

import kflow as kf
from kflow.checks import judge
from kflow.errors import DomainError, FlowBreakdownError, MeanConvexityError
from kflow.flow import GRAD_FLOOR

# The monitors the report used to pass as a whole.
MONITORS = ("q1_monotone", "barrier", "area_law", "p_balance", "q2_monotone", "final_bound")


def verdicts(rep, enabled=MONITORS):
    return judge("flow", rep.as_dict(), enabled)


class TestFlowStep:
    def test_zero_dt_identity(self, slice_flat):
        geom = kf.compute_geometry(slice_flat)
        out, out_geom = kf.flow_step(slice_flat, geom, 0.0)
        assert out is slice_flat
        assert out_geom is geom

    def test_slice_step_exact(self, torus64, warp_flat):
        # On a slice ds/dt = 1/(n-1) is constant, so one midpoint step in
        # s = log lambda(u) lands on lambda(0) e^(dt/(n-1)) up to rounding.
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        geom = kf.compute_geometry(surf)
        for dt in (0.02, 0.01, 0.3):
            out, _ = kf.flow_step(surf, geom, dt)
            exact = 2.0 * math.exp(dt / 2.0)
            assert np.max(np.abs(out.lam - exact)) <= 4 * np.spacing(exact)

    def test_local_error_third_order(self, params_flat, warp_flat):
        # Off a slice the midpoint step has an O(dt^3) local error.  The
        # reference is 64 midpoint steps of dt/64, whose own error is
        # ~1/4096 of one step's; halving dt must cut the error by ~8.
        grid = kf.make_grid("torus2d", 32, math.sqrt(params_flat.theta))
        x, y = np.meshgrid(grid.coords[0], grid.coords[1], indexing="ij")
        w = 2.0 * math.pi / math.sqrt(params_flat.theta)
        u = warp_flat.r_from_rho(2.0) * (1.0 + 0.05 * np.cos(w * x) + 0.03 * np.sin(w * y))
        surf = kf.GraphSurface(kf.ScalarField(u, grid), warp_flat)
        geom = kf.compute_geometry(surf)

        def step_error(dt):
            out, _ = kf.flow_step(surf, geom, dt)
            ref, ref_geom = surf, geom
            for _ in range(64):
                ref, ref_geom = kf.flow_step(ref, ref_geom, dt / 64)
            return np.max(np.abs(out.s.values - ref.s.values))

        e1, e2 = step_error(0.02), step_error(0.01)
        assert e1 < 5e-8
        assert 6.0 < e1 / e2 < 10.0  # third-order local error halves to ~1/8

    def test_slice_stays_flat(self, slice_flat, warp_flat):
        geom = kf.compute_geometry(slice_flat)
        out, out_geom = kf.flow_step(slice_flat, geom, 0.01)
        assert out_geom.surface is out
        assert np.ptp(out.u.values) == 0.0

    def test_breakdown_floor(self, slice_flat):
        # H = n-1 = 2 on the slice, so a floor of 10 trips after the first step
        with pytest.raises(FlowBreakdownError) as err:
            kf.run_flow(slice_flat, kf.FlowConfig(t_end=1.0, h_floor=10.0))
        assert err.value.surface is not None
        assert err.value.surface is not slice_flat
        assert "floor" in err.value.trace.breakdown["reason"]
        assert err.value.trace.breakdown["t"] == 0.005

    def test_large_step_rejected_signal(self, torus64, warp_flat):
        surf = kf.random_star_shaped(torus64, warp_flat, seed=2, amplitude=0.1,
                                     base_r=warp_flat.r_from_rho(2.0))
        geom = kf.compute_geometry(surf)
        with pytest.raises((DomainError, MeanConvexityError)):
            kf.flow_step(surf, geom, 1e4)  # leaves the table / loses convexity


class TestRunFlow:
    def test_slice_run_q1_constant(self, torus64, warp_flat):
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=3.0))
        q1 = trace.column("Q1")
        assert np.max(np.abs(q1 - q1[0])) <= 1e-9
        assert np.max(np.abs(q1)) <= 1e-9

    def test_area_law_short(self, params_flat, warp_flat):
        grid = kf.make_grid("torus2d", 32, math.sqrt(params_flat.theta))
        surf = kf.random_star_shaped(grid, warp_flat, seed=4, amplitude=0.03,
                                     base_r=warp_flat.r_from_rho(2.0))
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=2.0, dt_max=0.02))
        rep = kf.monotonicity_report(trace)
        assert rep.area_law_residual <= 1e-5

    def test_symmetric_mode_exact(self, sym_grid, warp_hyp_sym):
        surf = kf.slice_surface(sym_grid, warp_hyp_sym, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=4.0))
        rep = kf.monotonicity_report(trace)
        checks, passed = verdicts(rep)
        assert passed
        assert checks["q2_monotone"]["evaluated"]
        assert rep.area_law_residual < 1e-5
        # kappa=-1: Q1 stays at the slice value (n-1) kappa theta^(1/2)
        q1 = trace.column("Q1")
        target = -2.0 * math.sqrt(sym_grid.theta)
        assert np.max(np.abs(q1 - target)) < 1e-8
        assert checks["final_bound"]["ok"]

    def test_monitors_and_sampling(self, torus64, warp_flat):
        surf = kf.random_star_shaped(torus64, warp_flat, seed=6, amplitude=0.05,
                                     base_r=warp_flat.r_from_rho(2.0))
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=3.0))
        t = trace.times()
        assert t[0] == 0.0 and t[-1] == pytest.approx(3.0, abs=1e-10)
        assert np.all(np.diff(t) > 0)
        assert np.allclose(np.diff(t), 0.25, atol=1e-9)
        checks, passed = verdicts(kf.monotonicity_report(trace),
                                  ("q1_monotone", "barrier", "p_balance"))
        assert passed
        assert all(checks[name]["evaluated"] for name in ("q1_monotone", "barrier", "p_balance"))

    def test_long_run_h_limit_and_gradient_decay(self, torus64, warp_flat):
        # by t = 12 the mean curvature extremes sit within 1e-3 of n-1 = 2
        # and sup|grad phi| decays like e^(-t/2)
        surf = kf.random_star_shaped(torus64, warp_flat, seed=7, amplitude=0.05,
                                     base_r=warp_flat.r_from_rho(2.0))
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=12.0))
        rep = kf.monotonicity_report(trace)
        assert rep.h_final_gap <= 1e-3
        assert rep.grad_decay_rate == pytest.approx(-0.5, abs=0.1)
        assert rep.not_evaluated == {}
        # Started at lambda = 2, J - K stays positive, so Q2 is not evaluated
        # and every other monitor passes.
        checks, passed = verdicts(rep, [*MONITORS, "h_limit", "grad_decay"])
        assert not passed
        assert [name for name, v in checks.items() if v["enabled"] and not v["ok"]] == [
            "q2_monotone"]
        assert rep.q2_samples_in_regime == 0
        assert not checks["q2_monotone"]["evaluated"]
        # the rate is the least-squares slope of log sup|grad phi| against t
        t, grad = trace.times(), trace.column("grad_sup")
        late = (t >= 0.6 * t[-1]) & (grad > GRAD_FLOOR)
        slope = np.polyfit(t[late], np.log(grad[late]), 1)[0]
        assert rep.grad_decay_rate == pytest.approx(slope, rel=1e-12)

    def test_determinism(self, torus64, warp_flat):
        surf = kf.random_star_shaped(torus64, warp_flat, seed=8, amplitude=0.05,
                                     base_r=warp_flat.r_from_rho(2.0))
        t1 = kf.run_flow(surf, kf.FlowConfig(t_end=1.0))
        t2 = kf.run_flow(surf, kf.FlowConfig(t_end=1.0))
        assert t1.column("area").tolist() == t2.column("area").tolist()
        assert t1.column("Q1").tolist() == t2.column("Q1").tolist()

    def test_breakdown_carries_partial_trace(self, torus64, warp_flat):
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        with pytest.raises(FlowBreakdownError) as err:
            kf.run_flow(surf, kf.FlowConfig(t_end=2.0, h_floor=5.0))
        assert err.value.trace is not None
        assert err.value.trace.breakdown["t"] == 0.005  # H = 1.87 on this slice
        assert err.value.surface is not None

    def test_symmetry_preservation(self, torus64, warp_flat):
        # initial data invariant under a half-period shift stays invariant
        x, y = np.meshgrid(torus64.coords[0], torus64.coords[1], indexing="ij")
        L = math.sqrt(torus64.theta)
        u = warp_flat.r_from_rho(2.0) * (1.0 + 0.05 * np.cos(4 * math.pi * x / L))
        surf = kf.GraphSurface(kf.ScalarField(u, torus64), warp_flat)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=2.0))
        final = trace.samples[-1]
        # the shift symmetry forces u(x) = u(x + L/2): probe via the stored trace
        # by rerunning and comparing the shifted evolution
        shifted = kf.GraphSurface(
            kf.ScalarField(np.roll(u, torus64.resolution // 2, axis=0), torus64), warp_flat
        )
        trace2 = kf.run_flow(shifted, kf.FlowConfig(t_end=2.0))
        assert trace2.samples[-1].functionals.area == pytest.approx(
            final.functionals.area, rel=1e-13
        )


class TestStability:
    def test_stable_dt_positive(self, slice_flat):
        geom = kf.compute_geometry(slice_flat)
        dt = kf.stable_dt(geom, 0.2)
        assert 0.001 < dt < 0.1

    def test_symmetric_unbounded(self, sym_grid, warp_hyp_sym):
        surf = kf.slice_surface(sym_grid, warp_hyp_sym, lam_value=2.0)
        geom = kf.compute_geometry(surf)
        assert kf.stable_dt(geom, 0.2) == math.inf

    def test_config_validation(self):
        with pytest.raises(DomainError):
            kf.FlowConfig(t_end=-1.0)
        with pytest.raises(DomainError):
            kf.FlowConfig(t_end=1.0, cfl_safety=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_end", math.nan),
            ("t_end", math.inf),
            ("dt_max", math.nan),
            ("record_interval", math.nan),
            ("h_floor", math.nan),
        ],
    )
    def test_config_rejects_non_finite(self, field, value):
        kwargs = {"t_end": 1.0, field: value}
        with pytest.raises(DomainError, match=field):
            kf.FlowConfig(**kwargs)


def _bound_counts(trace):
    """Each accepted step's bound, rebuilt from dt_history with the tie rule
    of the benchmark's classification: dt_max wins a tie with the record
    boundary, and anything below both is CFL-bound."""
    config = trace.config
    counts = {"cfl": 0, "dt_max": 0, "record": 0}
    t, k_rec = 0.0, 1
    eps = 1e-12 * max(1.0, config.t_end)
    for dt in trace.dt_history:
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


def _stable_dt_loop(surface, config):
    """run_flow's step sequence with stable_dt formed on every step."""
    geom = kf.compute_geometry(surface)
    t, k_rec, history = 0.0, 1, []
    eps = 1e-12 * max(1.0, config.t_end)
    while t < config.t_end - eps:
        t_next = min(k_rec * config.record_interval, config.t_end)
        dt = min(config.dt_max, kf.stable_dt(geom, config.cfl_safety), t_next - t)
        while True:
            try:
                surface, geom = kf.flow_step(surface, geom, dt)
                break
            except (DomainError, MeanConvexityError):
                dt *= 0.5
        t += dt
        history.append(dt)
        if t >= t_next - eps:
            k_rec += 1
    return history


class TestStepBounds:
    """run_flow forms stable_dt only when neither lower bound
    cfl_safety dx^2 m^2 / 2, m = lam_h_bound or min lambda min H, clears
    dt_max; the step sequence is that of forming it every time, and the
    trace counts which bound set each step."""

    @pytest.fixture(scope="class")
    def flows(self, torus64, warp_flat, sphere64, warp_sphere):
        return {
            "torus2d": kf.random_star_shaped(torus64, warp_flat, seed=1, amplitude=0.05,
                                             base_r=warp_flat.r_from_rho(2.0)),
            "sphere_axisym": kf.random_star_shaped(sphere64, warp_sphere, seed=3,
                                                   amplitude=0.05,
                                                   base_r=warp_sphere.r_from_rho(3.0)),
        }

    @pytest.mark.parametrize("dt_max", [0.005, 1.0], ids=["capped", "uncapped"])
    @pytest.mark.parametrize("mode", ["torus2d", "sphere_axisym"])
    def test_dt_history_matches_stable_dt_loop(self, flows, mode, dt_max):
        config = kf.FlowConfig(t_end=0.5, dt_max=dt_max, record_interval=0.125)
        trace = kf.run_flow(flows[mode], config)
        assert trace.dt_history == _stable_dt_loop(flows[mode], config)
        assert trace.dt_bounds == _bound_counts(trace)
        assert sum(trace.dt_bounds.values()) == len(trace.dt_history)

    def test_capped_torus_never_forms_stable_dt(self, flows):
        trace = kf.run_flow(flows["torus2d"], kf.FlowConfig(t_end=1.0))
        assert trace.stable_dt_evals == 0
        assert trace.dt_bounds == {"cfl": 0, "dt_max": 200, "record": 0}

    def test_uncapped_sphere_forms_stable_dt_every_step(self, flows):
        trace = kf.run_flow(flows["sphere_axisym"], kf.FlowConfig(t_end=1.0, dt_max=1.0))
        assert trace.stable_dt_evals == len(trace.dt_history)
        assert trace.dt_bounds["cfl"] > 0 and trace.dt_bounds["dt_max"] == 0
        assert sum(trace.dt_bounds.values()) == len(trace.dt_history)

    def test_counters_stay_out_of_trace_json(self, flows):
        trace = kf.run_flow(flows["sphere_axisym"], kf.FlowConfig(t_end=0.25))
        assert set(trace.as_dict()) == {"columns", "samples", "extra", "rejected_steps",
                                        "n_steps", "breakdown", "config"}


def _count_h(monkeypatch):
    """Count each time a geometry forms its mean curvature array H."""
    formed = []
    lazy_h = kf.SurfaceGeometry.__dict__["H"]
    form = lazy_h.func

    def counting(geom):
        formed.append(geom)
        return form(geom)

    monkeypatch.setattr(lazy_h, "func", counting)
    return formed


class TestMinHBound:
    """run_flow reads min H only where its lower bound min D / (max W)^(3/2)
    of min lambda H fails the CFL pre-test or the floor test; records form
    H, and every step, bound count and stable_dt evaluation is as when H was
    formed on every step."""

    def test_capped_torus_forms_h_only_at_records(self, torus64, warp_flat, monkeypatch):
        # The benchmark's torus start: lambda_0 = 2, dt_max = 0.005, records
        # every 0.25 to t = 10.
        surf = kf.random_star_shaped(torus64, warp_flat, seed=7, amplitude=0.05,
                                     base_r=warp_flat.r_from_rho(2.0))
        formed = _count_h(monkeypatch)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=10.0, dt_max=0.005,
                                                record_interval=0.25))
        assert len(trace.dt_history) == 2000 and trace.stable_dt_evals == 0
        assert len(trace.samples) == 41
        assert len(formed) == 41
        assert [s.h_min for s in trace.samples] == [g.h_min for g in formed]

    def test_shipped_start_steps_unchanged(self, torus64, warp_flat, monkeypatch):
        # The shipped perturbed-flow start, lambda_0 = 1.1 with records every
        # 0.05, has CFL-bound steps: there the bound fails and H is formed.
        surf = kf.random_star_shaped(torus64, warp_flat, seed=7, amplitude=0.05,
                                     base_r=warp_flat.r_from_rho(1.1))
        config = kf.FlowConfig(t_end=10.0, dt_max=0.005, record_interval=0.05)
        formed = _count_h(monkeypatch)
        trace = kf.run_flow(surf, config)
        assert trace.dt_history == _stable_dt_loop(surf, config)
        assert len(trace.dt_history) == 2124
        assert trace.dt_bounds == {"cfl": 218, "dt_max": 1895, "record": 11}
        assert trace.stable_dt_evals == 228
        assert len(trace.samples) < len(formed) < len(trace.dt_history)

    def test_floor_at_h_up_to_rounding_trips(self, slice_flat):
        # On a slice D and W are the same at every node, so the bound over
        # lambda_max equals min H up to rounding and the 1e-9 shrink.  A floor
        # at min H after the first step, or one ulp above, still trips there;
        # one ulp below it never trips, as H grows along a slice flow.
        geom = kf.compute_geometry(slice_flat)
        surface, geom = kf.flow_step(slice_flat, geom, 0.005)
        h_min = geom.h_min
        bound = geom.lam_h_bound / surface.lam_max
        assert bound < h_min and h_min - bound <= 2e-9 * h_min
        for h_floor in (h_min, np.nextafter(h_min, math.inf)):
            with pytest.raises(FlowBreakdownError) as err:
                kf.run_flow(slice_flat, kf.FlowConfig(t_end=0.05, h_floor=h_floor))
            assert err.value.trace.breakdown["t"] == 0.005
        below = np.nextafter(h_min, -math.inf)
        trace = kf.run_flow(slice_flat, kf.FlowConfig(t_end=0.05, h_floor=below))
        assert trace.breakdown is None and len(trace.dt_history) == 10

    def test_bound_is_below_min_h(self, torus64, warp_flat):
        for seed, amplitude in ((1, 0.05), (2, 0.2), (3, 0.4)):
            surf = kf.random_star_shaped(torus64, warp_flat, seed=seed, amplitude=amplitude,
                                         base_r=warp_flat.r_from_rho(1.2))
            geom = kf.compute_geometry(surf)
            assert 0.0 < geom.lam_h_bound <= float(np.min(surf.lam * geom.H))
            assert geom.lam_h_bound / surf.lam_max <= geom.h_min


class TestMonotonicityReport:
    def test_adversarial_q1_bump_flagged(self, torus64, warp_flat):
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=2.0))
        k = len(trace.samples) // 2
        bumped = replace(
            trace.samples[k],
            functionals=replace(trace.samples[k].functionals, Q1=1.0),
        )
        trace.samples[k] = bumped
        rep = kf.monotonicity_report(trace)
        assert not verdicts(rep)[0]["q1_monotone"]["ok"]
        assert rep.q1_worst_interval == (
            pytest.approx(trace.samples[k - 1].t),
            pytest.approx(trace.samples[k].t),
        )

    @pytest.mark.parametrize("mode", ["torus2d", "sphere_axisym"])
    def test_q1_final_bound_bitwise(self, torus64, warp_flat, sphere64, warp_sphere, mode):
        # Reference: the bound written out in the report's own operand order.
        grid, warp = (torus64, warp_flat) if mode == "torus2d" else (sphere64, warp_sphere)
        surf = kf.slice_surface(grid, warp, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=0.25, dt_max=0.05))
        n, kappa, theta = warp.params.n, warp.params.kappa, warp.params.theta
        expect = float((n - 1) * kappa * theta ** (1.0 / (n - 1)))
        assert kf.monotonicity_report(trace).q1_final_bound == expect

    def test_empty_trace_rejected(self, params_flat):
        empty = kf.FlowTrace(params=params_flat, config=kf.FlowConfig(t_end=1.0))
        with pytest.raises(DomainError):
            kf.monotonicity_report(empty)

    def test_p_balance_on_slice_run(self, torus64, warp_flat):
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=3.0))
        rep = kf.monotonicity_report(trace)
        assert rep.p_balance_max_rel <= 1e-2

    def test_grad_decay_skipped_on_slice_run(self, torus64, warp_flat):
        # On a torus slice sup |grad phi| is rounding noise; no rate is fitted
        # to it, and the report says why.
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=2.0))
        assert np.max(trace.column("grad_sup")) <= GRAD_FLOOR
        rep = kf.monotonicity_report(trace)
        assert math.isnan(rep.grad_decay_rate)
        reason = rep.not_evaluated["grad_decay_rate"]
        assert "needs at least 3 late samples" in reason
        assert "has 0" in reason
        out = rep.as_dict()
        assert out["grad_decay_rate"] is None
        assert verdicts(rep, ["grad_decay"])[0]["grad_decay"] == {
            "enabled": True, "ok": False, "evaluated": False, "reason": reason,
            "value": None, "tolerance": None}

    @pytest.mark.parametrize("above", [2, 3, 5])
    def test_grad_decay_fits_only_samples_above_floor(self, torus64, warp_flat, above):
        # The last ``above`` samples get sup |grad phi| = e^(-t/2); the other
        # late samples stay at rounding level and must not enter the fit.
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=2.0))
        k0 = len(trace.samples) - above
        trace.samples[k0:] = [replace(s, grad_sup=math.exp(-s.t / 2.0))
                              for s in trace.samples[k0:]]
        rep = kf.monotonicity_report(trace)
        verdict = verdicts(rep)[0]["grad_decay"]
        if above < 3:
            assert math.isnan(rep.grad_decay_rate)
            assert f"has {above}" in rep.not_evaluated["grad_decay_rate"]
            assert verdict["evaluated"] is False
        else:
            assert "grad_decay_rate" not in rep.not_evaluated
            assert rep.grad_decay_rate == pytest.approx(-0.5, rel=1e-12)
            assert verdict["evaluated"] is True and verdict["reason"] is None

    def test_trace_csv_roundtrip(self, torus64, warp_flat, tmp_path):
        surf = kf.slice_surface(torus64, warp_flat, lam_value=2.0)
        trace = kf.run_flow(surf, kf.FlowConfig(t_end=1.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,area,intVH,intP,J,K,Q1,Q2,Hmin,Hmax,grad_sup,umin,umax,dt"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(trace.samples), 14)
        assert data[0, 1] == trace.samples[0].functionals.area
