"""Boundary-integral mass, shape operator, identity and Penrose checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

import kflow as kf
import kflow.mass
from kflow.background import _v_squared_prime, v_squared
from kflow.errors import (DecayViolationError, DomainError, NonRepresentableGraphError,
                          NumericsError)

THETA = 4.0 * math.pi


@pytest.fixture(scope="module")
def base_flat():
    return kf.SpaceParams(3, 0, 0.5, THETA)


@pytest.fixture(scope="module")
def base_hyp():
    return kf.SpaceParams(3, -1, 0.0, THETA)


@pytest.fixture(scope="module")
def pair_flat(base_flat):
    return kf.kottler_pair_graph(base_flat, 1.0)


@pytest.fixture(scope="module")
def family_flat(base_flat):
    return kf.mass_profile_graph(base_flat, 0.75, 1.0, rate=1.0)


def weingarten_oracle(graph, rho, h=1e-6):
    """Principal curvatures by finite-differencing the unit normal.

    Independent route: the normal of the curve (f(rho), rho) in the ambient
    metric V^2 dt^2 + d rho^2 / V^2 (+ rho^2 ghat) is differentiated with the
    ambient Christoffel symbols; no use of the graph-Hessian closed form.
    """
    params = graph.base

    def vv(r):
        return float(v_squared(params, r))

    def xi(r):
        v2 = vv(r)
        v = math.sqrt(v2)
        fp = float(graph.f_prime(r))
        w = math.sqrt(1.0 + v2 * v2 * fp * fp)
        return np.array([1.0 / (v * w), -v2 * v * fp / w])

    v2 = vv(rho)
    v = math.sqrt(v2)
    dv = float(_v_squared_prime(params, rho)) / (2.0 * v)
    fp = float(graph.f_prime(rho))
    w = math.sqrt(1.0 + v2 * v2 * fp * fp)
    t_hat = (v / w) * np.array([fp, 1.0])

    dxi = (xi(rho + h) - xi(rho - h)) / (2.0 * h)
    xi0 = xi(rho)
    # ambient Christoffels in the (t, rho) block
    gamma_t_trho = dv / v
    gamma_rho_tt = -(v**3) * dv
    gamma_rho_rhorho = -dv / v
    cov_t = t_hat[1] * dxi[0] + gamma_t_trho * (t_hat[0] * xi0[1] + t_hat[1] * xi0[0])
    cov_rho = t_hat[1] * dxi[1] + gamma_rho_tt * t_hat[0] * xi0[0] \
        + gamma_rho_rhorho * t_hat[1] * xi0[1]
    k_rad = -(v2 * cov_t * t_hat[0] + cov_rho * t_hat[1] / v2)
    k_tan = -xi0[1] / rho
    n = params.n
    s2 = (n - 1) * k_rad * k_tan + 0.5 * (n - 1) * (n - 2) * k_tan**2
    return k_rad, k_tan, s2


class TestMassIntegrand:
    def test_zero_perturbation_returns_base_mass(self, base_flat):
        zero = kf.graph_from_f_prime(
            base_flat, lambda r: np.zeros_like(np.asarray(r, dtype=float)), rho_inner=2.0
        )
        for rho in (5.0, 50.0, 500.0):
            assert kf.mass_integrand(zero, rho) == base_flat.m

    def test_pair_matches_closed_form(self, base_flat, pair_flat):
        # exact arithmetic oracle: m + (m' - m) V_base^2 / V_graph^2
        for rho in (10.0, 100.0, 1000.0):
            vb2 = float(v_squared(base_flat, rho))
            vg2 = float(v_squared(replace(base_flat, m=1.0), rho))
            expect = 0.5 + 0.5 * vb2 / vg2
            assert kf.mass_integrand(pair_flat, rho) == pytest.approx(expect, rel=1e-13)

    def test_pair_near_total_mass_at_100(self, pair_flat):
        assert abs(kf.mass_integrand(pair_flat, 100.0) - 1.0) < 1e-4

    def test_pair_error_decays_at_order_n(self, pair_flat):
        # the rho^-2 corrections cancel identically for exact Kottler pairs,
        # leaving the 2(m'-m)^2 rho^-n term
        rho = np.geomspace(30.0, 300.0, 6)
        errs = np.array([abs(kf.mass_integrand(pair_flat, float(r)) - 1.0) for r in rho])
        slope = np.polyfit(np.log(rho), np.log(errs), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.1)
        assert errs[-1] == pytest.approx(2 * 0.25 * 300.0**-3, rel=0.05)

    def test_domain(self, pair_flat):
        with pytest.raises(DomainError):
            kf.mass_integrand(pair_flat, pair_flat.rho_inner * 0.5)


class TestMassLimit:
    def test_pair_mass(self, pair_flat):
        est = kf.mass_limit(pair_flat)
        assert est.mass == pytest.approx(1.0, rel=1e-6)
        assert abs(est.mass - 1.0) <= est.error_estimate + 1e-7

    def test_zero_perturbation_exact(self, base_flat):
        zero = kf.graph_from_f_prime(
            base_flat, lambda r: np.zeros_like(np.asarray(r, dtype=float)), rho_inner=2.0
        )
        est = kf.mass_limit(zero)
        assert est.mass == pytest.approx(base_flat.m, abs=1e-13)

    def test_schedule_validation(self, pair_flat):
        with pytest.raises(DomainError):
            kf.mass_limit(pair_flat, [50.0, 100.0])
        with pytest.raises(DomainError):
            kf.mass_limit(pair_flat, [100.0, 50.0, 200.0])

    def test_slow_decay_rejected_at_construction(self, base_flat):
        # stated tau below n/2
        with pytest.raises(DecayViolationError):
            kf.graph_from_f_prime(
                base_flat, lambda r: np.asarray(r, float) ** -1.6, rho_inner=2.0, decay_tau=1.2
            )
        # psi ~ rho^-3 => fitted tau = 1.0 < 1.5, caught by the fit
        with pytest.raises(DecayViolationError):
            kf.graph_from_f_prime(
                base_flat, lambda r: np.asarray(r, float) ** -2.5, rho_inner=2.0
            )

    def test_divergent_samples_rejected(self, base_flat):
        # psi ~ rho^-4 passes tau > n/2 but the integrand grows ~ rho:
        # mass_limit must refuse to extrapolate
        graph = kf.graph_from_f_prime(
            base_flat, lambda r: np.asarray(r, float) ** -3.0, rho_inner=2.0
        )
        with pytest.raises(DecayViolationError):
            kf.mass_limit(graph)

    def test_mass_shift_consistency(self, base_flat):
        # the same heavy space measured over two lighter backgrounds
        for m_base in (0.3, 0.6):
            base = replace(base_flat, m=m_base)
            est = kf.mass_limit(kf.kottler_pair_graph(base, 1.0))
            assert est.mass == pytest.approx(1.0, rel=1e-6)


class TestShapeOperator:
    def test_pair_s2_vanishes(self, pair_flat):
        for rho in np.linspace(pair_flat.rho_inner + 1e-3, 30.0, 25):
            assert abs(kf.radial_shape_operator(pair_flat, float(rho)).s2) < 1e-9

    def test_flat_graph_is_totally_geodesic(self, base_flat):
        zero = kf.graph_from_f_prime(
            base_flat,
            lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            rho_inner=2.0,
            f_prime2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
        rec = kf.radial_shape_operator(zero, 5.0)
        assert rec.kappa_rad == 0.0 and rec.kappa_tan == 0.0 and rec.s2 == 0.0

    def test_family_matches_interior_mass_oracle(self, family_flat):
        # S2 = (n-1) mtilde'(rho) rho^(1-n) in closed form
        mtp = family_flat.oracle["mtilde_prime"]
        for rho in (1.2, 1.5, 2.5, 6.0):
            if rho <= family_flat.rho_inner:
                continue
            expect = 2.0 * float(mtp(rho)) * rho**-2
            got = kf.radial_shape_operator(family_flat, rho).s2
            assert got == pytest.approx(expect, rel=1e-8)

    def test_weingarten_oracle_agreement(self, family_flat, pair_flat):
        for graph in (family_flat, pair_flat):
            for rho in (1.6, 2.5, 6.0):
                rec = kf.radial_shape_operator(graph, rho)
                k_rad, k_tan, s2 = weingarten_oracle(graph, rho)
                assert rec.kappa_tan == pytest.approx(k_tan, rel=1e-10)
                assert rec.kappa_rad == pytest.approx(k_rad, rel=1e-6, abs=1e-10)
                assert rec.s2 == pytest.approx(s2, rel=1e-6, abs=1e-10)

    def test_perturbed_s2_visible(self, family_flat):
        probe = np.linspace(family_flat.rho_inner + 0.05, family_flat.rho_inner + 5.0, 40)
        vals = [abs(kf.radial_shape_operator(family_flat, float(r)).s2) for r in probe]
        assert max(vals) > 1e-3


class TestArrayPath:
    """radial_shape_operator on arrays agrees with its scalar calls, and the
    bulk quadrature evaluates it once per panel array."""

    @pytest.fixture(scope="class")
    def graphs(self, base_flat, pair_flat, family_flat):
        fd_only = kf.graph_from_f_prime(
            base_flat, lambda r: 0.3 * np.asarray(r, float) ** -3.5, rho_inner=2.0
        )
        assert fd_only.f_prime2 is None  # exercises the finite-difference fallback
        return [pair_flat, family_flat, fd_only]

    def test_array_matches_scalar_calls(self, graphs):
        for graph in graphs:
            rho = graph.rho_inner + np.geomspace(1e-4, 200.0, 48).reshape(4, 12)
            rec = kf.radial_shape_operator(graph, rho)
            for field in ("kappa_rad", "kappa_tan", "s2"):
                got = getattr(rec, field)
                assert got.shape == rho.shape
                expect = np.array(
                    [getattr(kf.radial_shape_operator(graph, float(r)), field) for r in rho.flat]
                ).reshape(rho.shape)
                np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)

    def test_scalar_returns_floats(self, graphs):
        for graph in graphs:
            for rho in (graph.rho_inner + 0.5, np.float64(graph.rho_inner + 0.5)):
                rec = kf.radial_shape_operator(graph, rho)
                assert all(type(v) is float for v in (rec.kappa_rad, rec.kappa_tan, rec.s2))

    def test_array_domain(self, graphs):
        for graph in graphs:
            rho = np.array([graph.rho_inner + 1.0, graph.rho_inner, graph.rho_inner + 2.0])
            with pytest.raises(DomainError):
                kf.radial_shape_operator(graph, rho)
            with pytest.raises(DomainError):
                kf.radial_shape_operator(graph, rho[:1] - 2.0)

    def test_domain_error_names_first_bad_radius(self, graphs):
        for graph in graphs:
            rho = np.array([graph.rho_inner + 1.0, graph.rho_inner - 0.25, math.nan, 0.0])
            with pytest.raises(DomainError, match=f"rho={graph.rho_inner - 0.25:.6g} "):
                kf.radial_shape_operator(graph, rho)
            with pytest.raises(DomainError, match="rho=nan "):
                kf.radial_shape_operator(graph, rho[[0, 2, 1]])

    def test_empty_radii_give_empty_fields(self, graphs):
        for graph in graphs:
            rec = kf.radial_shape_operator(graph, np.empty((0, 12)))
            for field in (rec.kappa_rad, rec.kappa_tan, rec.s2):
                assert field.shape == (0, 12)

    def test_one_shape_call_per_panel_integral(self, pair_flat, family_flat, monkeypatch):
        shape_calls, panel_calls = [], []
        shape_op, panels = kflow.mass.radial_shape_operator, kflow.mass.integrate_panels

        def counting_shape(*args, **kwargs):
            shape_calls.append(1)
            return shape_op(*args, **kwargs)

        def counting_panels(*args, **kwargs):
            panel_calls.append(1)
            return panels(*args, **kwargs)

        monkeypatch.setattr(kflow.mass, "radial_shape_operator", counting_shape)
        monkeypatch.setattr(kflow.mass, "integrate_panels", counting_panels)
        for graph in (pair_flat, family_flat):
            shape_calls.clear()
            panel_calls.clear()
            kflow.mass._bulk_energy_integral(graph)
            assert 2 <= len(panel_calls) <= 9
            assert len(shape_calls) == len(panel_calls)


class TestMassIdentity:
    def test_pair_boundary_values(self, base_flat, pair_flat):
        # rho_inner = 2^(1/3); H = sqrt(2); c_n int V H dmu = 1/2 exactly
        assert pair_flat.rho_inner == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
        v_i = math.sqrt(float(v_squared(base_flat, pair_flat.rho_inner)))
        assert v_i**2 == pytest.approx(0.7937005259840998, rel=1e-10)
        h_sigma = 2.0 * v_i / pair_flat.rho_inner
        assert h_sigma == pytest.approx(math.sqrt(2.0), rel=1e-12)
        report = kf.mass_identity_check(pair_flat)
        assert report.boundary_term == pytest.approx(0.5, rel=1e-12)
        assert abs(report.bulk_term) < 1e-10
        assert report.rhs_mass == pytest.approx(1.0, rel=1e-10)
        assert report.residual <= 1e-5 * max(1.0, abs(report.lhs_mass))

    def test_family_identity_decomposition(self, family_flat):
        # bulk = m_total - m_horizon, boundary = m_horizon - m, both exact
        report = kf.mass_identity_check(family_flat)
        assert report.bulk_term == pytest.approx(0.25, rel=1e-9)
        assert report.boundary_term == pytest.approx(0.25, rel=1e-12)
        assert report.residual <= 1e-5 * max(1.0, abs(report.lhs_mass))

    def test_dominant_energy_inequality(self, family_flat):
        report = kf.mass_identity_check(family_flat)
        base_m = family_flat.base.m
        assert report.lhs_mass >= base_m + report.boundary_term - 1e-6

    def test_unconverged_bulk_integral_raises(self, family_flat, monkeypatch):
        # every increment is 0.5, so the 1e-10 increment test is never met
        monkeypatch.setattr(kflow.mass, "integrate_panels", lambda *args, **kwargs: 0.5)
        with pytest.raises(NumericsError) as info:
            kflow.mass._bulk_energy_integral(family_flat)
        msg = str(info.value)
        assert "last increment 0.5" in msg and "running total 4.5" in msg
        assert f"bulk_cut={family_flat.bulk_cut:.6g}" in msg

    def test_requires_horizon_graph(self, base_flat):
        zero = kf.graph_from_f_prime(
            base_flat, lambda r: np.zeros_like(np.asarray(r, dtype=float)), rho_inner=2.0
        )
        with pytest.raises(DomainError):
            kf.mass_identity_check(zero)


class TestPenrose:
    def test_pair_equality(self, base_flat, pair_flat):
        est = kf.mass_limit(pair_flat)
        area = pair_flat.rho_inner**2 * THETA
        assert abs(kf.penrose_deficit(est.mass, area, base_flat)) <= 1e-6

    def test_linearity_in_mass(self, base_flat, pair_flat):
        area = pair_flat.rho_inner**2 * THETA
        d0 = kf.penrose_deficit(1.0, area, base_flat)
        d1 = kf.penrose_deficit(1.1, area, base_flat)
        assert d1 - d0 == pytest.approx(0.1, rel=1e-12)

    def test_kottler_space_itself(self, base_flat):
        area = kf.find_horizon(base_flat) ** (base_flat.n - 1) * base_flat.theta
        assert abs(kf.penrose_deficit(base_flat.m, area, base_flat)) < 1e-12

    def test_family_nonnegative(self, base_hyp, family_flat):
        est = kf.mass_limit(family_flat)
        area = family_flat.rho_inner**2 * THETA
        assert kf.penrose_deficit(est.mass, area, family_flat.base) >= -1e-6

    def test_hyperbolic_pair(self, base_hyp):
        graph = kf.kottler_pair_graph(base_hyp, 1.0)
        est = kf.mass_limit(graph)
        assert est.mass == pytest.approx(1.0, rel=1e-6)
        area = graph.rho_inner**2 * THETA
        assert abs(kf.penrose_deficit(est.mass, area, base_hyp)) <= 1e-6

    def test_area_validation(self, base_flat):
        with pytest.raises(DomainError):
            kf.penrose_deficit(1.0, -1.0, base_flat)


class TestGraphProfile:
    """The Kottler-over-Kottler profile (V f')^2 = 1/V_graph^2 - 1/V_base^2."""

    def test_equal_masses_trivial(self, params_flat):
        graph = kf.kottler_pair_graph(params_flat, 0.5)
        rho = np.array([1.5, 2.0, 10.0])
        assert np.all(graph.f_prime(rho) == 0.0)

    def test_radicand_invariant(self, params_flat):
        graph = kf.kottler_pair_graph(params_flat, 1.0)
        pg = replace(params_flat, m=1.0)
        rho = np.linspace(graph.rho_inner + 1e-3, 40.0, 200)
        lhs = v_squared(params_flat, rho) * graph.f_prime(rho) ** 2
        rhs = 1.0 / v_squared(pg, rho) - 1.0 / v_squared(params_flat, rho)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-9

    def test_far_field_decay(self, params_flat):
        # f' = O(rho^(-(n+4)/2)): log-slope fit between 1e2 and 1e3
        graph = kf.kottler_pair_graph(params_flat, 1.0)
        rho = np.geomspace(1e2, 1e3, 9)
        slope = np.polyfit(np.log(rho), np.log(graph.f_prime(rho)), 1)[0]
        assert slope == pytest.approx(-(3 + 4) / 2.0, abs=0.05)

    def test_inverse_sqrt_blowup_at_start(self, params_flat):
        graph = kf.kottler_pair_graph(params_flat, 1.0)
        vals = [
            float(graph.f_prime(graph.rho_inner + d)) * math.sqrt(d) for d in (1e-4, 1e-6, 1e-8)
        ]
        assert vals[0] == pytest.approx(vals[1], rel=2e-2)
        assert vals[1] == pytest.approx(vals[2], rel=2e-3)

    def test_second_derivative_consistency(self, params_flat):
        graph = kf.kottler_pair_graph(params_flat, 1.0)
        for rho in (1.5, 2.0, 5.0):
            h = 1e-5 * rho
            fd = (float(graph.f_prime(rho + h)) - float(graph.f_prime(rho - h))) / (2 * h)
            assert float(graph.f_prime2(rho)) == pytest.approx(fd, rel=1e-7)

    def test_wrong_order_rejected(self, params_flat):
        with pytest.raises(NonRepresentableGraphError):
            kf.kottler_pair_graph(replace(params_flat, m=1.0), 0.5)

    def test_decay_order_fit(self, params_flat):
        graph = kf.kottler_pair_graph(params_flat, 1.0)
        assert graph.decay_tau == pytest.approx(3.0, abs=0.05)


def _reference_pair(params, m_graph):
    """psi, f', f'' of the Kottler pair, each written out in full with the
    operand order of its formula."""
    pb, pg = params, replace(params, m=m_graph)
    n, dm = params.n, m_graph - params.m

    def psi(rho):
        rho = np.asarray(rho, dtype=float)
        return 2.0 * dm * rho ** (2 - n) / (v_squared(pg, rho) * v_squared(pb, rho))

    def f_prime(rho):
        rho = np.asarray(rho, dtype=float)
        return np.sqrt(np.maximum(psi(rho), 0.0) / np.maximum(v_squared(pb, rho), 1e-300))

    def f_prime2(rho):
        rho = np.asarray(rho, dtype=float)
        vb2, vg2 = v_squared(pb, rho), v_squared(pg, rho)
        dvb2, dvg2 = _v_squared_prime(pb, rho), _v_squared_prime(pg, rho)
        dlog_psi = (2 - n) / rho - dvg2 / vg2 - dvb2 / vb2
        return f_prime(rho) * (0.5 * dlog_psi - 0.5 * dvb2 / vb2)

    return psi, f_prime, f_prime2


def _reference_profile(params, rho_i, m_total, m_horizon, rate):
    """psi, f', f'' of the dominant-energy family, written out in full."""
    n, kappa, dm_tot = params.n, params.kappa, m_total - m_horizon

    def mtilde(rho):
        return m_total - dm_tot * np.exp(-rate * (rho - rho_i))

    def mtilde_prime(rho):
        return rate * dm_tot * np.exp(-rate * (rho - rho_i))

    def ufun(rho):
        return rho**2 + kappa - 2.0 * mtilde(rho) * rho ** (2 - n)

    def ufun_prime(rho):
        return (2.0 * rho + 2.0 * (n - 2) * mtilde(rho) * rho ** (1 - n)
                - 2.0 * mtilde_prime(rho) * rho ** (2 - n))

    def psi(rho):
        rho = np.asarray(rho, dtype=float)
        return 2.0 * (mtilde(rho) - params.m) * rho ** (2 - n) / (ufun(rho) * v_squared(params, rho))

    def f_prime(rho):
        rho = np.asarray(rho, dtype=float)
        return np.sqrt(np.maximum(psi(rho), 0.0) / np.maximum(v_squared(params, rho), 1e-300))

    def f_prime2(rho):
        rho = np.asarray(rho, dtype=float)
        vb2, dvb2 = v_squared(params, rho), _v_squared_prime(params, rho)
        dm = mtilde(rho) - params.m
        dlog_psi = mtilde_prime(rho) / dm + (2 - n) / rho - ufun_prime(rho) / ufun(rho) - dvb2 / vb2
        return f_prime(rho) * (0.5 * dlog_psi - 0.5 * dvb2 / vb2)

    return psi, f_prime, f_prime2


BASES = [(3, 0, 0.5, THETA), (3, -1, 0.0, THETA), (4, 1, 0.5, 2.0 * math.pi**2),
         (5, -1, -0.02, 1.0)]


class TestProfilesPinned:
    """psi, f' and f'' of both families are bitwise equal to the formulas
    written out in full, on arrays and on scalars, and tau is the fit of
    log |psi| against log rho."""

    @staticmethod
    def _assert_bitwise(graph, reference):
        rho = graph.rho_inner + np.concatenate(
            [np.geomspace(1e-7, 1.0, 11), np.geomspace(1.5, 3000.0, 23)])
        for got, want in zip((graph.psi, graph.f_prime, graph.f_prime2), reference):
            assert np.asarray(got(rho)).tobytes() == np.asarray(want(rho)).tobytes()
            for r in rho[::4]:
                assert np.asarray(got(float(r))).tobytes() == np.asarray(want(float(r))).tobytes()

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("dm", [0.1, 0.7])
    def test_kottler_pair(self, base, dm):
        params = kf.SpaceParams(*base)
        graph = kf.kottler_pair_graph(params, params.m + dm)
        self._assert_bitwise(graph, _reference_pair(params, params.m + dm))

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("rate", [0.7, 2.0])
    def test_mass_profile(self, base, rate):
        params = kf.SpaceParams(*base)
        m_h, m_t = params.m + 0.2, params.m + 0.55
        graph = kf.mass_profile_graph(params, m_h, m_t, rate=rate)
        rho_i = kf.find_horizon(replace(params, m=m_h))
        assert graph.rho_inner == rho_i
        self._assert_bitwise(graph, _reference_profile(params, rho_i, m_t, m_h, rate))

    @pytest.mark.parametrize("base", BASES)
    def test_decay_order_matches_polyfit(self, base):
        params = kf.SpaceParams(*base)
        rho = np.geomspace(50.0, 800.0, 7)
        for graph in (kf.kottler_pair_graph(params, params.m + 0.4),
                      kf.mass_profile_graph(params, params.m + 0.2, params.m + 0.55)):
            slope = np.polyfit(np.log(rho), np.log(np.abs(graph.psi(rho))), 1)[0]
            assert graph.decay_tau == pytest.approx(-slope - 2.0, rel=1e-12)
            assert graph.decay_tau == pytest.approx(params.n, abs=0.05)


def _reference_shape(graph, rho):
    """kappa_rad, kappa_tan and S2 with V^2, (V^2)', f', psi and f'' each
    evaluated on its own, f'' by finite differences when the graph has none."""
    params, n = graph.base, graph.base.n
    rho = np.asarray(rho, dtype=float)
    v2 = v_squared(params, rho)
    v = np.sqrt(v2)
    dv = _v_squared_prime(params, rho) / (2.0 * v)
    fp = np.asarray(graph.f_prime(rho), dtype=float)
    big_g = 1.0 + v2 * graph.psi(rho)
    sqrt_g = np.sqrt(big_g)
    k_tan = v2 * v * fp / (rho * sqrt_g)
    if graph.f_prime2 is not None:
        fpp = np.asarray(graph.f_prime2(rho), dtype=float)
    else:
        h = np.maximum(1e-5 * np.maximum(1.0, rho), 1e-7)
        h = np.where(rho > graph.rho_inner, np.minimum(h, 0.25 * (rho - graph.rho_inner)), h)
        f = graph.f_prime
        fpp = (f(rho - 2 * h) - 8 * f(rho - h) + 8 * f(rho + h) - f(rho + 2 * h)) / (12.0 * h)
    k_rad = (v / sqrt_g) * ((v2 * fpp + 2.0 * v * dv * fp) / big_g + v * dv * fp)
    s2 = (n - 1) * k_rad * k_tan + 0.5 * (n - 1) * (n - 2) * k_tan**2
    return k_rad, k_tan, s2


def _four_graphs(params):
    """A Kottler pair, a dominant-energy profile, a user f' with f'' and a
    user f' whose f'' is a finite difference."""
    rho_inner = kf.find_horizon(params) + 0.5
    user = {"params": params, "rho_inner": rho_inner,
            "f_prime": lambda r: 0.3 * np.asarray(r, float) ** -3.5}
    graphs = [kf.kottler_pair_graph(params, params.m + 0.4),
              kf.mass_profile_graph(params, params.m + 0.2, params.m + 0.55, rate=1.3),
              kf.graph_from_f_prime(**user, f_prime2=lambda r: -1.05 * np.asarray(r, float) ** -4.5),
              kf.graph_from_f_prime(**user)]
    assert graphs[3].f_prime2 is None
    return graphs


class TestShapeOperatorPinned:
    """radial_shape_operator is bitwise equal to its formulas with every
    input evaluated on its own, and it forms one rho^(2-n) and one rho^(1-n)
    per radius."""

    @pytest.mark.parametrize("base", BASES)
    def test_bitwise(self, base):
        for graph in _four_graphs(kf.SpaceParams(*base)):
            rho = graph.rho_inner + np.concatenate(
                [np.geomspace(1e-7, 1.0, 11), np.geomspace(1.5, 3000.0, 23)])
            rec = kf.radial_shape_operator(graph, rho)
            for got, want in zip((rec.kappa_rad, rec.kappa_tan, rec.s2),
                                 _reference_shape(graph, rho)):
                assert got.tobytes() == want.tobytes()
            for r in rho[::3]:
                rec = kf.radial_shape_operator(graph, float(r))
                for got, want in zip((rec.kappa_rad, rec.kappa_tan, rec.s2),
                                     _reference_shape(graph, float(r))):
                    assert np.float64(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("base", BASES)
    def test_powers_per_call(self, base, monkeypatch):
        # one rho^(2-n), one rho^(1-n) and one rho^2 per radius, shared by the
        # base space and the graph, for a scalar radius and for an array
        params = kf.SpaceParams(*base)
        n = params.n
        powers = _record_powers(monkeypatch)
        for graph in _four_graphs(params)[:2]:
            for rho in (graph.rho_inner + 0.5, graph.rho_inner + 40.0,
                        graph.rho_inner + np.geomspace(1e-3, 100.0, 5)):
                powers.clear()
                kf.radial_shape_operator(graph, rho)
                assert sorted(powers) == sorted([2 - n, 1 - n, 2])
                powers.clear()
                graph.psi(rho)
                assert sorted(powers) == sorted([2 - n, 2])


class _Radius(np.ndarray):
    """A view of a radius that appends the exponent of each power taken of
    it to ``log``; arrays computed from it record nothing."""

    log = None

    def __pow__(self, p):
        if self.log is not None:
            self.log.append(p)
        return np.ndarray.__pow__(self, p)


def _record_powers(monkeypatch):
    """Route the radius of every ``_v_squared_at`` and ``_ddlam_at`` call,
    from kflow.mass and from kflow.background, through a ``_Radius`` view;
    returns the list of exponents taken."""
    log = []
    real_v2, real_dd = kflow.background._v_squared_at, kflow.background._ddlam_at

    def radius(rho):
        view = rho.view(_Radius)
        view.log = log
        return view

    def v_squared_at(n, kappa, rho, *rest):
        return real_v2(n, kappa, radius(rho), *rest)

    def ddlam_at(n, rho, masses):
        return real_dd(n, radius(rho), masses)

    for module in (kflow.background, kflow.mass):
        monkeypatch.setattr(module, "_v_squared_at", v_squared_at)
        monkeypatch.setattr(module, "_ddlam_at", ddlam_at)
    return log


def _reference_mass_integrand(params, psi, rho):
    """The finite-radius mass with V^2, (V^2)' and psi each evaluated on its own."""
    n = params.n
    psi_r = float(psi(rho))
    v2 = float(v_squared(params, rho))
    v = math.sqrt(v2)
    dv = float(_v_squared_prime(params, rho)) / (2.0 * v)
    term_div = (n - 1) * v2 * v2 * psi_r / rho
    term_trace = v2 * v * dv * psi_r
    term_grad = -(v2 * v * dv * psi_r)
    per_area = term_div + term_trace + term_grad
    return params.m + params.mass_constant * params.theta * rho ** (n - 1) * per_area


class TestMassIntegrandPinned:
    """mass_integrand and the mass_limit samples are bitwise equal to the
    formula written out with the reference psi, on every family; a radius
    forms one rho^(2-n) and one rho^(1-n), and a user profile's f' is called
    once (no finite-difference f'')."""

    @pytest.mark.parametrize("base", BASES)
    def test_bitwise(self, base, monkeypatch):
        params = kf.SpaceParams(*base)
        n = params.n
        m_h, m_t, rate = params.m + 0.2, params.m + 0.55, 1.3
        rho_i = kf.find_horizon(replace(params, m=m_h))
        calls = []

        def f_prime(r):  # psi = O(rho^(-n-2)), so the mass limit is m + 0.045
            calls.append(1)
            return 0.3 * np.asarray(r, float) ** (-(n + 4) / 2)

        def user_psi(r):
            return v_squared(params, r) * f_prime(r) ** 2

        user = {"params": params, "rho_inner": kf.find_horizon(params) + 0.5,
                "f_prime": f_prime}
        cases = [
            (kf.kottler_pair_graph(params, params.m + 0.4),
             _reference_pair(params, params.m + 0.4)[0]),
            (kf.mass_profile_graph(params, m_h, m_t, rate=rate),
             _reference_profile(params, rho_i, m_t, m_h, rate)[0]),
            (kf.graph_from_f_prime(
                **user, f_prime2=lambda r: -0.15 * (n + 4) * np.asarray(r, float) ** (-(n + 6) / 2)),
             user_psi),
            (kf.graph_from_f_prime(**user), user_psi),
        ]
        powers = _record_powers(monkeypatch)
        for graph, psi in cases:
            for rho in (graph.rho_inner + 0.5, 7.5, 60.0, 150.0, 700.0):
                if rho <= graph.rho_inner:
                    continue
                want = _reference_mass_integrand(params, psi, rho)
                calls.clear()
                powers.clear()
                got = kf.mass_integrand(graph, rho)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                # the massless base's V^2 and (V^2)' = 2 rho need no power
                user_graph = graph.f_prime is f_prime
                massive = params.m != 0.0
                assert sorted(powers) == sorted(
                    [2] + [2 - n] * (massive or not user_graph) + [1 - n] * massive)
                assert len(calls) == user_graph
            est = kf.mass_limit(graph)
            assert est.samples == tuple(
                (r, _reference_mass_integrand(params, psi, r)) for r in (50.0, 100.0, 200.0))


class TestNonFinite:
    """NaN and infinite radii or decay orders raise DomainError (or
    DecayViolationError) instead of returning NaN."""

    @pytest.mark.parametrize("sched", [[50.0, 100.0, math.inf], [50.0, math.nan, 200.0],
                                       [math.nan, 100.0, 200.0], [50.0, 100.0, 200.0, math.nan]])
    def test_mass_limit_schedule(self, pair_flat, sched):
        with pytest.raises(DomainError):
            kf.mass_limit(pair_flat, sched)
        with pytest.raises(DomainError):
            kf.mass_identity_check(pair_flat, sched)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_pointwise(self, pair_flat, family_flat, rho):
        for graph in (pair_flat, family_flat):
            with pytest.raises(DomainError):
                kf.mass_integrand(graph, rho)
            with pytest.raises(DomainError):
                kf.radial_shape_operator(graph, rho)
            with pytest.raises(DomainError):
                kf.radial_shape_operator(graph, np.array([graph.rho_inner + 1.0, rho]))

    def test_scalars(self, base_flat):
        for area in (math.nan, math.inf):
            with pytest.raises(DomainError):
                kf.penrose_deficit(1.0, area, base_flat)
        for m_total in (math.nan, math.inf):
            with pytest.raises(DomainError):
                kf.mass_profile_graph(base_flat, 0.75, m_total)

    def test_graph_from_f_prime_inner_radius(self, base_flat):
        # rho_inner = 0.5 lies inside the horizon (rho0 = 1), where V^2 < 0
        for rho_inner in (math.nan, math.inf, 0.5):
            with pytest.raises(DomainError):
                kf.graph_from_f_prime(base_flat, lambda r: np.asarray(r, float) ** -3.5,
                                      rho_inner=rho_inner)

    def test_nan_decay_order(self, base_flat):
        with pytest.raises(DecayViolationError):
            kf.graph_from_f_prime(base_flat, lambda r: np.asarray(r, float) ** -3.5,
                                  rho_inner=2.0, decay_tau=math.nan)
        with pytest.raises(DecayViolationError):
            kf.graph_from_f_prime(base_flat, lambda r: np.full(np.shape(r), math.nan),
                                  rho_inner=2.0)
