"""Background geometry: horizon, warp table, curvature decay, graph profiles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kflow as kf
from kflow import _util
from kflow.background import _v_squared_prime, profile_decay_order, v_squared
from kflow.errors import (
    DomainError,
    InvalidDimensionError,
    NoHorizonError,
    NonRepresentableGraphError,
    ResolutionError,
)


class TestCriticalMass:
    def test_closed_form_n3(self):
        # -1/(3 sqrt 3), evaluated independently
        assert kf.critical_mass(3) == pytest.approx(-1.0 / (3.0 * math.sqrt(3.0)), rel=1e-14)
        assert kf.critical_mass(3) == pytest.approx(-0.1924500897298753, rel=1e-12)

    def test_closed_form_n4(self):
        assert kf.critical_mass(4) == pytest.approx(-0.125, rel=1e-14)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            kf.critical_mass(2)
        with pytest.raises(InvalidDimensionError):
            kf.SpaceParams(2, 0, 1.0, 1.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_double_root_oracle(self, n):
        # At the critical mass, V^2 and its derivative vanish simultaneously
        # at rho_h = ((n-2)|m_c|)^(1/n).
        mc = kf.critical_mass(n)
        rho_h = ((n - 2) * abs(mc)) ** (1.0 / n)
        p = kf.SpaceParams(n, -1, mc, 1.0)
        assert abs(v_squared(p, rho_h)) < 1e-13
        assert abs(_v_squared_prime(p, rho_h)) < 1e-13
        # and find_horizon lands exactly there
        assert kf.find_horizon(p).rho0 == pytest.approx(rho_h, rel=1e-10)


class TestHorizon:
    @pytest.mark.parametrize(
        "n,kappa,m,expect",
        [
            (3, 0, 0.5, 1.0),  # rho^3 = 2m
            (3, 1, 1.0, 1.0),  # rho^3 + rho - 2 = (rho-1)(rho^2+rho+2)
            (3, -1, 0.0, 1.0),  # rho^2 = 1
            (3, -1, kf.critical_mass(3), math.sqrt(1.0 / 3.0)),
        ],
    )
    def test_known_roots(self, n, kappa, m, expect):
        hd = kf.find_horizon(kf.SpaceParams(n, kappa, m, 4 * math.pi))
        assert hd.rho0 == pytest.approx(expect, rel=1e-10)

    def test_residual_and_horizon_relation(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            kappa = int(rng.integers(-1, 2))
            if kappa >= 0:
                m = float(rng.uniform(0.05, 20.0))
            else:
                mc = kf.critical_mass(n)
                m = float(rng.uniform(0.9 * mc, 20.0))
            p = kf.SpaceParams(n, kappa, m, 1.0)
            rho0 = kf.find_horizon(p).rho0
            assert abs(v_squared(p, rho0)) <= 1e-12 * max(1.0, rho0**2)
            # 2m = rho0^n + kappa rho0^(n-2)
            assert 2 * m == pytest.approx(rho0**n + kappa * rho0 ** (n - 2), rel=1e-12)

    def test_inadmissible_mass_rejected(self):
        with pytest.raises(NoHorizonError):
            kf.SpaceParams(3, -1, kf.critical_mass(3) - 1e-3, 1.0)
        with pytest.raises(NoHorizonError):
            kf.SpaceParams(3, 0, 0.0, 1.0)
        with pytest.raises(NoHorizonError):
            kf.SpaceParams(3, 1, -0.5, 1.0)

    def test_mass_area_roundtrip(self):
        p = kf.SpaceParams(4, -1, -0.05, 7.0)
        hd = kf.find_horizon(p)
        assert hd.horizon_mass_check == pytest.approx(p.m, rel=1e-10)
        assert hd.horizon_area == pytest.approx(hd.rho0**3 * 7.0, rel=1e-14)

    @pytest.mark.parametrize(
        "n,kappa,theta,area,expect",
        [
            (3, 1, 4 * math.pi, 4 * math.pi, 1.0),
            (3, 0, 5.0, 5.0, 0.5),
            (3, -1, 5.0, 5.0, 0.0),
        ],
    )
    def test_mass_from_horizon_area(self, n, kappa, theta, area, expect):
        got = kf.mass_from_horizon_area(area, n=n, kappa=kappa, theta=theta)
        assert got == pytest.approx(expect, abs=1e-14)


class TestPotential:
    def test_values(self, params_flat):
        assert kf.potential(params_flat, 2.0) == pytest.approx(math.sqrt(3.5), rel=1e-14)
        rho0 = kf.find_horizon(params_flat).rho0
        assert abs(kf.potential(params_flat, rho0)) < 2e-6  # sqrt of the root residual

    def test_domain_error(self, params_flat):
        with pytest.raises(DomainError):
            kf.potential(params_flat, 0.5)

    def test_hyperbolic_limit(self):
        p = kf.SpaceParams(3, 1, 1e-12, 4 * math.pi)
        for rho in (0.5, 1.0, 3.0):
            assert kf.potential(p, rho) == pytest.approx(math.sqrt(rho**2 + 1), rel=1e-9)


class TestWarpTable:
    def test_invariants(self, params_flat, warp_flat):
        w = warp_flat
        assert w.lam(0.0) == pytest.approx(kf.find_horizon(params_flat).rho0, rel=1e-14)
        assert abs(w.dlam(0.0)) < 1e-6
        assert np.all(np.diff(w.lam_nodes) > 0)
        assert w.identity_residual() < 1e-10
        assert w.convexity_margin() >= -1e-12

    def test_second_order_relation(self, params_flat, warp_flat):
        # lambda'' = lambda + (n-2) m lambda^(1-n) pointwise
        r = np.linspace(0.0, warp_flat.r_max, 777)
        lam = warp_flat.lam(r)
        expect = lam + params_flat.m / lam**2
        assert np.max(np.abs(warp_flat.ddlam(r) - expect) / np.abs(expect)) < 1e-12

    def test_exponential_growth_constant(self, warp_flat):
        _, variation = warp_flat.asymptotic_constant()
        assert variation < 1e-6

    def test_hyperbolic_reference(self):
        w = kf.hyperbolic_reference_table(3, r_max=12.0)
        r = np.linspace(0.05, 11.5, 40)
        assert np.max(np.abs(w.lam(r) - np.sinh(r)) / np.sinh(r)) < 1e-10
        assert np.max(np.abs(w.dlam(r) - np.cosh(r)) / np.cosh(r)) < 1e-10

    def test_inverse_lookup(self, warp_flat):
        for rho in (1.0001, 1.7, 2.0, 50.0, 1e6):
            r = warp_flat.r_from_rho(rho)
            assert float(warp_flat.lam(r)) == pytest.approx(rho, rel=1e-11)

    def test_resolution_error(self, params_flat):
        with pytest.raises(ResolutionError):
            kf.build_warp_table(params_flat, r_max=25.0, tol=1e-18)

    @pytest.mark.parametrize("field", ["r_max", "tol", "target_nodes"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_settings_must_be_positive_and_finite(self, params_flat, field, value):
        with pytest.raises(DomainError, match=field):
            kf.build_warp_table(params_flat, **{field: value})

    def test_critical_mass_table_rejected(self):
        p = kf.SpaceParams(3, -1, kf.critical_mass(3), 1.0)
        with pytest.raises(ResolutionError):
            kf.build_warp_table(p)

    def test_out_of_range(self, warp_flat):
        with pytest.raises(DomainError):
            warp_flat.lam(warp_flat.r_grid[-1] + 1.0)
        with pytest.raises(DomainError):
            warp_flat.lam(-0.5)

    def test_csv_dump(self, warp_flat, tmp_path):
        path = tmp_path / "warp.csv"
        warp_flat.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,lambda"
        assert len(lines) == len(warp_flat.r_grid) + 1

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=5),
        kappa=st.integers(min_value=-1, max_value=1),
        mscale=st.floats(min_value=0.05, max_value=5.0),
    )
    # Its polished horizon root leaves V^2 slightly positive; lambda'(0) must
    # still be exactly 0, or the residual at the first interval exceeds 1e-10.
    @example(n=3, kappa=-1, mscale=4.0)
    def test_identity_property(self, n, kappa, mscale):
        m = mscale if kappa >= 0 else mscale + 0.95 * kf.critical_mass(n)
        if kappa < 0 and m < 0.9 * kf.critical_mass(n):
            m = 0.9 * kf.critical_mass(n)
        p = kf.SpaceParams(n, kappa, m, 1.0)
        w = kf.build_warp_table(p, r_max=8.0, target_nodes=1500)
        assert w.identity_residual() < 1e-10
        assert w.convexity_margin() >= -1e-12


def _hermite_reference(x, xs, ys, ds, what="table"):
    """hermite_eval with the interval index and t clipped by np.clip."""
    x = np.asarray(x, dtype=float)
    lo, hi = xs[0], xs[-1]
    pad = 1e-12 * max(1.0, abs(hi))
    if np.any(x < lo - pad) or np.any(x > hi + pad):
        raise DomainError(
            f"{what}: evaluation at {float(np.min(x)):.6g}..{float(np.max(x)):.6g} "
            f"outside tabulated range [{lo:.6g}, {hi:.6g}]"
        )
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    h = xs[idx + 1] - xs[idx]
    t = np.clip((x - xs[idx]) / h, 0.0, 1.0)
    omt = 1.0 - t
    h00 = (1.0 + 2.0 * t) * omt * omt
    h10 = t * omt * omt
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    return h00 * ys[idx] + h * h10 * ds[idx] + h01 * ys[idx + 1] + h * h11 * ds[idx + 1]


class TestHermiteEval:
    """hermite_eval is bitwise equal to the np.clip reference everywhere in range."""

    @pytest.fixture
    def tables(self, warp_flat):
        hyp = kf.hyperbolic_reference_table(3, r_max=12.0)  # starts at lambda = 0
        two = (np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        return [
            (warp_flat.r_grid, warp_flat.lam_nodes, warp_flat.d_lam_nodes),
            (hyp.r_grid, hyp.lam_nodes, hyp.d_lam_nodes),
            two,
        ]

    @staticmethod
    def _points(xs):
        lo, hi = xs[0], xs[-1]
        pad = 1e-12 * max(1.0, abs(hi))
        rng = np.random.default_rng(4)
        return np.concatenate([
            xs,
            np.nextafter(xs, -np.inf)[1:],
            np.nextafter(xs, np.inf)[:-1],
            [lo - pad, lo, -0.0, hi, hi + pad],
            rng.uniform(lo, hi, 4096),
        ])

    def test_bitwise_equal_to_reference(self, tables):
        for xs, ys, ds in tables:
            x = self._points(xs)
            got = _util.hermite_eval(x, xs, ys, ds)
            want = _hermite_reference(x, xs, ys, ds)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            for xi in (x[0], x[len(xs) // 2], x[-1], float(x[-7])):
                got = _util.hermite_eval(xi, xs, ys, ds)
                want = _hermite_reference(xi, xs, ys, ds)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_out_of_range_raises_same_error(self, tables):
        for xs, ys, ds in tables:
            pad = 1e-12 * max(1.0, abs(xs[-1]))
            for bad in (xs[0] - 2.0 * pad, xs[-1] + 2.0 * pad, np.array([xs[0], xs[-1] + 1.0])):
                with pytest.raises(DomainError) as got:
                    _util.hermite_eval(bad, xs, ys, ds, "lambda")
                with pytest.raises(DomainError) as want:
                    _hermite_reference(bad, xs, ys, ds, "lambda")
                assert str(got.value) == str(want.value)


class TestCurvature:
    def test_constant_curvature_case(self):
        p = kf.SpaceParams(3, -1, 0.0, 1.0)
        w = kf.build_warp_table(p, r_max=10.0, target_nodes=1500)
        dev = kf.curvature_deviation(p, w, 3.0)
        assert dev.riem_dev == 0.0
        assert dev.ric_dev == 0.0
        assert dev.sec_tangential == pytest.approx(-1.0, rel=1e-14)
        assert dev.sec_radial == pytest.approx(-1.0, rel=1e-14)

    def test_mixed_component_identity(self, params_flat, warp_flat):
        # -lambda lambda'' ghat_ij equals -(1 + (n-2) m lambda^-n) bar-g_ij:
        # per unit bar-g the coefficients must agree.
        for r in (0.5, 2.0, 7.0):
            lam = float(warp_flat.lam(r))
            ddlam = float(warp_flat.ddlam(r))
            dev = kf.curvature_deviation(params_flat, warp_flat, r)
            assert -ddlam / lam == pytest.approx(dev.sec_radial, rel=1e-12)

    def test_decay_exponent(self, params_flat, warp_flat):
        # log of the deviation decays with slope -n in r over the last decade
        r = np.linspace(warp_flat.r_max - math.log(10.0), warp_flat.r_max - 0.05, 24)
        devs = [kf.curvature_deviation(params_flat, warp_flat, float(x)).riem_dev for x in r]
        slope = np.polyfit(r, np.log(devs), 1)[0]
        assert abs(slope + params_flat.n) < 0.05

    def test_positive_for_nonzero_mass(self, params_flat, warp_flat):
        dev = kf.curvature_deviation(params_flat, warp_flat, 1.0)
        assert dev.riem_dev > 0.0
        assert dev.ric_dev > 0.0


class TestGraphProfile:
    def test_equal_masses_trivial(self, params_flat):
        pair = kf.kottler_graph_profile(0.5, 0.5, params_flat)
        rho = np.array([1.5, 2.0, 10.0])
        assert np.all(pair.f_prime(rho) == 0.0)

    def test_radicand_invariant(self, params_flat):
        from dataclasses import replace

        pair = kf.kottler_graph_profile(0.5, 1.0, params_flat)
        pb = replace(params_flat, m=0.5)
        pg = replace(params_flat, m=1.0)
        rho = np.linspace(pair.rho_start + 1e-3, 40.0, 200)
        lhs = v_squared(pb, rho) * pair.f_prime(rho) ** 2
        rhs = 1.0 / v_squared(pg, rho) - 1.0 / v_squared(pb, rho)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-9

    def test_far_field_decay(self, params_flat):
        # f' = O(rho^(-(n+4)/2)): log-slope fit between 1e2 and 1e3
        pair = kf.kottler_graph_profile(0.5, 1.0, params_flat)
        rho = np.geomspace(1e2, 1e3, 9)
        slope = np.polyfit(np.log(rho), np.log(pair.f_prime(rho)), 1)[0]
        assert slope == pytest.approx(-(3 + 4) / 2.0, abs=0.05)

    def test_inverse_sqrt_blowup_at_start(self, params_flat):
        pair = kf.kottler_graph_profile(0.5, 1.0, params_flat)
        vals = [
            float(pair.f_prime(pair.rho_start + d)) * math.sqrt(d) for d in (1e-4, 1e-6, 1e-8)
        ]
        assert vals[0] == pytest.approx(vals[1], rel=2e-2)
        assert vals[1] == pytest.approx(vals[2], rel=2e-3)

    def test_second_derivative_consistency(self, params_flat):
        pair = kf.kottler_graph_profile(0.5, 1.0, params_flat)
        for rho in (1.5, 2.0, 5.0):
            h = 1e-5 * rho
            fd = (float(pair.f_prime(rho + h)) - float(pair.f_prime(rho - h))) / (2 * h)
            assert float(pair.f_prime2(rho)) == pytest.approx(fd, rel=1e-7)

    def test_wrong_order_rejected(self, params_flat):
        with pytest.raises(NonRepresentableGraphError):
            kf.kottler_graph_profile(1.0, 0.5, params_flat)

    def test_decay_order_fit(self, params_flat):
        pair = kf.kottler_graph_profile(0.5, 1.0, params_flat)
        assert profile_decay_order(pair.psi, 3) == pytest.approx(3.0, abs=0.05)
