"""Background geometry: horizon, potential, warp table and its lookups."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kflow as kf
from kflow import _util
from kflow.background import _v, _v_squared_prime, v_squared
from kflow.errors import (
    DomainError,
    InvalidDimensionError,
    NoHorizonError,
    ResolutionError,
)
from test_basegrid import _digests_by_blas_threads

FOUR_PI = 4.0 * math.pi

# (n, kappa, m, build_warp_table keywords): the four benchmark spaces, the
# massless kappa = -1 space, n = 5 and 7, kappa = -1 masses just above the
# critical one (long near-horizon families), tables that end inside the
# near-horizon family (r_max 0.5, 1.2) and a fine table.
WARP_CASES = [
    (3, 0, 0.5, {}),
    (3, 1, 1.0, {}),
    (4, 1, 1.0, {}),
    (3, -1, 0.5, {}),
    (3, -1, 0.0, {}),
    (5, 1, 1.0, {}),
    (7, 0, 0.5, {}),
    (3, -1, kf.critical_mass(3) + 1e-3, {}),
    (3, -1, kf.critical_mass(3) + 1e-6, {}),
    (4, -1, kf.critical_mass(4) + 1e-3, {}),
    (4, -1, kf.critical_mass(4) + 1e-6, {}),
    (3, 0, 0.5, {"r_max": 0.5}),
    (3, 0, 0.5, {"r_max": 1.2}),
    (3, 0, 0.5, {"target_nodes": 20000}),
]


def _one_array_table(params, r_max=25.0, target_nodes=4000):
    """The warp table as one array per panel family: every panel of both
    families evaluated at once, then cut after the first node at or beyond
    r_max.  The reference the block build must equal bit for bit."""
    h_target = r_max / max(200, int(target_nodes))
    rho_start = kf.find_horizon(params)
    rho_c = rho_start + max(1.0, 0.25 * rho_start)
    pp = float(_v_squared_prime(params, rho_start))
    xi_c = math.sqrt(rho_c - rho_start)
    n_a = int(np.clip(math.ceil(xi_c / (0.1 * h_target * math.sqrt(pp))), 64, 80000))
    xi_edges = xi_c * np.linspace(0.0, 1.0, n_a + 1)
    r_inc = _util.panel_integrals(lambda xi: 2.0 * xi / _v(params, rho_start + xi**2), xi_edges)
    rho_a = rho_start + xi_edges**2
    r_a = np.concatenate([[0.0], np.cumsum(r_inc)])
    d_sigma = 0.8 * h_target
    n_b = int(math.ceil(((r_max - r_a[-1]) * 1.3 + 2.0) / d_sigma))
    sig_edges = d_sigma * np.arange(n_b + 1)
    rho_of = lambda s: rho_c * np.exp(s)
    r_inc_b = _util.panel_integrals(lambda s: rho_of(s) / _v(params, rho_of(s)), sig_edges)
    rho_nodes = np.concatenate([rho_a, rho_of(sig_edges[1:])])
    r_nodes = np.concatenate([r_a, r_a[-1] + np.cumsum(r_inc_b)])
    stop = min(int(np.searchsorted(r_nodes, r_max)) + 1, len(r_nodes))
    return kf.WarpTable(params, r_nodes[:stop], rho_nodes[:stop])


def _warp_digest(case):
    """sha256 of the r, lambda and lambda' nodes of ``WARP_CASES[case]``'s table."""
    n, kappa, m, kw = WARP_CASES[case]
    warp = kf.build_warp_table(kf.SpaceParams(n, kappa, m, FOUR_PI), **kw)
    raw = warp.r_grid.tobytes() + warp.lam_nodes.tobytes() + warp.d_lam_nodes.tobytes()
    return hashlib.sha256(raw).hexdigest()


def _traced_peak(params, **kw):
    """tracemalloc's peak, in bytes, over one table build after a first one
    has filled the horizon and Gauss-rule caches."""
    kf.build_warp_table(params, **kw)
    tracemalloc.start()
    try:
        kf.build_warp_table(params, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert kf.find_horizon(p) == pytest.approx(rho_h, rel=1e-10)


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
        rho0 = kf.find_horizon(kf.SpaceParams(n, kappa, m, 4 * math.pi))
        assert type(rho0) is float
        assert rho0 == pytest.approx(expect, rel=1e-10)

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
            rho0 = kf.find_horizon(p)
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
        area = kf.find_horizon(p) ** (p.n - 1) * p.theta
        got = kf.mass_from_horizon_area(area, n=p.n, kappa=p.kappa, theta=p.theta)
        assert got == pytest.approx(p.m, rel=1e-10)

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

    @pytest.mark.parametrize("area", [0.0, math.nan, math.inf])
    def test_mass_from_horizon_area_domain(self, area):
        with pytest.raises(DomainError):
            kf.mass_from_horizon_area(area, n=3, kappa=0, theta=1.0)


class TestPotential:
    def test_values(self, params_flat):
        assert kf.potential(params_flat, 2.0) == pytest.approx(math.sqrt(3.5), rel=1e-14)
        rho0 = kf.find_horizon(params_flat)
        assert abs(kf.potential(params_flat, rho0)) < 2e-6  # sqrt of the root residual

    def test_domain_error(self, params_flat):
        with pytest.raises(DomainError):
            kf.potential(params_flat, 0.5)
        for rho in (math.nan, math.inf, np.array([2.0, math.nan])):
            with pytest.raises(DomainError):
                kf.potential(params_flat, rho)

    def test_hyperbolic_limit(self):
        p = kf.SpaceParams(3, 1, 1e-12, 4 * math.pi)
        for rho in (0.5, 1.0, 3.0):
            assert kf.potential(p, rho) == pytest.approx(math.sqrt(rho**2 + 1), rel=1e-9)


# (n, kappa, m) over n in {3, 4, 5} and kappa in {-1, 0, +1}: the massless and
# a negative mass at kappa = -1, and 2m = 1.4, not a power of two, everywhere.
ONE_FORM_SPACES = [(n, kappa, m) for n in (3, 4, 5)
                   for kappa, masses in ((-1, (0.0, -0.05, 0.7)), (0, (0.5, 0.7)), (1, (0.7, 1.0)))
                   for m in masses]


class TestOneForm:
    """V^2, lambda'' and V are written once, in the background: the geometry
    kernel, derivatives_at and the warp table's nodes read the same closed
    forms as v_squared and _v_squared_prime, bit for bit."""

    @pytest.mark.parametrize("n, kappa, m", ONE_FORM_SPACES)
    def test_sites_agree_bitwise(self, n, kappa, m):
        params = kf.SpaceParams(n, kappa, m, 4.0 * math.pi)
        warp = kf.build_warp_table(params, r_max=5.0, target_nodes=1000)
        lam = np.linspace(warp.rho0, 40.0, 100_001)[1:]
        v2 = v_squared(params, lam)
        half_prime = 0.5 * _v_squared_prime(params, lam)
        # The symmetric grid's derivatives vanish, so each entry of lam is a
        # slice of its own.
        grid = kf.make_grid("symmetric", 1, params.theta, n=n, kappa=kappa)
        surface = kf.GraphSurface.from_log_lambda(np.log(lam), grid, warp, lam=lam)
        assert kf.compute_geometry(surface).dlam_sq.tobytes() == v2.tobytes()
        dlam, ddlam = warp.derivatives_at(lam)
        assert dlam.tobytes() == np.sqrt(np.maximum(v2, 0.0)).tobytes()
        assert ddlam.tobytes() == half_prime.tobytes()
        nodes = warp.lam_nodes
        assert warp.d_lam_nodes[0] == 0.0  # the horizon slope, on every space
        assert warp.dd_lam_nodes.tobytes() == (0.5 * _v_squared_prime(params, nodes)).tobytes()
        assert warp.d_lam_nodes[1:].tobytes() == np.sqrt(v_squared(params, nodes[1:])).tobytes()


class TestWarpTable:
    def test_invariants(self, params_flat, warp_flat):
        w = warp_flat
        assert w.lam(0.0) == pytest.approx(kf.find_horizon(params_flat), rel=1e-14)
        assert abs(w.derivatives_at(w.lam(0.0))[0]) < 1e-6
        assert np.all(np.diff(w.lam_nodes) > 0)
        assert w.identity_residual() < 1e-10
        assert w.convexity_margin() >= -1e-12

    def test_second_order_relation(self, params_flat, warp_flat):
        # lambda'' = lambda + (n-2) m lambda^(1-n) pointwise
        r = np.linspace(0.0, warp_flat.r_max, 777)
        lam = warp_flat.lam(r)
        expect = lam + params_flat.m / lam**2
        ddlam = warp_flat.derivatives_at(lam)[1]
        assert np.max(np.abs(ddlam - expect) / np.abs(expect)) < 1e-12

    def test_torus_oracle(self, warp_flat):
        # lambda = cosh(3r/2)^(2/3) on n = 3, kappa = 0, m = 1/2 (docs/derivations.md,
        # "Torus oracle").  lambda' vanishes at the horizon, so its error is
        # taken against max(1, lambda'); r reaches the table's last decade.
        r = np.linspace(0.05, 24.0, 80)
        lam = np.cosh(1.5 * r) ** (2.0 / 3.0)
        dlam = np.sinh(1.5 * r) / np.cosh(1.5 * r) ** (1.0 / 3.0)
        got = warp_flat.lam(r)
        assert np.max(np.abs(got - lam) / lam) < 1e-10
        got_dlam = warp_flat.derivatives_at(got)[0]
        assert np.max(np.abs(got_dlam - dlam) / np.maximum(1.0, dlam)) < 1e-10
        assert np.max(np.abs(warp_flat.r_from_rho(lam) - r)) < 1e-10

    def test_inverse_lookup(self, warp_flat):
        for rho in (1.0001, 1.7, 2.0, 50.0, 1e6):
            r = warp_flat.r_from_rho(rho)
            assert float(warp_flat.lam(r)) == pytest.approx(rho, rel=1e-11)

    def test_inverse_lookup_vectorized(self, warp_flat, warp_hyp_sym):
        # One Newton solve per point: an array gives what each scalar gives,
        # a scalar gives a float, and lambda(r) returns rho to rounding.
        for w in (warp_flat, warp_hyp_sym):
            rho = np.concatenate([
                w.lam_nodes[[0, 1, 2, -2, -1]],
                w.rho0 * (1.0 + np.geomspace(1e-14, 1.0, 30)),
                np.geomspace(2.0 * w.rho0, w.lam_nodes[-1], 60),
            ])
            r = w.r_from_rho(rho)
            assert r.shape == rho.shape
            assert r[0] == 0.0
            assert np.all(np.diff(r[5:35]) > 0) and np.all(np.diff(r[35:]) > 0)
            assert np.max(np.abs(w.lam(r) - rho) / rho) < 1e-14
            scalar = w.r_from_rho(float(rho[40]))
            assert type(scalar) is float and scalar == r[40]
            grid_rho = rho[35:].reshape(6, 10)
            assert np.array_equal(w.r_from_rho(grid_rho), r[35:].reshape(6, 10))

    @pytest.mark.parametrize("rho", [0.5, math.nan, 1e30, [2.0, 0.5], [2.0, math.inf]])
    def test_inverse_lookup_out_of_range(self, warp_flat, rho):
        with pytest.raises(DomainError, match="outside tabulated range"):
            warp_flat.r_from_rho(rho)

    def test_resolution_error(self, params_flat):
        with pytest.raises(ResolutionError):
            kf.build_warp_table(params_flat, r_max=25.0, target_nodes=1000)

    @pytest.mark.parametrize("field", ["r_max", "target_nodes"])
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

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, warp_flat, r):
        with pytest.raises(DomainError):
            warp_flat.lam(r)
        with pytest.raises(DomainError):
            warp_flat.lam(np.array([1.0, r, 2.0]))

    def test_csv_dump(self, warp_flat, tmp_path):
        path = tmp_path / "warp.csv"
        warp_flat.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,lambda"
        assert len(lines) == len(warp_flat.r_grid) + 1
        # Every row is two numbers that read back to the nodes bit for bit.
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows[:, 0].tobytes() == warp_flat.r_grid.tobytes()
        assert rows[:, 1].tobytes() == warp_flat.lam_nodes.tobytes()

    @pytest.mark.parametrize("case", range(len(WARP_CASES)))
    def test_block_build_equals_one_array_build(self, case):
        # Blocks of panels, a sum carried across them and the stop at r_max
        # leave every node with the bits of the one-array build.
        n, kappa, m, kw = WARP_CASES[case]
        params = kf.SpaceParams(n, kappa, m, FOUR_PI)
        got = kf.build_warp_table(params, **kw)
        want = _one_array_table(params, **kw)
        assert got.r_grid.tobytes() == want.r_grid.tobytes()
        assert got.lam_nodes.tobytes() == want.lam_nodes.tobytes()
        assert got.d_lam_nodes.tobytes() == want.d_lam_nodes.tobytes()

    def test_block_build_bytes_do_not_depend_on_blas_threads(self):
        # Each block's panel sums are one BLAS matvec; a process with two
        # OpenBLAS threads builds every table with the bytes of one with one.
        cases = [(case,) for case in range(len(WARP_CASES))]
        one, two = _digests_by_blas_threads(cases, "test_background._warp_digest")
        assert one == two == [_warp_digest(*case) for case in cases]

    @pytest.mark.parametrize("r_max,bound_mb", [(25.0, 1.0), (0.5, 2.0)])
    def test_build_memory(self, params_flat, r_max, bound_mb):
        # A block's arrays are 80 KiB, and nothing past r_max is evaluated, so
        # a build's traced peak stays far below the whole-family arrays'.
        assert _traced_peak(params_flat, r_max=r_max) < bound_mb * 1e6

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
    def tables(self, warp_flat, warp_hyp_sym):
        two = (np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        return [
            (w.r_grid, w.lam_nodes, w.d_lam_nodes) for w in (warp_flat, warp_hyp_sym)
        ] + [two]

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


class TestGaussLegendre:
    """The tabulated Gauss-Legendre rules are scipy's to the bit, and no caller
    can change them for the rest of the process."""

    @pytest.mark.parametrize("order", [10, 12])
    def test_rules_are_scipys_bits(self, order):
        from scipy.special import roots_legendre

        x, w = _util._gl_rule(order)
        want_x, want_w = roots_legendre(order)
        assert x.dtype == want_x.dtype and w.dtype == want_w.dtype
        assert x.tobytes() == want_x.tobytes()
        assert w.tobytes() == want_w.tobytes()

    def test_untabulated_order_named(self):
        with pytest.raises(ValueError, match=r"8-point.*tabulated orders: \[10, 12\]"):
            _util._gl_rule(8)
        with pytest.raises(ValueError, match=r"tabulated orders: \[10, 12\]"):
            _util.panel_integrals(np.cos, [0.0, 1.0], order=11)

    @pytest.mark.parametrize("order", [10, 12])
    def test_rules_read_only(self, order):
        edges = np.linspace(0.0, 2.0, 5)
        before = _util.panel_integrals(np.exp, edges, order=order)
        for table in _util._gl_rule(order):
            with pytest.raises(ValueError):
                table[0] = 0.0
            with pytest.raises(ValueError):
                table *= 2.0
        after = _util.panel_integrals(np.exp, edges, order=order)
        assert after.tobytes() == before.tobytes()
        np.testing.assert_allclose(after.sum(), math.expm1(2.0), rtol=1e-14)


class TestFitLogSlope:
    """fit_log_slope is the least-squares slope of log y against x, as np.polyfit
    gives it, in both its uses: against log rho (decay exponents) and against
    t (exponential rates)."""

    def test_against_log_x(self):
        rho = np.geomspace(50.0, 800.0, 7)
        y = 3.0 * rho**-4.5 * (1.0 + 0.1 * np.sin(rho))
        want = np.polyfit(np.log(rho), np.log(y), 1)[0]
        assert _util.fit_log_slope(np.log(rho), y) == pytest.approx(want, rel=1e-12)

    def test_against_x(self):
        t = np.linspace(6.0, 10.0, 17)
        y = 2.0 * np.exp(-0.5 * t) * (1.0 + 0.05 * np.cos(3.0 * t))
        want = np.polyfit(t, np.log(y), 1)[0]
        assert _util.fit_log_slope(t, y) == pytest.approx(want, rel=1e-12)

    def test_non_positive_points_dropped(self):
        x = np.arange(6.0)
        y = np.array([1.0, 0.0, np.exp(-2.0), -1.0, np.exp(-4.0), np.exp(-5.0)])
        keep = y > 0.0
        want = np.polyfit(x[keep], np.log(y[keep]), 1)[0]
        assert _util.fit_log_slope(x, y) == pytest.approx(want, rel=1e-12)
        assert _util.fit_log_slope(x, np.where(x < 4.0, 0.0, y)) is None

