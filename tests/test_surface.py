"""Graph geometry: slice closed forms, variation oracle, deficit properties."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import kflow as kf
import kflow.background
import kflow.surface
from kflow.basegrid import ScalarField, differentiate
from kflow.errors import DomainError, MeanConvexityError

THETA = (2.0 * math.pi) ** 2
# The SurfaceGeometry fields formed on their first read.
_LAZY_FIELDS = ("speed", "H", "h_min", "dlam", "ddlam", "grad_phi_sq", "v", "functionals")


class TestSliceClosedForms:
    """The worked slice: n=3, kappa=0, m=1/2, lambda(u)=2, theta=(2 pi)^2.

    Closed forms: V = lambda' = sqrt(3.5), H = sqrt(3.5), p = lambda'' = 2.125,
    area = 4 theta, int VH = 14 theta, int p = 8.5 theta, int V/H = 4 theta,
    J = 7 theta, K = 7 theta, Q1 = Q2 = 0.
    """

    def test_pointwise(self, slice_flat):
        geom = kf.compute_geometry(slice_flat)
        assert np.max(np.abs(geom.v - 1.0)) < 1e-14
        assert np.max(np.abs(geom.H - math.sqrt(3.5))) < 1e-12
        assert np.max(np.abs(geom.p - 2.125)) < 1e-12
        assert np.max(np.abs(geom.dlam - math.sqrt(3.5))) < 1e-12

    def test_functionals(self, slice_flat):
        rec = kf.compute_geometry(slice_flat).functionals
        assert rec.area == pytest.approx(4.0 * THETA, rel=1e-12)
        assert rec.intVH == pytest.approx(14.0 * THETA, rel=1e-12)
        assert rec.intP == pytest.approx(8.5 * THETA, rel=1e-12)
        assert rec.intVoverH == pytest.approx(4.0 * THETA, rel=1e-12)
        assert rec.J == pytest.approx(7.0 * THETA, rel=1e-12)
        assert rec.K == pytest.approx(7.0 * THETA, rel=1e-12)
        assert abs(rec.Q1) < 1e-10
        assert abs(rec.Q2) < 1e-10

    def test_deficits_vanish(self, slice_flat):
        geom = kf.compute_geometry(slice_flat)
        scale = kf.deficit_scale(geom)
        assert abs(kf.minkowski_deficit(geom)) < 1e-12 * scale
        assert abs(kf.weighted_volume_deficit(geom)) < 1e-12 * scale
        assert abs(kf.heintze_karcher_deficit(geom)) < 1e-12 * scale
        assert abs(kf.divergence_identity_residual(geom)) < 1e-12 * scale

    def test_slice_generic_lambda(self, torus64, warp_flat, params_flat):
        # area, int VH, int p, J match the lambda-power closed forms
        n, m, th = 3, params_flat.m, params_flat.theta
        for lam in (1.5, 3.0, 6.0):
            rec = kf.compute_geometry(
                kf.slice_surface(torus64, warp_flat, lam_value=lam)
            ).functionals
            dlam2 = lam**2 - 2 * m / lam
            assert rec.area == pytest.approx(lam ** (n - 1) * th, rel=1e-10)
            assert rec.intVH == pytest.approx((n - 1) * dlam2 * lam ** (n - 2) * th, rel=1e-10)
            assert rec.intP == pytest.approx((lam + m / lam**2) * lam ** (n - 1) * th, rel=1e-10)
            assert rec.J == pytest.approx((lam**n - 1.0) * th, rel=1e-10)


class TestHyperbolicSliceLimit:
    def test_mean_curvature_coth(self):
        # kappa=1, m -> 0: H = (n-1) sqrt(lambda^2+1)/lambda = 2 coth(r),
        # approaching n-1 = 2 on large slices.
        p = kf.SpaceParams(3, 1, 1e-10, 4 * math.pi)
        w = kf.build_warp_table(p, r_max=12.0, target_nodes=2500)
        g = kf.make_grid("sphere_axisym", 32)
        for lam in (1.0, 2.0, 20.0, 1000.0):
            geom = kf.compute_geometry(kf.slice_surface(g, w, lam_value=lam))
            expect = 2.0 * math.sqrt(lam**2 + 1.0) / lam
            assert float(geom.H[0]) == pytest.approx(expect, rel=1e-8)
        assert float(geom.H[0]) == pytest.approx(2.0, rel=1e-5)


@pytest.fixture
def surfaces(torus64, warp_flat, sphere64, warp_sphere, sym_grid, warp_hyp_sym):
    """One graph on each grid mode: torus2d, sphere_axisym, symmetric."""
    return [
        kf.random_star_shaped(torus64, warp_flat, seed=2, amplitude=0.05,
                              base_r=warp_flat.r_from_rho(2.0)),
        kf.random_star_shaped(sphere64, warp_sphere, seed=2, amplitude=0.05,
                              base_r=warp_sphere.r_from_rho(3.0)),
        kf.slice_surface(sym_grid, warp_hyp_sym, lam_value=2.0),
    ]


def _u_path_mean_curvature(surface):
    """H formed from the fiber derivatives of the graph height u, as the
    geometry kernel did when u was the flow state: a reference for the
    kernel in s = log lambda(u)."""
    warp = surface.warp
    n = warp.params.n
    lam = warp.lam(surface.u.values)
    dlam, _ = warp.derivatives_at(lam)
    d = differentiate(surface.u)
    grad_phi_sq = d.grad_sq / lam**2
    v = np.sqrt(1.0 + grad_phi_sq)
    lap_phi = d.lap / lam - dlam * d.grad_sq / lam**2
    quad_phi = d.quad_form / lam**3 - dlam * d.grad_sq**2 / lam**4
    return ((n - 1) * dlam - (lap_phi - quad_phi / v**2)) / (lam * v)


class TestNoTableSearch:
    """A flow searches the warp table only in set-up: the geometry kernel
    differentiates s = log lambda(u) and reads lambda', lambda'' from the
    closed forms of lambda = e^s."""

    def test_no_table_search_in_run_flow(self, surfaces, monkeypatch):
        # Nor does it call derivatives_at: V^2 and lambda lambda'' are formed
        # in the kernel.
        calls = []
        originals = {"hermite_eval": kflow.background.hermite_eval,
                     "derivatives_at": kflow.background.WarpTable.derivatives_at}

        def counting(name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return originals[name](*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kflow.background, "hermite_eval", counting("hermite_eval"))
        monkeypatch.setattr(kflow.background.WarpTable, "derivatives_at",
                            counting("derivatives_at"))
        for surf in surfaces:
            calls.clear()
            trace = kf.run_flow(surf, kf.FlowConfig(t_end=0.5, record_interval=0.125))
            assert len(trace.dt_history) > 0
            assert calls == [], surf.grid.mode

    @pytest.mark.parametrize("index, bound", [(0, 1e-7), (1, 1e-9), (2, 1e-14)],
                             ids=["torus2d", "sphere_axisym", "symmetric"])
    def test_mean_curvature_matches_u_path(self, surfaces, index, bound):
        # The two kernels discretize different fields, so they agree to the
        # stencil error of the torus (measured 4.6e-8), the spectral error of
        # the sphere (1.9e-10) and rounding on the symmetric node.
        surf = surfaces[index]
        H = kf.compute_geometry(surf).H
        ref = _u_path_mean_curvature(surf)
        assert np.max(np.abs(H - ref) / np.abs(ref)) <= bound, surf.grid.mode


@pytest.fixture(scope="module")
def kernel_surfaces(torus64, warp_flat, sphere64, warp_sphere, sym_grid, warp_hyp_sym):
    """Perturbed graphs on the torus 64^2 and the n=3 and n=4 spheres, and a
    slice on the symmetric node."""
    params4 = kf.SpaceParams(4, 1, 1.0, 2.0 * math.pi**2)
    warp4 = kf.build_warp_table(params4)
    sphere4 = kf.make_grid("sphere_axisym", 64, n=4)
    cases = ((torus64, warp_flat, 2.0), (sphere64, warp_sphere, 3.0), (sphere4, warp4, 3.0))
    return [
        kf.random_star_shaped(grid, warp, seed=11, amplitude=0.05, base_r=warp.r_from_rho(lam))
        for grid, warp, lam in cases
    ] + [kf.slice_surface(sym_grid, warp_hyp_sym, lam_value=2.0)]


def _phi_path_geometry(surface):
    """lambda', lambda'', |grad phi|^2, v, H and ds/dt formed through the
    fiber coordinate phi, as the kernel did before it formed W and D: a
    reference for the W/D kernel to rounding."""
    n = surface.warp.params.n
    lam = surface.lam
    dlam, ddlam = surface.warp.derivatives_at(lam)
    d = differentiate(surface.s)
    dlam_sq = dlam * dlam
    c = lam * ddlam / dlam_sq
    grad_phi_sq = d.grad_sq / dlam_sq
    v_sq = 1.0 + grad_phi_sq
    v = np.sqrt(v_sq)
    lap_phi = (d.lap - c * d.grad_sq) / dlam
    quad_phi = (d.quad_form - c * d.grad_sq * d.grad_sq) / (dlam_sq * dlam)
    H = ((n - 1) * dlam - lap_phi + quad_phi / v_sq) / (lam * v)
    return {"dlam": dlam, "ddlam": ddlam, "grad_phi_sq": grad_phi_sq, "v": v, "H": H,
            "speed": v * dlam / (lam * H)}


def _reference_geometry(surface, q_by_division=False):
    """Every field of the W/D kernel with the expressions and operand order of
    the out-of-place formulas; q = m lambda^(2-n) is the power of the
    background's closed forms, or with ``q_by_division`` n-2 divisions by
    lambda, as the kernel once formed it."""
    params = surface.warp.params
    n = params.n
    lam = surface.lam
    d = differentiate(surface.s)
    q = params.m * lam ** (2 - n)
    if q_by_division:
        q = params.m / lam
        for _ in range(n - 3):
            q = q / lam
    dlam_sq = lam * lam + params.kappa - 2.0 * q
    lam_ddlam = lam * lam + (n - 2) * q
    W = dlam_sq + d.grad_sq
    D = ((n - 1) * dlam_sq - d.lap) * W + lam_ddlam * d.grad_sq + d.quad_form
    grad_phi_sq = d.grad_sq / dlam_sq
    H = D / (np.sqrt(W) * W * lam)
    return {"dlam_sq": dlam_sq, "lam_ddlam": lam_ddlam, "grad_s_sq": d.grad_sq, "W": W,
            "D": D, "speed": W * W / D, "H": H, "dlam": np.sqrt(dlam_sq),
            "ddlam": lam_ddlam / lam, "grad_phi_sq": grad_phi_sq,
            "v": np.sqrt(1.0 + grad_phi_sq)}


class TestInPlaceKernel:
    """compute_geometry forms V^2, W and D in place, and each field on its
    first read; every field stays bitwise equal to the out-of-place
    expressions (differentiate is pinned in test_basegrid)."""

    @pytest.mark.parametrize("index", range(4),
                             ids=["torus2d", "sphere_n3", "sphere_n4", "symmetric"])
    def test_fields_match_reference(self, kernel_surfaces, index):
        surf = kernel_surfaces[index]
        geom = kf.compute_geometry(surf)
        assert geom.lam is surf.lam
        for name, want in _reference_geometry(surf).items():
            assert np.array_equal(getattr(geom, name), want), name

    @pytest.mark.parametrize("index", range(4),
                             ids=["torus2d", "sphere_n3", "sphere_n4", "symmetric"])
    def test_fields_match_division_form(self, kernel_surfaces, index):
        # m lambda^(2-n) and (m / lambda) / lambda ... differ in the last bit.
        surf = kernel_surfaces[index]
        geom = kf.compute_geometry(surf)
        for name, want in _reference_geometry(surf, q_by_division=True).items():
            got = getattr(geom, name)
            scale = np.maximum(np.abs(want), np.finfo(float).tiny)
            assert np.max(np.abs(got - want) / scale) <= 1e-14, name

    @pytest.mark.parametrize("index", range(4),
                             ids=["torus2d", "sphere_n3", "sphere_n4", "symmetric"])
    def test_fields_match_phi_path(self, kernel_surfaces, index):
        # v^2 = W / V^2 and the c |grad s|^2 terms collapse to
        # lambda lambda'' |grad s|^2 / W (docs/derivations.md), so the two
        # kernels differ by rounding only.
        surf = kernel_surfaces[index]
        geom = kf.compute_geometry(surf)
        for name, want in _phi_path_geometry(surf).items():
            got = getattr(geom, name)
            scale = np.maximum(np.abs(want), np.finfo(float).tiny)
            assert np.max(np.abs(got - want) / scale) <= 1e-14, name

    def test_fields_formed_on_first_read(self, kernel_surfaces):
        geom = kf.compute_geometry(kernel_surfaces[0])
        assert not set(_LAZY_FIELDS) & set(vars(geom))
        for name in _LAZY_FIELDS:
            assert getattr(geom, name) is getattr(geom, name), name

    def test_massless_ddlam_is_a_new_array(self):
        # At m = 0, lambda'' = lambda; the kernel still returns its own array,
        # so an in-place write to one cannot change the other.
        params = kf.SpaceParams(3, -1, 0.0, 4.0 * math.pi)
        warp = kf.build_warp_table(params, r_max=8.0, target_nodes=1500)
        grid = kf.make_grid("symmetric", 1, params.theta, kappa=-1, n=3)
        surf = kf.slice_surface(grid, warp, lam_value=2.0)
        geom = kf.compute_geometry(surf)
        assert geom.ddlam is not surf.lam and not np.shares_memory(geom.ddlam, surf.lam)
        assert geom.ddlam.tobytes() == surf.lam.tobytes()
        lam = np.linspace(1.5, 40.0, 9)
        dlam, ddlam = warp.derivatives_at(lam)
        assert ddlam is not lam and ddlam.tobytes() == lam.tobytes()
        assert dlam.tobytes() == np.sqrt(np.maximum(lam * lam - 1.0, 0.0)).tobytes()


class TestLazyFields:
    """Each lazily formed field runs its formula once: later reads return the
    kept object.  A graph height given at construction is kept as given."""

    @staticmethod
    def _count_calls(monkeypatch, cls, name, calls):
        lazy = vars(cls)[name]
        formula = lazy.func

        def counted(obj):
            calls[name] = calls.get(name, 0) + 1
            return formula(obj)

        monkeypatch.setattr(lazy, "func", counted)

    def test_geometry_fields_formed_once(self, monkeypatch, surfaces):
        calls = {}
        for name in _LAZY_FIELDS:
            self._count_calls(monkeypatch, kf.SurfaceGeometry, name, calls)
        for surf in surfaces:
            calls.clear()
            geom = kf.compute_geometry(surf)
            for name in _LAZY_FIELDS:
                first = getattr(geom, name)
                assert getattr(geom, name) is first, (surf.grid.mode, name)
                assert vars(geom)[name] is first, (surf.grid.mode, name)
            # h_min reads H, and functionals reads dlam, H and v; each formula
            # still ran once.
            assert calls == dict.fromkeys(_LAZY_FIELDS, 1), surf.grid.mode

    def test_height_formed_once(self, monkeypatch, surfaces):
        calls = {}
        self._count_calls(monkeypatch, kf.GraphSurface, "u", calls)
        surf = surfaces[1]
        graph = kf.GraphSurface.from_log_lambda(surf.s.values.copy(), surf.grid, surf.warp)
        assert "u" not in vars(graph)
        u = graph.u
        assert graph.u is u and calls == {"u": 1}
        assert np.array_equal(u.values, surf.warp.r_from_rho(graph.lam))

    def test_given_height_is_kept(self, monkeypatch, surfaces):
        calls = {}
        self._count_calls(monkeypatch, kf.GraphSurface, "u", calls)
        surf = surfaces[1]
        u = ScalarField(surf.u.values.copy(), surf.grid)
        graph = kf.GraphSurface(u, surf.warp)
        assert graph.u is u and calls == {}


def _eager_record(geom):
    """The functional record formed eagerly, with the expressions and operand
    order compute_geometry used when it built the record on every call."""
    warp = geom.surface.warp
    params = warp.params
    n = params.n
    lam, dlam, ddlam, v, H = geom.lam, geom.dlam, geom.ddlam, geom.v, geom.H
    p = ddlam / v
    area_element = lam ** (n - 1) * v
    w = geom.surface.grid.quad_weights
    area = float(np.sum(w * area_element))
    int_vh = float(np.sum(w * dlam * H * area_element))
    int_p = float(np.sum(w * p * area_element))
    int_v_over_h = float(np.sum(w * (dlam / H) * area_element))
    rho0 = warp.rho0
    theta = params.theta
    j_val = float(np.sum(w * (lam**n - rho0**n)))
    k_val = theta * ((area / theta) ** (n / (n - 1)) - rho0**n)
    q1 = (int_vh - (n - 1) * j_val + (n - 1) * params.kappa * rho0 ** (n - 2) * theta) / area ** (
        (n - 2) / (n - 1)
    )
    q2 = (
        int_vh + 2.0 * (n - 1) * params.m * theta - (n - 1) * theta * (area / theta) ** (n / (n - 1))
    ) / (area / theta) ** ((n - 2) / (n - 1))
    return kf.FunctionalRecord(area=area, intVH=int_vh, intP=int_p, intVoverH=int_v_over_h,
                               J=j_val, K=k_val, Q1=q1, Q2=q2)


class TestRecordOnFirstRead:
    """compute_geometry forms only what a flow step reads; the functional
    record is formed on its first read, equal to the eager one, and kept."""

    def test_record_formed_on_first_read(self, surfaces):
        for surf in surfaces:
            geom = kf.compute_geometry(surf)
            assert "functionals" not in geom.__dict__, surf.grid.mode
            assert geom.functionals == _eager_record(geom), surf.grid.mode
            assert "functionals" in geom.__dict__
            assert geom.functionals is geom.functionals


class TestFirstVariationOracle:
    def test_mean_curvature_from_area_gradient(self, params_flat, warp_flat):
        # dArea/du_k = H_k lambda^(n-1)_k w_k (normal speed of a nodal bump
        # is du/v and dmu = lambda^(n-1) v w); finite-difference the discrete
        # area and compare.  Agreement is limited by the stencil error.
        grid = kf.make_grid("torus2d", 32, math.sqrt(params_flat.theta))
        surf = kf.random_star_shaped(grid, warp_flat, seed=12, amplitude=0.04,
                                     base_r=warp_flat.r_from_rho(2.0))
        geom = kf.compute_geometry(surf)

        def area_of(u_values):
            s = kf.GraphSurface(ScalarField(u_values, grid), warp_flat)
            return kf.compute_geometry(s).functionals.area

        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(6):
            i, j = rng.integers(0, 32), rng.integers(0, 32)
            up = surf.u.values.copy()
            um = surf.u.values.copy()
            up[i, j] += eps
            um[i, j] -= eps
            grad_fd = (area_of(up) - area_of(um)) / (2 * eps)
            expect = (
                geom.H[i, j] * geom.lam[i, j] ** 2 * grid.quad_weights[i, j]
            )
            assert grad_fd == pytest.approx(expect, rel=2e-3)


class TestDeficitProperties:
    def test_random_ensemble_nonnegative(self, torus64, warp_flat):
        base_r = warp_flat.r_from_rho(2.0)
        for seed in range(8):
            surf = kf.random_star_shaped(torus64, warp_flat, seed=seed, amplitude=0.1,
                                         base_r=base_r)
            geom = kf.compute_geometry(surf)
            scale = kf.deficit_scale(geom)
            assert kf.minkowski_deficit(geom) >= -1e-7 * scale
            assert kf.weighted_volume_deficit(geom) >= -1e-7 * scale
            assert kf.heintze_karcher_deficit(geom) >= -1e-7 * scale

    def test_hk_monotone_in_mean_curvature(self, torus64, warp_flat):
        # doubling H pointwise halves int V/H, so the deficit strictly drops
        surf = kf.random_star_shaped(torus64, warp_flat, seed=5, amplitude=0.08,
                                     base_r=warp_flat.r_from_rho(2.0))
        geom = kf.compute_geometry(surf)
        rec = geom.functionals
        halved = replace(rec, intVoverH=rec.intVoverH / 2.0)
        geom_halved = SimpleNamespace(surface=geom.surface, functionals=halved)
        assert kf.heintze_karcher_deficit(geom_halved) < kf.heintze_karcher_deficit(geom)

    def test_divergence_residual_is_quadrature_tight(self, torus64, warp_flat):
        # int p dmu has no stencil content (the v factors cancel) and the
        # torus quadrature is spectrally exact, so the residual sits at
        # rounding level for every graph, independent of resolution.
        surf = kf.random_star_shaped(torus64, warp_flat, seed=3, amplitude=0.1,
                                     base_r=warp_flat.r_from_rho(2.0))
        geom = kf.compute_geometry(surf)
        assert abs(kf.divergence_identity_residual(geom)) < 1e-9 * kf.deficit_scale(geom)

    def test_translation_invariance(self, torus64, warp_flat):
        surf = kf.random_star_shaped(torus64, warp_flat, seed=21, amplitude=0.1,
                                     base_r=warp_flat.r_from_rho(2.0))
        rolled = kf.GraphSurface(
            ScalarField(np.roll(np.roll(surf.u.values, 5, axis=0), 11, axis=1), torus64),
            warp_flat,
        )
        a = kf.compute_geometry(surf).functionals
        b = kf.compute_geometry(rolled).functionals
        for name in ("area", "intVH", "intP", "intVoverH", "J", "K", "Q1", "Q2"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-13)


class TestQ1SliceLadder:
    def test_kappa_zero_exact(self, torus64, warp_flat):
        for lam in (2.0, 4.0, 8.0):
            geom = kf.compute_geometry(kf.slice_surface(torus64, warp_flat, lam_value=lam))
            assert abs(geom.functionals.Q1) < 1e-10

    def test_kappa_pm_one_limit_value(self, sphere64, warp_sphere, sym_grid, warp_hyp_sym):
        # every slice realizes the flow-limit value (n-1) kappa theta^(1/(n-1))
        for grid, warp, kappa in ((sphere64, warp_sphere, 1), (sym_grid, warp_hyp_sym, -1)):
            target = 2.0 * kappa * math.sqrt(grid.theta)
            for lam in (2.0, 4.0, 8.0):
                geom = kf.compute_geometry(kf.slice_surface(grid, warp, lam_value=lam))
                assert geom.functionals.Q1 == pytest.approx(target, rel=1e-10)
                assert geom.functionals.Q1 >= target - 1e-10 * abs(target)


class TestRandomSurface:
    def test_amplitude_zero_is_slice(self, torus64, warp_flat):
        base_r = warp_flat.r_from_rho(2.0)
        surf = kf.random_star_shaped(torus64, warp_flat, seed=9, amplitude=0.0, base_r=base_r)
        assert np.all(surf.u.values == base_r)

    def test_deterministic(self, torus64, warp_flat):
        base_r = warp_flat.r_from_rho(2.0)
        a = kf.random_star_shaped(torus64, warp_flat, seed=31, amplitude=0.07, base_r=base_r)
        b = kf.random_star_shaped(torus64, warp_flat, seed=31, amplitude=0.07, base_r=base_r)
        assert np.array_equal(a.u.values, b.u.values)

    def test_always_mean_convex(self, torus64, warp_flat):
        base_r = warp_flat.r_from_rho(2.0)
        for seed in range(12):
            surf = kf.random_star_shaped(torus64, warp_flat, seed=seed, amplitude=0.35,
                                         base_r=base_r)
            assert float(kf.compute_geometry(surf).H.min()) > 0.0

    def test_negative_amplitude_rejected(self, torus64, warp_flat):
        for amplitude in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="amplitude"):
                kf.random_star_shaped(torus64, warp_flat, seed=0, amplitude=amplitude, base_r=1.0)


class TestValidation:
    def test_mean_convexity_error_carries_nodes(self, torus64, warp_flat):
        # a deep narrow well forces H < 0 somewhere
        x, y = np.meshgrid(torus64.coords[0], torus64.coords[1], indexing="ij")
        L = math.sqrt(torus64.theta)
        u = 1.1 + 0.9 * np.cos(2 * math.pi * x / L) * np.cos(2 * math.pi * y / L)
        surf = kf.GraphSurface(ScalarField(u, torus64), warp_flat)
        with pytest.raises(MeanConvexityError) as err:
            kf.compute_geometry(surf)
        assert err.value.nodes is not None and len(err.value.nodes) > 0

    def test_positive_height_required(self, torus64, warp_flat):
        with pytest.raises(DomainError):
            kf.GraphSurface(ScalarField.constant(torus64, 0.0), warp_flat)

    def test_table_range_required(self, torus64, warp_flat):
        with pytest.raises(DomainError):
            kf.GraphSurface(
                ScalarField.constant(torus64, warp_flat.r_grid[-1] + 1.0), warp_flat
            )

    def test_grid_background_mismatch(self, sphere64, warp_flat):
        with pytest.raises(kf.ConfigurationError):
            kf.GraphSurface(ScalarField.constant(sphere64, 1.0), warp_flat)


    def test_nan_mean_curvature_is_a_convexity_failure(self):
        # Next to the horizon V rounds to 0, so |grad phi|^2 = 0/0 and H is
        # NaN at every node; min H > 0 fails on NaN and the error lists them.
        params = kf.SpaceParams(3, 1, 1.0, 4.0 * math.pi)
        warp = kf.build_warp_table(params)
        grid = kf.make_grid("sphere_axisym", 16)
        surf = kf.slice_surface(grid, warp, lam_value=np.nextafter(warp.rho0, math.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(MeanConvexityError, match="min H = nan") as err:
                kf.compute_geometry(surf)
        assert len(err.value.nodes) == grid.resolution

    def test_horizon_node_with_gradient_noise_is_a_convexity_failure(self, warp_sphere):
        # s = log lambda carries rounding noise of 1e-17 while e^s rounds to
        # lambda = 1, where V^2 = 1 + 1 - 2 m / lambda is exactly 0.  Then
        # W = |grad s|^2 > 0 and D ~ lambda lambda'' |grad s|^2 > 0 at every
        # node, so only the V^2 > 0 test catches it, with the error it had
        # when H was formed through V and came out NaN.
        grid = kf.make_grid("sphere_axisym", 16)
        surf = kf.GraphSurface.from_log_lambda(1e-17 * grid.coords[0], grid, warp_sphere)
        assert np.all(surf.lam == 1.0) and warp_sphere.rho0 < 1.0
        d = differentiate(surf.s)
        assert np.all(d.grad_sq > 0.0)
        with pytest.raises(MeanConvexityError, match="min H = nan") as err:
            kf.compute_geometry(surf)
        assert len(err.value.nodes) == grid.resolution

    def test_h_min_is_min_h(self, surfaces):
        for surf in surfaces:
            geom = kf.compute_geometry(surf)
            assert geom.h_min == float(geom.H.min()) and geom.h_min > 0.0


def _validated_surface(s_values, grid, warp):
    """A flow stage built the validated way: ScalarField's finiteness scan,
    the grid check, e^s with overflow ignored and the elementwise range test."""
    s = ScalarField(s_values, grid)
    kflow.surface._check_grid(grid, warp)
    with np.errstate(over="ignore"):
        lam = np.exp(s.values)
    assert ((lam > warp.rho0) & (lam <= warp.lam_nodes[-1])).all()
    return SimpleNamespace(s=s, lam=lam, warp=warp, grid=grid)


def _validated_step(surface, geometry, dt):
    grid, warp = surface.grid, surface.warp
    s = surface.s.values
    half = _validated_surface(s + 0.5 * dt * geometry.speed, grid, warp)
    geom_half = kf.compute_geometry(half)
    new = _validated_surface(s + dt * geom_half.speed, grid, warp)
    return new, kf.compute_geometry(new)


class TestLeanStage:
    """A flow stage checks only the range of lambda = e^s; its results are
    bitwise those of the validated construction, and every bad s is a
    DomainError with no floating-point warning."""

    @pytest.mark.parametrize("index", range(4),
                             ids=["torus2d", "sphere_n3", "sphere_n4", "symmetric"])
    def test_steps_match_validated_path(self, kernel_surfaces, index):
        surf = kernel_surfaces[index]
        lean = ref = (surf, kf.compute_geometry(surf))
        for _ in range(5):
            lean = kf.flow_step(*lean, 0.005)
            ref = _validated_step(*ref, 0.005)
            assert np.array_equal(lean[0].s.values, ref[0].s.values)
            assert np.array_equal(lean[0].lam, ref[0].lam)
            assert lean[0].lam_min == ref[0].lam.min() and lean[0].lam_max == ref[0].lam.max()
            for name in ("dlam", "ddlam", "grad_phi_sq", "v", "H", "speed"):
                assert np.array_equal(getattr(lean[1], name), getattr(ref[1], name)), name

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 800.0],
                             ids=["nan", "inf", "-inf", "800"])
    def test_bad_stage_raises_without_warning(self, surfaces, bad):
        for surf in surfaces:
            s = surf.s.values.copy()
            s.reshape(-1)[-1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="outside tabulated range"):
                    kf.GraphSurface.from_log_lambda(s, surf.grid, surf.warp)


def _area_power_forms(geom):
    """minkowski_deficit, weighted_volume_deficit and deficit_scale written
    over the area powers (|Sigma|/theta)^(n/(n-1)) and ^((n-2)/(n-1)), as they
    were formed before the deficits were read off Q2 and Q1: references."""
    params = geom.surface.warp.params
    n, kappa, theta = params.n, params.kappa, params.theta
    rho0 = geom.surface.warp.rho0
    rec = geom.functionals
    a_ratio = rec.area / theta
    hi = theta * (a_ratio ** (n / (n - 1)) - rho0**n)
    lo = theta * (a_ratio ** ((n - 2) / (n - 1)) - rho0 ** (n - 2))
    minkowski = rec.intVH - (n - 1) * kappa * lo - (n - 1) * hi
    weighted_volume = rec.intVH - (n - 1) * rec.J - (n - 1) * kappa * lo
    scale = max((
        abs(rec.intVH),
        (n - 1) * abs(rec.J),
        (n - 1) * abs(hi),
        (n - 1) * abs(kappa) * abs(lo),
        abs(rec.intP),
        (n - 1) * abs(rec.intVoverH),
        abs(rec.J + rho0**n * theta),
        (0.5 * n * rho0**n + 0.5 * (n - 2) * abs(kappa) * rho0 ** (n - 2)) * theta,
    ))
    return minkowski, weighted_volume, scale


class TestPenroseAFIdentity:
    """penrose_deficit(m + c int VH, |Sigma|) = c minkowski_deficit(Sigma)
    = c (|Sigma|/theta)^((n-2)/(n-1)) (Q2 - (n-1) kappa theta), with
    c = 1/(2 (n-1) theta): the Penrose bound for a graph is the weighted
    Alexandrov-Fenchel inequality (it uses 2m = rho0^n + kappa rho0^(n-2)).

    The two deficits read off Q2 and Q1 agree with their area-power forms to
    1e-12 of deficit_scale, which is bitwise that of the area-power form."""

    @staticmethod
    def _sides(geom):
        params = geom.surface.warp.params
        n, kappa, theta = params.n, params.kappa, params.theta
        rec = geom.functionals
        c = 1.0 / (2.0 * (n - 1) * theta)
        mass = params.m + c * rec.intVH
        x = (rec.area / theta) ** (1.0 / (n - 1))
        scale = max(abs(mass), 0.5 * x**n, 0.5 * abs(kappa) * x ** (n - 2))
        minkowski_ref, weighted_volume_ref, scale_ref = _area_power_forms(geom)
        assert kf.deficit_scale(geom) == scale_ref
        for got, ref in ((kf.minkowski_deficit(geom), minkowski_ref),
                         (kf.weighted_volume_deficit(geom), weighted_volume_ref)):
            assert abs(got - ref) <= 1e-12 * scale_ref
        return (
            kf.penrose_deficit(mass, rec.area, params),
            c * kf.minkowski_deficit(geom),
            c * (rec.area / theta) ** ((n - 2) / (n - 1)) * (rec.Q2 - (n - 1) * kappa * theta),
        ), scale

    @pytest.fixture(scope="class")
    def backgrounds(self, torus64, warp_flat, sphere64, warp_sphere):
        params4 = kf.SpaceParams(4, 1, 1.0, 2.0 * math.pi**2)
        return [(torus64, warp_flat, 2.0), (sphere64, warp_sphere, 3.0),
                (kf.make_grid("sphere_axisym", 64, n=4), kf.build_warp_table(params4), 3.0)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("index", range(3), ids=["torus2d", "sphere_n3", "sphere_n4"])
    def test_random_graphs(self, backgrounds, index, seed):
        grid, warp, lam = backgrounds[index]
        surf = kf.random_star_shaped(grid, warp, seed=seed, amplitude=0.05,
                                     base_r=warp.r_from_rho(lam))
        (penrose, minkowski, q2_form), scale = self._sides(kf.compute_geometry(surf))
        assert penrose > 0.0  # a non-slice graph: the inequality is strict
        assert abs(penrose - minkowski) <= 1e-12 * scale
        assert abs(penrose - q2_form) <= 1e-12 * scale

    @pytest.mark.parametrize("n, kappa", [(3, -1), (3, 0), (3, 1), (4, -1), (4, 1)])
    def test_symmetric_slices(self, n, kappa):
        theta = 4.0 * math.pi
        params = kf.SpaceParams(n, kappa, 1.0, theta)
        warp = kf.build_warp_table(params)
        grid = kf.make_grid("symmetric", 1, theta, kappa=kappa, n=n)
        for lam in (1.5 * warp.rho0, 3.0 * warp.rho0, 10.0 * warp.rho0):
            geom = kf.compute_geometry(kf.slice_surface(grid, warp, lam_value=lam))
            sides, scale = self._sides(geom)
            for side in sides:  # equality on slices
                assert abs(side) <= 1e-12 * scale
