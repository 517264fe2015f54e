"""Base-manifold discretization: quadrature, stencils, sharp Sobolev deficit."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kflow

from kflow.basegrid import (
    ScalarField,
    _barycentric,
    _torus_derivatives,
    beckner_report,
    differentiate,
    integrate,
    low_frequency_field,
    make_grid,
)
from kflow.errors import ConfigurationError, DomainError

# Torus sizes for the band-product checks: one tile (8, 12, and the prime 13),
# one-row tiles (the prime 17), and several 16-row tiles (64, 96, 128).
TORUS_SIZES = (8, 12, 13, 17, 64, 96, 128)


def _torus(m):
    return make_grid("torus2d", m, 2.0 * math.pi)


def _roll_d1(f, axis, dx):
    r1, r2 = np.roll(f, -1, axis), np.roll(f, -2, axis)
    l1, l2 = np.roll(f, 1, axis), np.roll(f, 2, axis)
    return (l2 - 8.0 * l1 + 8.0 * r1 - r2) / (12.0 * dx)


def _roll_d2(f, axis, dx):
    r1, r2 = np.roll(f, -1, axis), np.roll(f, -2, axis)
    l1, l2 = np.roll(f, 1, axis), np.roll(f, 2, axis)
    return (-l2 + 16.0 * l1 - 30.0 * f + 16.0 * r1 - r2) / (12.0 * dx * dx)


def _product_reference(f, grid):
    """fx, fy, fxx, 2 fxy, fyy as the band products written out tile by tile;
    2 fxy is d/dx of fy by the doubled band."""
    bands, bands_t = grid.aux["bands"], grid.aux["bands_t"]
    b, m = bands.shape[1], f.shape[0]
    g = f - f[0, 0]

    def along_x(a, band):
        p = np.concatenate((a[-2:], a, a[:2]))
        return np.concatenate([band @ p[k * b:k * b + b + 4] for k in range(m // b)])

    def along_y(a, band_t):
        p = np.concatenate((a[:, -2:], a, a[:, :2]), axis=1)
        return np.concatenate([p[:, k * b:k * b + b + 4] @ band_t for k in range(m // b)], axis=1)

    fy = along_y(g, bands_t[0])
    fxy2 = along_x(fy, 2.0 * bands[0])
    return along_x(g, bands[0]), fy, along_x(g, bands[1]), fxy2, along_y(g, bands_t[1])


def _derivative_digest(mode, m):
    """sha256 of a grid's stored operators and the derivatives of a rough field."""
    grid = make_grid(mode, m, 2.0 * math.pi if mode == "torus2d" else None)
    f = 1.0 + np.random.default_rng(m).normal(size=grid.shape)
    d = differentiate(ScalarField(f, grid))
    operators = [a.tobytes() for _, a in sorted(grid.aux.items()) if isinstance(a, np.ndarray)]
    raw = b"".join(operators) + d.lap.tobytes() + d.grad_sq.tobytes() + d.quad_form.tobytes()
    return hashlib.sha256(raw).hexdigest()


def _rule_digest(n, m):
    """sha256 of a sphere grid's nodes and quadrature weights."""
    grid = make_grid("sphere_axisym", m, n=n)
    return hashlib.sha256(grid.aux["mu"].tobytes() + grid.quad_weights.tobytes()).hexdigest()


def _digests_by_blas_threads(cases, digest="test_basegrid._derivative_digest"):
    """``digest(*case)`` for each case, from one process with one OpenBLAS
    thread and one with two.  ``digest`` names a function as
    ``test_module.function``; the tests directory is on the path."""
    module, name = digest.rsplit(".", 1)
    code = (
        f"from {module} import {name} as digest\n"
        f"for case in {list(cases)!r}:\n"
        "    print(digest(*case))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kflow.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, here, env.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        digests.append(out.stdout.split())
    return digests


class TestMakeGrid:
    def test_weights_sum_to_theta(self, torus64, sphere64, sym_grid):
        for g in (torus64, sphere64, sym_grid):
            assert abs(g.quad_weights.sum() - g.theta) <= 1e-12 * g.theta

    def test_bad_pairings(self):
        with pytest.raises(ConfigurationError):
            make_grid("torus2d", 32, 1.0, kappa=-1)
        with pytest.raises(ConfigurationError):
            make_grid("sphere_axisym", 32, kappa=0)
        with pytest.raises(ConfigurationError):
            make_grid("torus2d", 32, 1.0, n=4)
        with pytest.raises(ConfigurationError):
            make_grid("symmetric", 1, 5.0)  # kappa required
        with pytest.raises(ConfigurationError):
            make_grid("torus2d", 4, 1.0)  # resolution >= 8
        with pytest.raises(ConfigurationError):
            make_grid("nosuch", 16, 1.0)

    def test_sphere_area_is_fixed(self):
        with pytest.raises(ConfigurationError):
            make_grid("sphere_axisym", 32, 5.0)
        g = make_grid("sphere_axisym", 32, 4 * math.pi)
        assert g.theta == pytest.approx(4 * math.pi, rel=1e-14)

    def test_symmetric_theta_free(self):
        g = make_grid("symmetric", 1, 7.0, kappa=1, n=4)
        assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(7.0, rel=1e-14)


# Sizes for the sphere rule checks: a single-tile grid, odd sizes with a node
# at mu = 0, the flow's 64 and the largest grids the tests build.
RULE_SIZES = (8, 9, 16, 33, 64, 128, 256, 512)


class TestSphereRule:
    """The Gauss-Jacobi rule of ``sphere_axisym`` grids, computed with numpy:
    Golub-Welsch nodes and barycentric weights.  Each tolerance sits above
    the largest error measured over these sizes (noted per test)."""

    @pytest.mark.parametrize("m", RULE_SIZES)
    def test_n4_closed_form(self, m):
        # For n = 4 the weight is (1 - mu^2)^(1/2): the nodes are the zeros
        # cos(k pi / (m+1)) of the Chebyshev U_m, and the weights go as
        # sin^2(k pi / (m+1)).  Measured: 7.2e-16 on the nodes, 7.2e-12 on the
        # weights (m = 512).
        grid = make_grid("sphere_axisym", m, n=4)
        angle = np.arange(m, 0, -1) * math.pi / (m + 1)
        want_w = np.sin(angle) ** 2
        want_w *= grid.theta / want_w.sum()
        assert np.max(np.abs(grid.aux["mu"] - np.cos(angle))) <= 1e-15
        assert np.max(np.abs(grid.quad_weights / want_w - 1.0)) <= 1e-11

    @pytest.mark.parametrize("m", [16, 64, 256])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_moments(self, n, m):
        # int mu^(2j) (1 - mu^2)^a dmu = B(j + 1/2, a + 1), a = (n-3)/2, is
        # exact for 2j <= 2m - 1; its ratio to the j = 0 moment is the product
        # of (i + 1/2) / (i + a + 3/2) over i < j.  Measured: 8.9e-13.
        grid = make_grid("sphere_axisym", m, n=n)
        a = (n - 3) / 2.0
        mu_sq, w = grid.aux["mu"] ** 2, grid.quad_weights / grid.theta
        power, ratio = np.ones(m), 1.0
        for j in range(m):
            assert abs(np.sum(w * power) / ratio - 1.0) <= 2e-12, j
            power *= mu_sq
            ratio *= (j + 0.5) / (j + a + 1.5)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_scipy(self, n):
        # scipy's roots_jacobi to 1e-15 in the nodes and 1e-9 in the weights
        # (measured: 6.7e-16 and 1.3e-10).  Not past m = 256: there scipy's own
        # Gauss-Legendre weights are 1.4e-9 from numpy's leggauss.
        from scipy.special import roots_jacobi

        a = (n - 3) / 2.0
        for m in RULE_SIZES[:-1]:
            grid = make_grid("sphere_axisym", m, n=n)
            mu, w = roots_jacobi(m, a, a)
            w *= grid.theta / w.sum()
            assert np.max(np.abs(grid.aux["mu"] - mu)) <= 1e-15, m
            assert np.max(np.abs(grid.quad_weights / w - 1.0)) <= 1e-9, m

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_structure(self, n):
        # Nodes strictly increase inside (-1, 1); nodes and weights are
        # mirror-symmetric bit for bit, with mu = 0 at the middle of odd rules.
        for m in RULE_SIZES:
            grid = make_grid("sphere_axisym", m, n=n)
            mu, w = grid.aux["mu"], grid.quad_weights
            assert -1.0 < mu[0] and mu[-1] < 1.0 and np.all(np.diff(mu) > 0.0), m
            assert np.array_equal(mu, -mu[::-1]) and np.array_equal(w, w[::-1]), m
            assert np.all(w > 0.0), m
            if m % 2:
                assert mu[m // 2] == 0.0, m

    @pytest.mark.parametrize("m", [8, 9, 33])
    def test_barycentric_weights(self, m):
        # The log-sum weights with the alternating sign (-1)^(m-1-j) equal
        # 1 / prod_k (x_j - x_k), scaled to max |lambda| = 1.
        x = make_grid("sphere_axisym", m).aux["mu"]
        dx, lam = _barycentric(x)
        assert np.array_equal(np.diag(dx), np.ones(m))
        direct = 1.0 / np.prod(dx, axis=1)
        assert np.allclose(lam, direct / np.max(np.abs(direct)), rtol=1e-13, atol=0.0)

    def test_bytes_do_not_depend_on_blas_threads(self):
        cases = [(n, m) for n in (3, 4, 5) for m in (64, 256, 512)]
        one, two = _digests_by_blas_threads(cases, "test_basegrid._rule_digest")
        assert one == two == [_rule_digest(*case) for case in cases]


class TestQuadrature:
    def test_torus_constant(self, torus64):
        f = ScalarField.constant(torus64, 1.0)
        assert integrate(f) == pytest.approx(torus64.theta, rel=1e-13)

    def test_torus_sine_vanishes(self, torus64):
        x, _ = np.meshgrid(torus64.coords[0], torus64.coords[1], indexing="ij")
        L = math.sqrt(torus64.theta)
        f = ScalarField(np.sin(2 * math.pi * x / L), torus64)
        assert abs(integrate(f)) < 1e-12

    def test_sphere_constant(self, sphere64):
        assert integrate(ScalarField.constant(sphere64, 1.0)) == pytest.approx(
            4 * math.pi, abs=1e-10
        )

    def test_sphere_cos_squared(self, sphere64):
        # 2 pi int_0^pi cos^2 sin = 4 pi / 3
        mu = sphere64.aux["mu"]
        f = ScalarField(mu**2, sphere64)
        assert integrate(f) == pytest.approx(4 * math.pi / 3.0, abs=1e-8)

    def test_quadrature_exactness_polynomials(self, sphere64):
        # Gauss-Jacobi nodes integrate polynomials in mu = cos(theta) exactly
        mu = sphere64.aux["mu"]
        for k, exact in ((4, 4 * math.pi / 5.0), (6, 4 * math.pi / 7.0)):
            got = integrate(ScalarField(mu**k, sphere64))
            assert abs(got - exact) <= 10 * np.finfo(float).eps * sphere64.resolution * 4 * math.pi

    def test_divergence_free(self, torus64, sphere64):
        for g in (torus64, sphere64):
            pert = low_frequency_field(g, seed=5, amplitude=1.0)
            d = differentiate(ScalarField(pert, g))
            norm = float(np.max(np.abs(pert)))
            assert abs(integrate(ScalarField(d.lap, g))) <= 1e-10 * max(1.0, norm)


class TestDerivatives:
    def test_torus_eigenfunction(self, torus64):
        L = math.sqrt(torus64.theta)
        x, _ = np.meshgrid(torus64.coords[0], torus64.coords[1], indexing="ij")
        f = ScalarField(np.sin(2 * math.pi * x / L), torus64)
        d = differentiate(f)
        k2 = (2 * math.pi / L) ** 2
        # 4th-order stencil: error ~ (k dx)^4 / 30
        dx = torus64.aux["dx"]
        bound = 5 * k2 * (2 * math.pi / L * dx) ** 4
        assert np.max(np.abs(d.lap + k2 * f.values)) < bound

    def test_sphere_spherical_harmonic(self, sphere64):
        mu = sphere64.aux["mu"]
        d = differentiate(ScalarField(mu.copy(), sphere64))
        assert np.max(np.abs(d.lap + 2.0 * mu)) < 1e-10

    def test_constants_annihilated(self, torus64, sphere64, sym_grid):
        for g in (torus64, sphere64, sym_grid):
            d = differentiate(ScalarField.constant(g, 4.2))
            for arr in (d.lap, d.grad_sq, d.quad_form):
                assert np.max(np.abs(arr)) <= 1e-12 * 4.2
        # On the torus a constant gives exact zeros at every size.
        for m in TORUS_SIZES:
            for c in (4.2, 1.0 / 3.0, -7.1, 0.0):
                d = differentiate(ScalarField.constant(_torus(m), c))
                for arr in (d.lap, d.grad_sq, d.quad_form):
                    assert not np.any(arr), (m, c)

    def test_torus_mixed_partial_symmetry(self, torus64):
        pert = low_frequency_field(torus64, seed=9, amplitude=1.0)
        f = ScalarField(pert, torus64)
        d = differentiate(f)
        # quad_form must match its definition from the stencil derivatives;
        # the kernel returns the cross derivative doubled, as 2 fxy.
        fx, fy, fxx, fxy2, fyy = _torus_derivatives(f.values, torus64.aux)
        expect = fx**2 * fxx + fx * fy * fxy2 + fy**2 * fyy
        assert np.max(np.abs(d.quad_form - expect)) == 0.0
        # The stencils commute: d/dx of fy is d/dy of fx, up to the rounding
        # of a difference quotient of fx.
        dx = torus64.aux["dx"]
        fyx = _roll_d1(fx, 1, dx)
        assert np.max(np.abs(fxy2 - 2.0 * fyx)) <= 1e-13 * np.max(np.abs(fx)) / dx

    def test_torus_stencils_match_roll_reference(self, torus64):
        # The bands hold the stencil weights: (1, -8, 0, 8, -1) / (12 dx) and
        # (-1, 16, -30, 16, -1) / (12 dx^2) on columns r..r+4 of row r.
        dx = torus64.aux["dx"]
        bands = torus64.aux["bands"]
        expect = np.zeros_like(bands)
        for r in range(bands.shape[1]):
            expect[0, r, r:r + 5] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dx)
            expect[1, r, r:r + 5] = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dx * dx)
        assert np.array_equal(bands, expect)
        assert np.array_equal(torus64.aux["bands_t"], bands.transpose(0, 2, 1))
        assert np.array_equal(torus64.aux["cross_band"], 2.0 * bands[0])
        # Each derivative is bitwise the tile-by-tile product, and agrees with
        # the stencil formulas on np.roll neighbours to rounding, also on a
        # rough field where any misplaced neighbour or tile would show.
        for m in TORUS_SIZES:
            grid = _torus(m)
            dx = grid.aux["dx"]
            f = np.random.default_rng(17).normal(size=grid.shape)
            got = _torus_derivatives(f, grid.aux)
            for a, want in zip(got, _product_reference(f, grid)):
                assert a.tobytes() == want.tobytes(), m
            fy = _roll_d1(f, 1, dx)
            rolled = (_roll_d1(f, 0, dx), fy, _roll_d2(f, 0, dx), 2.0 * _roll_d1(fy, 0, dx),
                      _roll_d2(f, 1, dx))
            for a, want in zip(got, rolled):
                assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want)), m
            fx, fy, fxx, fxy2, fyy = got
            d = differentiate(ScalarField(f, grid))
            assert np.array_equal(d.lap, fxx + fyy)
            assert np.array_equal(d.grad_sq, fx**2 + fy**2)
            assert np.array_equal(d.quad_form, fx**2 * fxx + fx * fy * fxy2 + fy**2 * fyy)

    def test_torus_bytes_do_not_depend_on_blas_threads(self):
        # Every band product stays within OpenBLAS's one-thread size, so a
        # process with two BLAS threads returns the same bytes as one with one.
        cases = [("torus2d", m) for m in (64, 128, 256)]
        one, two = _digests_by_blas_threads(cases)
        assert one == two == [_derivative_digest(mode, m) for mode, m in cases]

    def test_sphere_bytes_do_not_depend_on_blas_threads(self):
        # The stacked operator D.D is formed by one BLAS product and each
        # derivative by one more; their bytes are the same under one and two
        # BLAS threads at every size.
        cases = [("sphere_axisym", m) for m in (64, 256, 512)]
        one, two = _digests_by_blas_threads(cases)
        assert one == two == [_derivative_digest(mode, m) for mode, m in cases]

    @pytest.mark.parametrize("n", [3, 4])
    def test_sphere_derivatives_match_reference(self, n):
        # The sphere branch reads [D; D.D] and 1 - mu^2 from the grid; every
        # output must be bitwise equal to these expressions.
        grid = make_grid("sphere_axisym", 64, n=n)
        f = 1.0 + 0.3 * np.random.default_rng(n).normal(size=grid.shape)
        mu, stacked = grid.aux["mu"], grid.aux["stacked"]
        both = stacked @ (f - f[0])
        fmu, fmumu = both[:64], both[64:]
        one_m = 1.0 - mu**2
        f_thth = one_m * fmumu - mu * fmu
        f_tan = -mu * fmu
        d = differentiate(ScalarField(f, grid))
        assert np.array_equal(d.lap, f_thth + (n - 2) * f_tan)
        assert np.array_equal(d.grad_sq, one_m * fmu**2)
        assert np.array_equal(d.quad_form, one_m * fmu**2 * f_thth)

    def test_sphere_stacked_operator(self):
        # The stacked operator is [D; D.D] with D the barycentric collocation
        # matrix (lambda_k / lambda_j) / (mu_j - mu_k) off the diagonal and
        # minus its row sum on it; D differentiates a cubic in mu to rounding.
        grid = make_grid("sphere_axisym", 33)
        mu, stacked = grid.aux["mu"], grid.aux["stacked"]
        dmat = stacked[:33]
        assert stacked.shape == (66, 33) and stacked.flags.c_contiguous
        assert np.array_equal(stacked[33:], dmat @ dmat)
        dx, lam = _barycentric(mu)
        off = (lam[None, :] / lam[:, None]) / dx
        np.fill_diagonal(off, 0.0)
        assert np.array_equal(dmat - np.diag(np.diag(dmat)), off)
        assert np.array_equal(np.diag(dmat), -off.sum(axis=1))
        f = mu**3 - 2.0 * mu
        got = stacked @ f
        assert np.max(np.abs(got[:33] - (3.0 * mu**2 - 2.0))) < 1e-12
        assert np.max(np.abs(got[33:] - 6.0 * mu)) < 1e-9

    @pytest.mark.parametrize("m", [33, 64])
    @pytest.mark.parametrize("n", [3, 4])
    def test_sphere_constants_give_exact_zeros(self, m, n):
        # f - f[0] is exactly zero on a constant field, so no rounding residue
        # of a mean shift reaches the products.
        grid = make_grid("sphere_axisym", m, n=n)
        rng = np.random.default_rng(1000 * m + n)
        consts = np.concatenate((rng.uniform(-10.0, 10.0, 250),
                                 np.exp(rng.uniform(-30.0, 30.0, 250)),
                                 [4.2, 1.0 / 3.0, -7.1, 0.0]))
        for c in consts:
            d = differentiate(ScalarField.constant(grid, c))
            for arr in (d.lap, d.grad_sq, d.quad_form):
                assert not np.any(arr), (m, n, c)

    def test_outputs_are_fresh_and_contiguous(self, torus64, sphere64, sym_grid):
        # Every call returns new, unshared arrays: a second call leaves the
        # first call's outputs and the input as they were.
        rng = np.random.default_rng(3)
        for grid in (torus64, _torus(96), _torus(13), sphere64, sym_grid):
            f = 1.0 + rng.normal(size=grid.shape)
            f_kept = f.copy()
            first = differentiate(ScalarField(f, grid))
            arrays = (first.lap, first.grad_sq, first.quad_form)
            kept = [a.copy() for a in arrays]
            differentiate(ScalarField(1.0 + rng.normal(size=grid.shape), grid))
            assert np.array_equal(f, f_kept), grid.mode
            for a, b in zip(arrays, kept):
                assert a.flags.c_contiguous and a.shape == grid.shape, grid.mode
                assert np.array_equal(a, b), grid.mode
                assert not np.shares_memory(a, f), grid.mode
            for i, a in enumerate(arrays):
                assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), grid.mode

    def test_symmetric_derivatives_vanish(self, sym_grid):
        d = differentiate(ScalarField.constant(sym_grid, 1.3))
        assert np.all(d.lap == 0.0) and np.all(d.grad_sq == 0.0)

    def test_field_validation(self, torus64):
        with pytest.raises(DomainError):
            ScalarField(np.full(torus64.shape, np.nan), torus64)
        with pytest.raises(DomainError):
            ScalarField(np.zeros((3, 3)), torus64)


class TestBecknerDeficit:
    def test_constant_equality_sphere(self, sphere64):
        for c in (0.3, 1.0, 2.7):
            assert abs(beckner_report(ScalarField.constant(sphere64, c), 3)["sharp"]) < 1e-10

    def test_constant_equality_n4(self):
        g = make_grid("sphere_axisym", 48, n=4)
        assert abs(beckner_report(ScalarField.constant(g, 1.4), 4)["sharp"]) < 1e-10

    def test_positive_perturbation(self, sphere64):
        f = ScalarField(1.0 + 0.1 * sphere64.aux["mu"], sphere64)  # 1 + 0.1 cos(theta)
        assert beckner_report(f, 3)["sharp"] >= 0.0

    def test_symmetric_mode_equalities(self, sym_grid):
        # every field is constant there: both kappa=-1 statements collapse
        sharp = beckner_report(ScalarField.constant(sym_grid, 2.0), 3)["sharp"]
        assert sharp == pytest.approx(0.0, abs=1e-12)

    def test_torus_gradient_only(self, torus64):
        pert = low_frequency_field(torus64, seed=2, amplitude=0.2)
        rep = beckner_report(ScalarField(1.0 + pert, torus64), 3)
        assert rep["sharp"] >= 0.0
        assert rep["relaxed"] >= rep["sharp"]

    def test_positive_field_required(self, sphere64):
        with pytest.raises(DomainError):
            beckner_report(ScalarField.constant(sphere64, -1.0), 3)

    def test_dimension_mismatch(self, sphere64):
        with pytest.raises(ConfigurationError):
            beckner_report(ScalarField.constant(sphere64, 1.0), 4)

    def test_sharp_bitwise(self, sphere64):
        # Reference: the sharp deficit with its constant written out in place.
        n = 3
        field = ScalarField(1.0 + low_frequency_field(sphere64, 5, 0.2), sphere64)
        f, kap, theta = field.values, sphere64.kappa, sphere64.theta
        grad_sq = differentiate(field).grad_sq
        t_curv = (n - 1) * kap * integrate(ScalarField(f ** (n - 2), sphere64))
        t_grad = 0.5 * (n - 2) * integrate(ScalarField(f ** (n - 4) * grad_sq, sphere64))
        pow_int = integrate(ScalarField(f ** (n - 1), sphere64))
        t_sharp = (n - 1) * kap * theta ** (1.0 / (n - 1)) * pow_int ** ((n - 2) / (n - 1))
        assert beckner_report(field, n)["sharp"] == t_curv + t_grad - t_sharp

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_fields_nonnegative(self, sphere64, seed):
        pert = low_frequency_field(sphere64, seed, 0.2)
        rep = beckner_report(ScalarField(1.0 + pert, sphere64), 3)
        assert rep["sharp"] >= -1e-8 * rep["scale"]


class TestLowFrequencyField:
    def test_deterministic(self, torus64):
        a = low_frequency_field(torus64, 123, 0.3)
        b = low_frequency_field(torus64, 123, 0.3)
        assert np.array_equal(a, b)

    def test_amplitude_normalized(self, torus64, sphere64):
        for g in (torus64, sphere64):
            pert = low_frequency_field(g, 4, 0.17)
            assert np.max(np.abs(pert)) == pytest.approx(0.17, rel=1e-12)

    def test_symmetric_is_zero(self, sym_grid):
        assert np.all(low_frequency_field(sym_grid, 1, 0.5) == 0.0)
