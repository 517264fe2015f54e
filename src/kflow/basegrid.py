"""Discretization of the closed base manifold (N, ghat).

Three modes cover the fibers that appear over a Kottler background:

* ``torus2d`` -- flat square torus of side L (kappa = 0, ambient n = 3).
  Uniform periodic nodes; 4th-order centered stencils; trapezoidal
  quadrature (spectrally accurate for smooth periodic integrands).
  The stencils read their neighbours from a wrap-padded copy of the field,
  flattened so that every operand is a contiguous run: along axis 0 the
  (m+4, m) copy, neighbours m entries apart; along axis 1 the (m, m+4)
  copy, neighbours one entry apart, with the m valid columns copied out of
  the result.  Each stencil is formed in place with the operand order of
  its formula, so the derivatives are bitwise equal to the same formula
  evaluated with np.roll neighbours.
* ``sphere_axisym`` -- round unit sphere S^(n-1) (kappa = +1), restricted
  to axisymmetric fields f(theta).  Collocation in mu = cos(theta) on
  Gauss-Jacobi nodes with weight (1 - mu^2)^((n-3)/2), so quadrature and
  differentiation are both spectrally accurate and the poles are never
  sampled.  Smooth axisymmetric fields of cos(theta) automatically satisfy
  the pole regularity f'(0) = f'(pi) = 0.
* ``symmetric`` -- a single homogeneous node of weight theta (any kappa,
  any n >= 3); all derivatives vanish.  This carries the kappa = -1 runs,
  where no constructive 2-D discretization of a higher-genus hyperbolic
  surface is attempted.

The module also evaluates the sharp Sobolev-type deficit on the sphere
controlling the curvature term of the inequality limits:

    (n-1) kappa I[f^(n-2)] + (n-2)/2 I[f^(n-4) |grad f|^2]
        - (n-1) kappa theta^(1/(n-1)) I[f^(n-1)]^((n-2)/(n-1))  >=  0

for positive f, with equality at constants.  For kappa = 0 only the
gradient term survives; for kappa = -1 the statement reduces to Hoelder's
inequality (equality in the homogeneous mode).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import ConfigurationError, DomainError

__all__ = [
    "MODES",
    "BaseGrid",
    "ScalarField",
    "Derivatives",
    "make_grid",
    "integrate",
    "differentiate",
    "beckner_deficit",
    "beckner_report",
    "sphere_area",
    "low_frequency_field",
]

MODES = ("torus2d", "sphere_axisym", "symmetric")


def sphere_area(dim):
    """Area of the unit sphere S^dim."""
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


@dataclass(frozen=True, eq=False)
class BaseGrid:
    mode: str
    n: int
    kappa: int
    theta: float
    resolution: int
    shape: tuple
    coords: tuple
    quad_weights: np.ndarray
    dx_min: float
    aux: dict

    def __repr__(self):
        return (
            f"BaseGrid(mode={self.mode!r}, n={self.n}, kappa={self.kappa}, "
            f"resolution={self.resolution}, theta={self.theta:.6g})"
        )


@dataclass(frozen=True, eq=False)
class ScalarField:
    values: np.ndarray
    grid: BaseGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.shape:
            raise DomainError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise DomainError("field contains non-finite values")

    @classmethod
    def constant(cls, grid, value):
        return cls(np.full(grid.shape, float(value)), grid)

    @classmethod
    def unchecked(cls, values, grid):
        """A field from a float array of the grid's shape whose values the
        caller has already validated: no conversion, shape or finiteness scan."""
        field = object.__new__(cls)
        object.__setattr__(field, "values", values)
        object.__setattr__(field, "grid", grid)
        return field


def _jacobi_diff_matrix(x):
    """Spectral differentiation matrix on arbitrary nodes (barycentric form)."""
    x = np.asarray(x, dtype=float)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    logw = -np.sum(np.log(np.abs(dx)), axis=1)
    sign = np.prod(np.sign(dx), axis=1)
    w = sign * np.exp(logw - logw.max())
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def make_grid(mode, resolution, theta_or_L=None, *, n=3, kappa=None):
    """Build a base-manifold grid.  See the module docstring for the modes."""
    if mode not in MODES:
        raise ConfigurationError(f"grid.mode: unknown mode {mode!r}, expected one of {MODES}")
    if n < 3:
        raise ConfigurationError(f"grid.n: ambient dimension must be >= 3, got {n}")

    if mode == "torus2d":
        if kappa not in (None, 0):
            raise ConfigurationError(f"grid.kappa: torus2d requires kappa = 0, got {kappa}")
        if n != 3:
            raise ConfigurationError(f"grid.n: torus2d supports n = 3 only, got {n}")
        if resolution < 8:
            raise ConfigurationError(f"grid.resolution: need >= 8 for PDE modes, got {resolution}")
        if theta_or_L is None or theta_or_L <= 0:
            raise ConfigurationError("grid: torus2d needs a positive side length L")
        L = float(theta_or_L)
        theta = L * L
        ax = np.arange(resolution) * (L / resolution)
        w = np.full((resolution, resolution), (L / resolution) ** 2)
        w *= theta / w.sum()
        return BaseGrid(
            mode=mode,
            n=3,
            kappa=0,
            theta=theta,
            resolution=resolution,
            shape=(resolution, resolution),
            coords=(ax, ax.copy()),
            quad_weights=w,
            dx_min=L / resolution,
            aux={"L": L, "dx": L / resolution},
        )

    if mode == "sphere_axisym":
        if kappa not in (None, 1):
            raise ConfigurationError(f"grid.kappa: sphere_axisym requires kappa = +1, got {kappa}")
        if resolution < 8:
            raise ConfigurationError(f"grid.resolution: need >= 8 for PDE modes, got {resolution}")
        theta_exact = sphere_area(n - 1)
        if theta_or_L is not None and not math.isclose(theta_or_L, theta_exact, rel_tol=1e-9):
            raise ConfigurationError(
                f"grid: sphere_axisym area is fixed at |S^{n-1}| = {theta_exact:.12g}, "
                f"got {theta_or_L}"
            )
        a = (n - 3) / 2.0
        mu, wmu = roots_jacobi(resolution, a, a)
        transverse = sphere_area(n - 2)
        w = transverse * wmu
        w *= theta_exact / w.sum()
        th = np.arccos(mu)
        return BaseGrid(
            mode=mode,
            n=n,
            kappa=1,
            theta=theta_exact,
            resolution=resolution,
            shape=(resolution,),
            coords=(th, mu),
            quad_weights=w,
            dx_min=float(np.min(np.abs(np.diff(th)))),
            aux={
                "mu": mu,
                "minus_mu": -mu,
                "D": _jacobi_diff_matrix(mu),
                "one_minus_mu_sq": 1.0 - mu**2,
            },
        )

    # symmetric
    if kappa not in (-1, 0, 1):
        raise ConfigurationError(
            f"grid.kappa: symmetric mode needs an explicit kappa in -1/0/+1, got {kappa}"
        )
    if theta_or_L is None or theta_or_L <= 0:
        raise ConfigurationError("grid: symmetric mode needs a positive fiber area theta")
    return BaseGrid(
        mode=mode,
        n=n,
        kappa=int(kappa),
        theta=float(theta_or_L),
        resolution=1,
        shape=(1,),
        coords=(np.zeros(1),),
        quad_weights=np.array([float(theta_or_L)]),
        dx_min=math.inf,
        aux={},
    )


def integrate(field):
    """Quadrature integral of a scalar field over (N, ghat)."""
    return float(np.sum(field.grid.quad_weights * field.values))


def _wrap_pad(f, axis):
    """A new C-contiguous copy of ``f`` with two wrapped entries added at each
    end of ``axis``."""
    if axis == 0:
        return np.concatenate((f[-2:], f, f[:2]))
    return np.concatenate((f[:, -2:], f, f[:, :2]), axis=1)


def _neighbours(padded, step, count):
    """f[i-2], f[i-1], f[i], f[i+1], f[i+2] as contiguous runs of ``count``
    entries of the flattened ``padded`` array, neighbours ``step`` apart."""
    flat = padded.reshape(-1)
    return [flat[k * step:k * step + count] for k in range(5)]


def _d1_periodic(neighbours, dx, out, tmp):
    """(l2 - 8 l1 + 8 r1 - r2) / (12 dx), formed in ``out`` in that operand order."""
    l2, l1, _, r1, r2 = neighbours
    np.multiply(l1, 8.0, out=out)
    np.subtract(l2, out, out=out)
    out += np.multiply(r1, 8.0, out=tmp)
    out -= r2
    out /= 12.0 * dx
    return out


def _d2_periodic(neighbours, dx, out, tmp):
    """(-l2 + 16 l1 - 30 f + 16 r1 - r2) / (12 dx^2), formed in ``out`` in
    that operand order; -l2 + 16 l1 is formed as 16 l1 - l2, the same sum."""
    l2, l1, f, r1, r2 = neighbours
    np.multiply(l1, 16.0, out=out)
    out -= l2
    out -= np.multiply(f, 30.0, out=tmp)
    out += np.multiply(r1, 16.0, out=tmp)
    out -= r2
    out /= 12.0 * dx * dx
    return out


def _torus_derivatives(f, dx):
    """fx, fy, fxx, fxy, fyy of a periodic m x m field by 4th-order stencils,
    as new C-contiguous arrays.  Along axis 1 the stencils also run across
    the ends of the padded rows; those entries are dropped when the m valid
    columns are copied out (module docstring)."""
    m = f.shape[0]
    size = m * m
    tmp = np.empty(size + 4 * m)
    along_x = _neighbours(_wrap_pad(f, 0), m, size)
    fx = _d1_periodic(along_x, dx, np.empty(size), tmp[:size]).reshape(m, m)
    fxx = _d2_periodic(along_x, dx, np.empty(size), tmp[:size]).reshape(m, m)

    count = size + 4 * m - 4
    rows = np.empty((m, m + 4))
    run, tmp = rows.reshape(-1)[:count], tmp[:count]
    along_y = _neighbours(_wrap_pad(f, 1), 1, count)
    _d1_periodic(along_y, dx, run, tmp)
    fy = rows[:, :m].copy()
    _d2_periodic(along_y, dx, run, tmp)
    fyy = rows[:, :m].copy()
    _d1_periodic(_neighbours(_wrap_pad(fx, 1), 1, count), dx, run, tmp)
    fxy = rows[:, :m].copy()
    return fx, fy, fxx, fxy, fyy


@dataclass(frozen=True, eq=False)
class Derivatives:
    """Covariant derivative data of a scalar field on (N, ghat): ``lap`` the
    Laplace-Beltrami operator, ``grad_sq`` = |grad f|^2 and ``quad_form`` =
    (grad f)^i (grad f)^j Hess_ij, each a new array of the grid's shape.
    """

    lap: np.ndarray
    grad_sq: np.ndarray
    quad_form: np.ndarray


def differentiate(field):
    grid = field.grid
    f = field.values
    if grid.mode == "torus2d":
        fx, fy, fxx, fxy, fyy = _torus_derivatives(f, grid.aux["dx"])
        # fx^2 fxx + 2 fx fy fxy + fy^2 fyy and fx^2 + fy^2, left to right.
        fx_sq = fx * fx
        fy_sq = fy * fy
        quad_form = fx_sq * fxx
        term = np.multiply(fx, 2.0)
        term *= fy
        term *= fxy
        quad_form += term
        quad_form += np.multiply(fy_sq, fyy, out=term)
        return Derivatives(
            lap=np.add(fxx, fyy, out=fxx),
            grad_sq=np.add(fx_sq, fy_sq, out=fx_sq),
            quad_form=quad_form,
        )
    if grid.mode == "sphere_axisym":
        aux = grid.aux
        d = aux["D"]
        # Differencing against the mean keeps constants exactly annihilated
        # (D @ const is only zero to rounding, and D @ (D @ const) amplifies).
        shifted = f - f.sum() / f.size
        fmu = d @ shifted
        fmumu = d @ fmu
        one_m = aux["one_minus_mu_sq"]
        f_tan = aux["minus_mu"] * fmu  # each of the n-2 transverse entries: cot(theta) f_theta
        # The radial (theta-theta) Hessian entry (1 - mu^2) f_mumu - mu f_mu:
        # a - b is a + (-b) in IEEE arithmetic, so adding f_tan gives its bits.
        f_thth = one_m * fmumu + f_tan
        grad_sq = one_m * (fmu * fmu)
        return Derivatives(
            lap=f_thth + (grid.n - 2) * f_tan,
            grad_sq=grad_sq,
            quad_form=grad_sq * f_thth,
        )
    return Derivatives(lap=np.zeros_like(f), grad_sq=np.zeros_like(f), quad_form=np.zeros_like(f))


def _beckner_terms(field, n, grad_coeff):
    grid = field.grid
    f = field.values
    if np.any(f <= 0.0):
        raise DomainError("deficit requires a strictly positive field")
    if grid.mode == "sphere_axisym" and grid.n != n:
        raise ConfigurationError(
            f"beckner: exponent family n={n} must match the sphere dimension n={grid.n}"
        )
    kap = grid.kappa
    d = differentiate(field)
    t_curv = (n - 1) * kap * integrate(ScalarField(f ** (n - 2), grid))
    t_grad = grad_coeff * integrate(ScalarField(f ** (n - 4) * d.grad_sq, grid))
    pow_int = integrate(ScalarField(f ** (n - 1), grid))
    t_sharp = (n - 1) * kap * grid.theta ** (1.0 / (n - 1)) * pow_int ** ((n - 2) / (n - 1))
    return t_curv, t_grad, t_sharp


def beckner_deficit(field, n):
    """Sharp-form deficit (gradient coefficient (n-2)/2); >= 0 on the sphere,
    on the homogeneous mode, and trivially for kappa = 0."""
    return beckner_report(field, n)["sharp"]


def beckner_report(field, n):
    """Both deficit variants plus the size of the participating terms."""
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    t_curv, t_grad, t_sharp = _beckner_terms(field, n, 0.5 * (n - 2))
    relaxed_grad = t_grad * (n - 1) / (n - 2)
    scale = max(abs(t_curv), abs(t_grad), abs(t_sharp), abs(relaxed_grad))
    return {
        "sharp": t_curv + t_grad - t_sharp,
        "relaxed": t_curv + relaxed_grad - t_sharp,
        "scale": scale,
    }


def low_frequency_field(grid, seed, amplitude=1.0):
    """Deterministic low-frequency perturbation with sup |.| = amplitude.

    Torus: modes |k|_inf <= 2; sphere: cubic polynomial in cos(theta);
    symmetric: identically zero (only homogeneous data exists there).
    """
    if amplitude == 0.0 or grid.mode == "symmetric":
        return np.zeros(grid.shape)
    rng = np.random.default_rng(seed)
    if grid.mode == "torus2d":
        L = grid.aux["L"]
        x, y = np.meshgrid(grid.coords[0], grid.coords[1], indexing="ij")
        pert = np.zeros(grid.shape)
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                if kx == 0 and ky == 0:
                    continue
                amp = rng.normal() / (1.0 + kx * kx + ky * ky)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                pert += amp * np.cos(2.0 * math.pi * (kx * x + ky * y) / L + phase)
    else:
        mu = grid.aux["mu"]
        c = rng.normal(size=3) / np.array([1.0, 2.0, 4.0])
        pert = c[0] * mu + c[1] * mu**2 + c[2] * mu**3
    sup = float(np.max(np.abs(pert)))
    if sup == 0.0:
        return np.zeros(grid.shape)
    return pert * (amplitude / sup)
