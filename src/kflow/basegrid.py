"""Discretization of the closed base manifold (N, ghat).

Three modes cover the fibers that appear over a Kottler background:

* ``torus2d`` -- flat square torus of side L (kappa = 0, ambient n = 3).
  Uniform periodic nodes; 4th-order centered stencils; trapezoidal
  quadrature (spectrally accurate for smooth periodic integrands).
  The stencils are band matrices applied by BLAS to row and column tiles
  of a wrap-padded copy of the field less its first entry: constants give
  exact zeros, and other fields the stencil formulas on np.roll
  neighbours to rounding (docs/derivations.md).
* ``sphere_axisym`` -- round unit sphere S^(n-1) (kappa = +1), restricted
  to axisymmetric fields f(theta).  Collocation in mu = cos(theta) on
  Gauss-Jacobi nodes with weight (1 - mu^2)^((n-3)/2), so quadrature and
  differentiation are both spectrally accurate and the poles are never
  sampled.  Smooth axisymmetric fields of cos(theta) automatically satisfy
  the pole regularity f'(0) = f'(pi) = 0.  The collocation d/dmu and its
  square D.D are stored once, stacked as one (2m, m) matrix, so a single
  product with f less its first entry gives both derivatives; constants
  give exact zeros (docs/derivations.md).  The rule is computed with numpy
  alone, no scipy: the nodes are the eigenvalues of the symmetric Jacobi
  matrix (Golub and Welsch, Math. Comp. 23, 1969), and the weights are
  lambda_k^2 / (1 - mu_k^2) from the barycentric weights lambda_k that the
  collocation matrix uses too (Wang, Huybrechs and Vandewalle, Math. Comp.
  83, 2014), both mirror-symmetric to the bit.
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

from .errors import ConfigurationError, DomainError

__all__ = [
    "MODES",
    "resolution_problem",
    "BaseGrid",
    "ScalarField",
    "Derivatives",
    "make_grid",
    "integrate",
    "differentiate",
    "beckner_report",
    "sharp_constant",
    "sphere_area",
    "low_frequency_field",
]

MODES = ("torus2d", "sphere_axisym", "symmetric")
# The fewest and the most nodes each mode takes; the symmetric mode has one.
_RESOLUTIONS = {"torus2d": (8, math.inf), "sphere_axisym": (8, math.inf), "symmetric": (1, 1)}


def resolution_problem(mode, resolution):
    """Why a ``mode`` grid cannot have ``resolution`` nodes, or None if it can."""
    least, most = _RESOLUTIONS[mode]
    if least <= resolution <= most:
        return None
    if least == most:
        return f"{mode} needs exactly {least}, got {resolution}"
    return f"{mode} needs >= {least}, got {resolution}"


def sphere_area(dim):
    """Area of the unit sphere S^dim."""
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


def _sphere_area_problem(n, theta):
    """Why ``theta`` is not the area |S^(n-1)| of a sphere_axisym fiber, or None."""
    exact = sphere_area(n - 1)
    if math.isclose(theta, exact, rel_tol=1e-9):
        return None
    return f"sphere_axisym area is fixed at |S^{n-1}| = {exact:.12g}, got {theta}"


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


def _barycentric(x):
    """The pairwise differences x_j - x_k of increasing nodes, with a unit
    diagonal, and the barycentric weights lambda_j = 1 / prod_k (x_j - x_k)
    scaled to max |lambda| = 1.  The summed logs of |x_j - x_k| give |lambda|
    without overflow; lambda_j has the sign (-1)^(m-1-j)."""
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    logw = -np.sum(np.log(np.abs(dx)), axis=1)
    lam = np.exp(logw - logw.max())
    lam[-2::-2] *= -1.0
    return dx, lam


def _gauss_jacobi(m, a):
    """The m-point Gauss rule for the weight (1 - mu^2)^a on (-1, 1): its
    nodes in increasing order, their ``_barycentric`` differences and
    weights, and the quadrature weights up to a common factor.  The nodes are
    the eigenvalues of the symmetric Jacobi matrix (Golub and Welsch 1969);
    the weights are lambda^2 / (1 - mu^2) (Wang, Huybrechs and Vandewalle
    2014).  Both are made mirror-symmetric to the bit."""
    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2.0 * a) / (4.0 * (k + a) ** 2 - 1.0))
    mu = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    mu = (mu - mu[::-1]) / 2.0
    dx, lam = _barycentric(mu)
    w = lam * lam / (1.0 - mu * mu)
    return mu, dx, lam, (w + w[::-1]) / 2.0


def _stacked_operator(dx, lam):
    """The collocation d/dmu, D, on the nodes with ``_barycentric``'s
    differences ``dx`` and weights ``lam``, and d^2/dmu^2 = D.D, stacked as
    one (2m, m) matrix [D; D.D], so a single product gives both derivatives."""
    d = (lam[None, :] / lam[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return np.concatenate((d, d @ d))


# Most rows a band covers.  A product's M N K = b (b+4) m stays within
# OpenBLAS's one-thread limit, 262 144, up to m = 819.
_TILE = 16


def _torus_bands(m, dx):
    """The 4th-order periodic d/dx and d^2/dx^2 as stacked (b, b+4) bands and
    their C-contiguous transposes, b the largest divisor of m up to ``_TILE``.
    Row r holds the weights of f[i-2..i+2] in columns r..r+4, so a band times
    padded rows kb..kb+b+3 gives derivative rows kb..kb+b-1."""
    b = max(k for k in range(1, min(m, _TILE) + 1) if m % k == 0)
    weights = np.array([[1.0, -8.0, 0.0, 8.0, -1.0], [-1.0, 16.0, -30.0, 16.0, -1.0]])
    weights /= np.array([[12.0 * dx], [12.0 * dx * dx]])
    rows = np.arange(b)[:, None]
    bands = np.zeros((2, b, b + 4))
    bands[:, rows, rows + np.arange(5)] = weights[:, None, :]
    return bands, np.ascontiguousarray(bands.transpose(0, 2, 1))


def make_grid(mode, resolution, theta_or_L=None, *, n=3, kappa=None):
    """Build a base-manifold grid.  See the module docstring for the modes."""
    if mode not in MODES:
        raise ConfigurationError(f"grid.mode: unknown mode {mode!r}, expected one of {MODES}")
    if n < 3:
        raise ConfigurationError(f"grid.n: ambient dimension must be >= 3, got {n}")
    problem = resolution_problem(mode, resolution)
    if problem:
        raise ConfigurationError(f"grid.resolution: {problem}")

    if mode == "torus2d":
        if kappa not in (None, 0):
            raise ConfigurationError(f"grid.kappa: torus2d requires kappa = 0, got {kappa}")
        if n != 3:
            raise ConfigurationError(f"grid.n: torus2d supports n = 3 only, got {n}")
        if theta_or_L is None or theta_or_L <= 0:
            raise ConfigurationError("grid: torus2d needs a positive side length L")
        L = float(theta_or_L)
        theta = L * L
        ax = np.arange(resolution) * (L / resolution)
        w = np.full((resolution, resolution), (L / resolution) ** 2)
        w *= theta / w.sum()
        bands, bands_t = _torus_bands(resolution, L / resolution)
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
            # The cross term's 2 is folded into a doubled d/dx band: doubling
            # is exact, so its products are twice the d/dx band's, bit for bit.
            aux={"L": L, "dx": L / resolution, "bands": bands, "bands_t": bands_t,
                 "cross_band": 2.0 * bands[0]},
        )

    if mode == "sphere_axisym":
        if kappa not in (None, 1):
            raise ConfigurationError(f"grid.kappa: sphere_axisym requires kappa = +1, got {kappa}")
        theta_exact = sphere_area(n - 1)
        problem = theta_or_L is not None and _sphere_area_problem(n, theta_or_L)
        if problem:
            raise ConfigurationError(f"grid: {problem}")
        mu, dx, lam, w = _gauss_jacobi(resolution, (n - 3) / 2.0)
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
                "stacked": _stacked_operator(dx, lam),
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


def _tiles(padded, b, axis):
    """Overlapping views of the C-contiguous wrap-padded array, b apart along
    ``axis``: tile k holds its rows (axis 0) or columns (axis 1) kb..kb+b+3,
    the input of derivative rows or columns kb..kb+b-1."""
    rows, cols = padded.shape
    row, col = padded.strides
    if axis == 0:
        shape, strides = ((rows - 4) // b, b + 4, cols), (b * row, row, col)
    else:
        shape, strides = ((cols - 4) // b, rows, b + 4), (b * col, row, col)
    return np.ndarray(shape, buffer=padded, strides=strides)


def _torus_derivatives(f, aux):
    """fx, fy, fxx, 2 fxy, fyy of a periodic m x m field by the 4th-order band
    products of ``make_grid``; fxy is d/dx of fy, and comes doubled, by the
    stored band 2 d/dx, for the cross term of ``quad_form``.  fy is a view of
    the row-padded buffer, the others new C-contiguous arrays.  The products
    act on f less its first entry, which is exact for a constant field, so
    constants give exact zeros (docs/derivations.md)."""
    m = f.shape[0]
    bands, b = aux["bands"], aux["bands"].shape[1]
    padded = np.empty((m + 4, m))
    g = np.subtract(f, f[0, 0], out=padded[2:-2])
    padded[:2] = g[-2:]
    padded[-2:] = g[:2]
    rows = _tiles(padded, b, 0)
    fx, fxx = (np.matmul(band, rows).reshape(m, m) for band in bands)
    # Each column tile of the column-padded g times band^T fills that tile's
    # m x b block; fy goes straight into the spent rows of g.
    cols = _tiles(np.concatenate((g[:, -2:], g, g[:, :2]), axis=1), b, 1)
    fy, fyy = g, np.empty((m, m))
    for band_t, out in zip(aux["bands_t"], (fy, fyy)):
        np.matmul(cols, band_t, out=out.reshape(m, m // b, b).transpose(1, 0, 2))
    padded[:2] = fy[-2:]
    padded[-2:] = fy[:2]
    fxy2 = np.matmul(aux["cross_band"], rows).reshape(m, m)
    return fx, fy, fxx, fxy2, fyy


class Derivatives:
    """Covariant derivative data of a scalar field on (N, ghat): ``lap`` the
    Laplace-Beltrami operator, ``grad_sq`` = |grad f|^2 and ``quad_form`` =
    (grad f)^i (grad f)^j Hess_ij, each a new array of the grid's shape.
    A plain slotted record: one is built per flow stage.
    """

    __slots__ = ("lap", "grad_sq", "quad_form")

    def __init__(self, lap, grad_sq, quad_form):
        self.lap = lap
        self.grad_sq = grad_sq
        self.quad_form = quad_form


def differentiate(field):
    grid = field.grid
    f = field.values
    if grid.mode == "torus2d":
        fx, fy, fxx, fxy2, fyy = _torus_derivatives(f, grid.aux)
        # fx^2 fxx + fx fy (2 fxy) + fy^2 fyy and fx^2 + fy^2, left to right.
        fx_sq = fx * fx
        fy_sq = fy * fy
        quad_form = fx_sq * fxx
        term = fx * fy
        term *= fxy2
        quad_form += term
        quad_form += np.multiply(fy_sq, fyy, out=term)
        return Derivatives(np.add(fxx, fyy, out=fxx), np.add(fx_sq, fy_sq, out=fx_sq), quad_form)
    if grid.mode == "sphere_axisym":
        aux = grid.aux
        m = f.shape[0]
        # One product with [D; D.D] gives f_mu and f_mumu.  It acts on f less
        # its first entry, which is exact for a constant field, so constants
        # give exact zeros (docs/derivations.md, "Sphere derivatives").
        both = aux["stacked"] @ (f - f[0])
        fmu = both[:m]
        one_m = aux["one_minus_mu_sq"]
        f_tan = aux["minus_mu"] * fmu  # each of the n-2 transverse entries: cot(theta) f_theta
        # The radial (theta-theta) Hessian entry (1 - mu^2) f_mumu - mu f_mu:
        # a - b is a + (-b) in IEEE arithmetic, so adding f_tan gives its bits.
        f_thth = one_m * both[m:]
        f_thth += f_tan
        grad_sq = one_m * (fmu * fmu)
        return Derivatives(f_thth + (grid.n - 2) * f_tan, grad_sq, grad_sq * f_thth)
    shape = f.shape
    return Derivatives(np.zeros(shape), np.zeros(shape), np.zeros(shape))


def sharp_constant(n, kappa, theta):
    """(n-1) kappa theta^(1/(n-1)): the sharp constant of the deficit below,
    and Q1's value on every slice, its lower bound on mean-convex graphs."""
    return (n - 1) * kappa * theta ** (1.0 / (n - 1))


def beckner_report(field, n):
    """Both deficit variants plus the size of the participating terms.  ``sharp``
    (gradient coefficient (n-2)/2) is >= 0 on the sphere, on the homogeneous
    mode, and trivially for kappa = 0."""
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    grid = field.grid
    f = field.values
    if np.any(f <= 0.0):
        raise DomainError("deficit requires a strictly positive field")
    if grid.mode == "sphere_axisym" and grid.n != n:
        raise ConfigurationError(
            f"beckner: exponent family n={n} must match the sphere dimension n={grid.n}"
        )
    d = differentiate(field)
    t_curv = (n - 1) * grid.kappa * integrate(ScalarField(f ** (n - 2), grid))
    t_grad = 0.5 * (n - 2) * integrate(ScalarField(f ** (n - 4) * d.grad_sq, grid))
    pow_int = integrate(ScalarField(f ** (n - 1), grid))
    t_sharp = sharp_constant(n, grid.kappa, grid.theta) * pow_int ** ((n - 2) / (n - 1))
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
