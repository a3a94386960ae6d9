"""The reflection-invariant weight on the sphere, quadrature adapted to it,
h-harmonic spaces as exact Dunkl-Laplacian nullspaces, and reproducing
kernels at coordinate vectors.

The weight prod |x_i - x_j|^(2 kappa) is polynomial exactly when 2 kappa is
an even integer; for odd 2 kappa it has absolute-value kinks across every
plane x_i = x_j.  build_sphere_rule therefore carries a kappa hint: when the
hint makes 2 kappa odd, the d = 2 rule splits the circle at the two kink
angles and the d = 3 rule splits the polar interval at every latitude where
the kink circles x_i = x_j appear, vanish, or cross each other, and then
splits each latitude circle at the azimuths the kink curves pass through.
Piecewise the integrand is analytic and per-arc Gauss nodes converge
spectrally; a flat product rule would be stuck near order^(-2).

Basis construction is exact where exactness is cheap: the Laplacian matrix
and its nullspace are rational, so the dimension count is a hard check, and
only the final orthonormalization uses floating point (then snapped back to
exact dyadic rationals so the basis stays exactly annihilated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import roots_jacobi

from .intertwine import AxisFunction, polynomial_rule, vk_axis
from .orthopoly import JacobiParams, jacobi_eval, kernel_normalizer
from .polycore import KappaParams, Monomial, Polynomial, compositions, scaled_laplacian
from .simplexquad import SelfCheckError


def require_sphere_dim(d: int) -> None:
    """ValueError unless build_sphere_rule has rules for S^(d-1)."""
    if d not in (2, 3, 4):
        raise ValueError("only d in {2, 3, 4} is supported")


def surface_area(d: int) -> float:
    """omega_d = 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


@dataclass(frozen=True)
class SphereRule:
    d: int
    order: int
    nodes: np.ndarray  # (N, d), unit rows
    weights: np.ndarray  # (N,), surface measure

    def __len__(self) -> int:
        return len(self.weights)


def _wants_kink_split(kappa_hint) -> bool:
    if kappa_hint is None:
        return False
    two_kappa = 2 * Fraction(kappa_hint)
    return two_kappa.denominator == 1 and two_kappa.numerator % 2 == 1


def _gauss_on(a: float, b: float, x: np.ndarray, w: np.ndarray):
    return (a + b) / 2 + (b - a) / 2 * x, w * (b - a) / 2


def _circle_rule(order: int, split: bool) -> SphereRule:
    n = max(2 * order, 8)
    if split:
        # kinks of |x_1 - x_2| sit where cos = sin
        x, w = np.polynomial.legendre.leggauss(max(order, 4))
        th, wt = [], []
        for a, b in ((math.pi / 4, 5 * math.pi / 4), (5 * math.pi / 4, 9 * math.pi / 4)):
            t, ww = _gauss_on(a, b, x, w)
            th.append(t)
            wt.append(ww)
        theta = np.concatenate(th)
        weights = np.concatenate(wt)
    else:
        theta = 2 * math.pi * np.arange(n) / n
        weights = np.full(n, 2 * math.pi / n)
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return SphereRule(d=2, order=order, nodes=nodes, weights=weights)


def _sphere3_plain(order: int) -> SphereRule:
    u, wu = np.polynomial.legendre.leggauss(order)
    nphi = 2 * order
    phi = 2 * math.pi * np.arange(nphi) / nphi
    U, PH = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1 - U**2)
    nodes = np.stack([s * np.cos(PH), s * np.sin(PH), U], axis=-1).reshape(-1, 3)
    weights = (wu[:, None] * (2 * math.pi / nphi) * np.ones_like(PH)).ravel()
    return SphereRule(d=3, order=order, nodes=nodes, weights=weights)


def _sphere3_kink(order: int) -> SphereRule:
    """d = 3 rule split along the curves x_i = x_j.

    In polar coordinates (x, y, z) = (cos psi cos phi, cos psi sin phi,
    sin psi): the plane x = y cuts every latitude at phi in {pi/4, 5pi/4};
    the planes x = z and y = z cut a latitude only while |sin psi| < cos psi,
    i.e. |psi| < pi/4, at azimuths cos phi = tan psi and sin phi = tan psi.
    Those cut curves become tangent to a latitude at |psi| = pi/4 and cross
    each other at the diagonal points, |sin psi| = 1/sqrt(3); both latitudes
    are panel boundaries so that within a panel the number and smooth
    dependence of the azimuth cuts never changes."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    psi3 = math.asin(1 / math.sqrt(3))
    bounds = [-math.pi / 2, -math.pi / 4, -psi3, psi3, math.pi / 4, math.pi / 2]
    nodes, weights = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        psi, wpsi = _gauss_on(a, b, gx, gw)
        for ps, wp in zip(psi, wpsi):
            u = math.sin(ps)
            s = math.cos(ps)
            cuts = [math.pi / 4, 5 * math.pi / 4]
            if abs(u) < s:
                ac = math.acos(u / s)
                an = math.asin(u / s)
                cuts += [ac, 2 * math.pi - ac, an % (2 * math.pi),
                         (math.pi - an) % (2 * math.pi)]
            cuts = np.sort(np.unique(np.mod(cuts, 2 * math.pi)))
            cuts = np.concatenate([cuts, [cuts[0] + 2 * math.pi]])
            for c0, c1 in zip(cuts[:-1], cuts[1:]):
                if c1 - c0 < 1e-14:
                    continue
                phi, wphi = _gauss_on(c0, c1, gx, gw)
                nodes.append(np.stack(
                    [s * np.cos(phi), s * np.sin(phi), np.full_like(phi, u)], axis=-1))
                weights.append(wp * s * wphi)
    return SphereRule(d=3, order=order,
                      nodes=np.concatenate(nodes), weights=np.concatenate(weights))


def _sphere4_plain(order: int) -> SphereRule:
    u, wu = roots_jacobi(order, 0.5, 0.5)  # weight (1-u^2)^(1/2) on [-1, 1]
    inner = _sphere3_plain(order)
    s = np.sqrt(1 - u**2)
    nodes = np.concatenate(
        [np.concatenate([si * inner.nodes, np.full((len(inner), 1), ui)], axis=1)
         for ui, si in zip(u, s)])
    weights = np.concatenate([wi * inner.weights for wi in wu])
    return SphereRule(d=4, order=order, nodes=nodes, weights=weights)


def build_sphere_rule(d: int, order: int, kappa_hint=None) -> SphereRule:
    """Surface-measure quadrature on S^(d-1), d in {2, 3, 4}.

    kappa_hint only matters when it makes 2 kappa an odd integer, in which
    case the d = 2 and d = 3 rules subdivide along the kinks of the weight
    (see _sphere3_kink); d = 4 has no split variant here because no gold
    check needs half-integer kappa on S^3."""
    if order < 4:
        raise ValueError("order must be >= 4")
    require_sphere_dim(d)
    split = _wants_kink_split(kappa_hint)
    if d == 2:
        rule = _circle_rule(order, split)
    elif d == 3:
        rule = _sphere3_kink(order) if split else _sphere3_plain(order)
    else:
        rule = _sphere4_plain(order)
    total = float(rule.weights.sum())
    if abs(total / surface_area(d) - 1) > 1e-10:
        raise SelfCheckError(f"sphere rule mass {total} does not match the surface area")
    norms = np.linalg.norm(rule.nodes, axis=1)
    if np.max(np.abs(norms - 1)) > 1e-14:
        raise SelfCheckError("sphere rule nodes drifted off the unit sphere")
    return rule


def hweight(x, params: KappaParams):
    """h(x) = prod_{i<j} |x_i - x_j|^kappa; scalar for a single point,
    vector for an (N, d) array of points."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != params.d:
        raise ValueError(f"points must have {params.d} coordinates")
    k = params.kappa_float
    out = np.ones(len(pts))
    for i in range(params.d):
        for j in range(i + 1, params.d):
            out = out * np.abs(pts[:, i] - pts[:, j]) ** k
    return float(out[0]) if single else out


def norm_const_a(params: KappaParams, sphere_rule: SphereRule) -> tuple[float, float]:
    """The normalization making the h^2-weighted sphere measure a probability:
    (closed form, 1/quadrature of h^2), for cross-checking one against the
    other."""
    if sphere_rule.d != params.d:
        raise ValueError("sphere rule dimension does not match params")
    closed = params.a_kappa
    quad = 1.0 / float(np.dot(sphere_rule.weights, hweight(sphere_rule.nodes, params) ** 2))
    return closed, quad


# ---------------------------------------------------------------------------
# h-harmonic bases
# ---------------------------------------------------------------------------


def harmonic_dim(n: int, d: int) -> int:
    """dim of degree-n h-harmonics: C(n+d-1, n) - C(n+d-3, n-2)."""
    if n < 0:
        return 0
    total = math.comb(n + d - 1, n)
    lower = math.comb(n + d - 3, n - 2) if n >= 2 else 0
    return total - lower


def _monomial_values(nodes: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """x^alpha, shape (n_nodes, n_monomials): a power table per coordinate,
    gathered and multiplied in coordinate order, so bit for bit the values
    of np.prod(nodes[:, None, :] ** exps[None, :, :], axis=2)."""
    powers = nodes[:, :, None] ** np.arange(exps.max(initial=0) + 1)
    out = powers[:, 0, exps[:, 0]]
    for k in range(1, exps.shape[1]):
        out = out * powers[:, k, exps[:, k]]
    return out


def _rational_nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Nullspace basis of an integer matrix by exact rational row reduction."""
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(rows[r][c])
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][free]
        basis.append(v)
    return basis


@dataclass(frozen=True)
class HarmonicBasis:
    """An orthonormal basis of the degree-n h-harmonics.

    coefficients holds the float expansion over `exponents`;
    exact_coefficients holds the same rows as exact rationals (dyadic
    snapshots of the orthonormalizing mix applied to the exact nullspace),
    so every element of basis() is annihilated by the Dunkl Laplacian as a
    polynomial identity, while orthonormality holds to gram_residual."""

    n: int
    d: int
    kappa: Fraction
    exponents: tuple[Monomial, ...]
    coefficients: np.ndarray
    exact_coefficients: tuple[tuple[Fraction, ...], ...]
    gram_residual: float
    gram_cond: float

    def __len__(self) -> int:
        return len(self.coefficients)

    def evaluate(self, points) -> np.ndarray:
        """Values of every basis element at the given points, shape
        (len(self), n_points)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.d:
            raise ValueError(f"points must have {self.d} coordinates")
        return self.coefficients @ _monomial_values(pts, np.asarray(self.exponents)).T

    def basis(self) -> list[Polynomial]:
        return [Polynomial(self.d, dict(zip(self.exponents, row)))
                for row in self.exact_coefficients]


def hharmonic_basis(n: int, params: KappaParams, sphere_rule: SphereRule) -> HarmonicBasis:
    """Construct an orthonormal basis of the degree-n h-harmonics.

    Steps: exact integer matrix of q^2 Delta_kappa (kappa = p/q) on degree-n
    monomials, exact nullspace (dimension is a hard invariant and a mismatch
    raises), Gram matrix of the nullspace under the a_kappa-normalized
    h^2 sphere inner product by quadrature, Cholesky orthonormalization.
    The Gram residual is re-measured with an independent rule at twice the
    order so a too-coarse sphere rule is visible in the output."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if sphere_rule.d != params.d:
        raise ValueError("sphere rule dimension does not match params")
    d = params.d
    monos = list(compositions(d, n))
    if n < 2:
        null = [[Fraction(i == j) for j in range(len(monos))] for i in range(len(monos))]
    else:
        lower = {e: i for i, e in enumerate(compositions(d, n - 2))}
        rows = [[0] * len(monos) for _ in lower]
        for col, e in enumerate(monos):
            for mono, coef in scaled_laplacian({e: 1}, params).items():
                rows[lower[mono]][col] = coef
        null = _rational_nullspace(rows, len(monos))
    expected = harmonic_dim(n, d)
    if len(null) != expected:
        raise SelfCheckError(
            f"nullspace dimension {len(null)} != {expected} for n={n}, d={d}, "
            f"kappa={params.kappa}; the Laplacian assembly is wrong")

    exps = np.asarray(monos)
    raw = np.array([[float(c) for c in row] for row in null])

    def gram(coeffs: np.ndarray, rule: SphereRule) -> np.ndarray:
        vals = coeffs @ _monomial_values(rule.nodes, exps).T
        wh2 = rule.weights * hweight(rule.nodes, params) ** 2
        g = params.a_kappa * (vals * wh2) @ vals.T
        return (g + g.T) / 2

    G = gram(raw, sphere_rule)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SelfCheckError(
            "Gram matrix is not positive definite; raise the sphere order") from exc
    mix = solve_triangular(L, np.eye(len(null)), lower=True)

    # exact dyadic mix applied to the exact nullspace: stays in the nullspace
    mix_frac = [[Fraction(v) for v in row] for row in mix]
    exact = tuple(
        tuple(sum(mi * nv for mi, nv in zip(mrow, col)) for col in zip(*null))
        for mrow in mix_frac
    )
    coeffs = np.array([[float(c) for c in row] for row in exact])

    check_rule = build_sphere_rule(d, 2 * sphere_rule.order, kappa_hint=params.kappa)
    G2 = gram(coeffs, check_rule)
    residual = float(np.max(np.abs(G2 - np.eye(len(null)))))
    return HarmonicBasis(
        n=n, d=d, kappa=params.kappa, exponents=tuple(monos), coefficients=coeffs,
        exact_coefficients=exact, gram_residual=residual,
        gram_cond=float(np.linalg.cond(G)),
    )


# ---------------------------------------------------------------------------
# reproducing kernels at coordinate vectors
# ---------------------------------------------------------------------------


def _zn_values(n: int, lam: float, t) -> np.ndarray:
    """Z_n^lambda(t) through the Jacobi normalizer; safe down to lambda = 0."""
    jp = JacobiParams(lam - 0.5, lam - 0.5)
    return kernel_normalizer(n, jp)[n] * jacobi_eval(n, jp, t)


def _check_on_sphere(x: np.ndarray) -> None:
    if np.max(np.abs(np.sum(x * x, axis=-1) - 1.0), initial=0.0) > 1e-10:
        raise ValueError("x must lie on the unit sphere")


def repro_kernel_axis(n: int, ell: int, x, params: KappaParams):
    """Reproducing kernel of the degree-n h-harmonics at (x, e_ell):
    c_kappa int Z_n^lambda(<x, t>) t_{ell-1} (t_0...t_{d-1})^(kappa-1) dt,
    exact on polynomial_rule.  The factor t_{ell-1} pairs axis ell with
    <x, e_ell> = x_ell; at kappa = 0 the integral collapses to the classical
    Gegenbauer kernel Z_n at x_ell.  x is one point (float) or an (N, d)
    array (array)."""
    x = np.asarray(x, dtype=float)
    _check_on_sphere(x)
    lam = float(params.lambda_kappa)
    profile = AxisFunction(ell=ell, profile=lambda s: _zn_values(n, lam, s))
    value = vk_axis(profile, x, params, polynomial_rule(params, n))
    return value if x.ndim == 2 else float(value)


def repro_kernel_basis(n: int, x, y, basis: HarmonicBasis) -> float:
    """sum_m Y_m(x) Y_m(y) over an orthonormal degree-n basis."""
    if basis.n != n:
        raise ValueError(f"basis has degree {basis.n}, requested {n}")
    pts = np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    vals = basis.evaluate(pts)
    return float(np.dot(vals[:, 0], vals[:, 1]))
