"""The intertwining operator V_kappa for S_d.

V_kappa is the degree-preserving linear operator with D_i V = V d/dx_i and
V 1 = 1.  For functions of a single coordinate, F(x) = f(x_ell), it has the
simplex representation

    V F(x) = c_kappa int_T f(x_1 t_0 + ... + x_d t_{d-1})
                          t_{ell-1} (t_0 ... t_{d-1})^(kappa-1) dt,

with c_kappa = Gamma(d kappa + 1) / (kappa Gamma(kappa)^d).  As kappa -> 0
that measure tends to a unit point mass at each vertex of T, so V_0 is the
identity with no special case: simplexquad.build_rule returns the vertex rule
at kappa = 0 and c_kappa is 1.  This module
provides that representation numerically (vk_axis, at one point or many;
every kernel at e_ell is a profile handed to it, a polynomial one with the
rule polynomial_rule builds, an exponential one with exponential_rule's),
its exact polynomial image on monomials (vk_monomial_exact, rational in
kappa), an exact mechanical verification of
the intertwining relation, the full two-variable d = 2 representation, and
the sphere-average identity relating V to a one-dimensional Gegenbauer
integral.

No representation is provided for generic multivariate arguments when d > 2;
the AxisFunction type makes the restriction explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import simplexquad
from .polycore import KappaParams, Polynomial, check_axis, compositions, dunkl_sums
from .simplexquad import (SimplexRule, build_rule, chunk_slices, exact_order, exponential_order,
                          gauss_jacobi, integrate, require_rule)


@dataclass(frozen=True)
class AxisFunction:
    """F(x_1, ..., x_d) = profile(x_ell): the single-component functions
    V_kappa has a simplex representation for."""

    ell: int
    profile: Callable[[np.ndarray], np.ndarray]


def vk_axis(F: AxisFunction, x, params: KappaParams, rule: SimplexRule):
    """V_kappa F at x of shape (d,), or at every row of an (N, d) array, for
    a single-component F.

    The factor t_{ell-1} is part of the integrand so one rule per (d, kappa)
    serves every axis.  At kappa = 0 the vertex rule gives F(x) exactly: the
    node e_ell carries weight 1 and every other vertex the factor t_{ell-1} = 0.
    The kernels at e_ell (repro_kernel_axis, cesaro_kernel_axis,
    dunkl_exp_axis) are this map applied to a one-variable profile, which
    takes arrays of any shape (polynomial ones on polynomial_rule, exponential
    ones on exponential_rule).  Points go
    through in chunks under simplexquad.CHUNK_ELEMENTS.  The result is a numpy
    scalar for one point and an (N,) array for many, complex if the profile is."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    if x.ndim > 2 or X.shape[1] != params.d:
        raise ValueError(f"x must have shape ({params.d},) or (N, {params.d})")
    check_axis(F.ell, params.d)
    require_rule(rule, params)
    values = params.c_kappa * np.concatenate([
        integrate(rule, lambda T: F.profile(X[sl] @ T.T) * T[:, F.ell - 1])
        for sl in chunk_slices(len(X), len(rule))])
    return values[0] if x.ndim == 1 else values


def polynomial_order(n: int) -> int:
    """The per-axis order of polynomial_rule for a profile of degree n: the
    smallest exact for the degree n + 1 integrand g(<x, t>) t_{ell-1}."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return exact_order(n + 1)


def polynomial_rule(params: KappaParams, n: int) -> SimplexRule:
    """The rule vk_axis needs for a polynomial profile of degree n, of
    per-axis order polynomial_order(n).  build_rule refuses one of more than
    CHUNK_ELEMENTS nodes, and gives the vertex rule at kappa = 0."""
    return build_rule(params.d, params.kappa_float, polynomial_order(n))


def exponential_rule(params: KappaParams, y, imaginary: bool) -> SimplexRule:
    """The rule for the exponent <y, t> of the profile e^{i s} (imaginary) or
    e^s, y of shape (d,) or (N, d): per-axis order exponential_order(rho),
    rho the largest half range (max - min) / 2 of a row of y, which is half
    the range of the exponent at the simplex vertices.  ValueError for a
    non-finite entry of y; build_rule refuses a rule of more than
    CHUNK_ELEMENTS nodes before computing any, and gives the vertex rule at
    kappa = 0."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("the argument y must be finite")
    order = exponential_order(float(np.max(np.ptp(y, axis=-1))) / 2, imaginary)
    return build_rule(params.d, params.kappa_float, order)


def _image_numerators(n: int, d: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer coefficients of N_n = q^n (d kappa + 1)_n V[x_ell^n] for every
    axis ell, kappa = p/q:

        N_alpha = multinomial(n, alpha) prod_{k=1}^{alpha_ell} (p + k q)
                  prod_{i != ell} prod_{k=0}^{alpha_i - 1} (p + k q).

    Returns the degree-n exponents (M, d) in compositions order and the
    Python-int coefficients (d, M), row ell - 1 for axis ell (zero off the
    axis at kappa = 0)."""
    rising, shifted = [1], [1]  # prod_{k=0}^{a-1} and prod_{k=1}^{a} of (p + k q)
    for k in range(n):
        rising.append(rising[-1] * (p + k * q))
        shifted.append(shifted[-1] * (p + (k + 1) * q))
    rising, shifted = np.array(rising, dtype=object), np.array(shifted, dtype=object)
    fact = np.array([math.factorial(a) for a in range(n + 1)], dtype=object)
    exps = compositions(d, n)
    factors = np.repeat(rising[exps][None], d, axis=0)  # (ell, alpha, i)
    diagonal = np.arange(d)
    factors[diagonal, :, diagonal] = shifted[exps].T
    return exps, fact[n] // fact[exps].prod(axis=1) * factors.prod(axis=2)


def vk_monomial_exact(n: int, ell: int, params: KappaParams) -> Polynomial:
    """V_kappa[x_ell^n] as an exact polynomial, rational in kappa.

    Expanding the simplex representation by the multinomial theorem and
    integrating with the closed-form Dirichlet moments gives

        V[x_ell^n] = sum_{|alpha| = n} multinomial(n, alpha)
                     (kappa+1)_{alpha_ell} prod_{i != ell} (kappa)_{alpha_i}
                     / (d kappa + 1)_n  *  x^alpha.

    With kappa = p/q these are _image_numerators over D_n = prod_{k=1}^{n}
    (d p + k q); kappa = 0 degenerates correctly to x_ell^n."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    d = params.d
    check_axis(ell, d)
    p, q = params.kappa.numerator, params.kappa.denominator
    den = math.prod(d * p + k * q for k in range(1, n + 1))
    exps, coefs = _image_numerators(n, d, p, q)
    return Polynomial(d, {tuple(alpha): Fraction(num, den)
                          for alpha, num in zip(exps.tolist(), coefs[ell - 1])})


def verify_intertwining(n_max: int, params: KappaParams) -> dict:
    """Check D_i V[x_ell^n] = V[d/dx_i x_ell^n] exactly for all ell, n, i.

    The right side is n * V[x_ell^(n-1)] when i = ell and the zero polynomial
    otherwise.  With kappa = p/q in lowest terms each identity is checked
    multiplied by q D_n, D_n = prod_{k=1}^{n} (d p + k q), which is nonzero:
    on the integer images N_n = D_n V[x_ell^n] it reads

        q D_i N_n - delta_{i ell} n q (d p + n q) N_{n-1} = 0.

    Every identity is a group (n, ell, i) of one polycore.dunkl_sums call,
    and a group with a nonzero sum fails.  Work streams degree by degree:
    the identities of consecutive degrees share a call while their terms fit
    CHUNK_ELEMENTS, and a degree too large for one call is split by ell.
    The sums run on int64 when an exact bound proves that no partial sum
    reaches 2^63, and on Python ints otherwise; no Fraction is built.
    Returns {"passed": bool, "checks": int, "failed": [{ell, n, i}, ...]}
    in (ell, n, i) order; ValueError for a negative n_max."""
    if n_max < 0:
        raise ValueError("max degree must be >= 0")
    d = params.d
    p, q = params.kappa.numerator, params.kappa.denominator
    axes = np.arange(d)
    failed, block, budget = [], [], 0

    def check_block():
        parts = [np.concatenate(column) for column in zip(*block)]
        bad, _, _ = dunkl_sums(*parts[:4], q, p, plus=tuple(parts[4:]))
        failed.extend((g // d % d + 1, g // (d * d), g % d + 1) for g in sorted(set(bad.tolist())))

    previous = (np.zeros((0, d), dtype=np.int64), np.zeros((d, 0), dtype=object))
    for n in range(n_max + 1):
        exps, coefs = _image_numerators(n, d, p, q)
        factor = n * q * (d * p + n * q)
        size = len(exps)
        per_ell = d * size * (1 + (d - 1) * n)  # at most 1 + (d - 1) n terms a row
        for sl in chunk_slices(d, per_ell):
            ells = axes[sl]
            cost = len(ells) * per_ell
            if block and budget + cost > simplexquad.CHUNK_ELEMENTS:
                check_block()
                block, budget = [], 0
            group = (n * d + ells) * d  # group of (n, ell, i) is group + i
            # rows (exps, coefs, axes, groups), then plus rows (exps, coefs, groups)
            block.append((
                np.tile(exps, (len(ells) * d, 1)),
                np.repeat(coefs[ells], d, axis=0).ravel(),
                np.tile(np.repeat(axes, size), len(ells)),
                np.repeat((group[:, None] + axes).ravel(), size),
                np.tile(previous[0], (len(ells), 1)),
                (previous[1][ells] * -factor).ravel(),
                np.repeat(group + ells, len(previous[0]))))
            budget += cost
        previous = exps, coefs
    check_block()
    return {"passed": not failed, "checks": d * d * (n_max + 1),
            "failed": [{"ell": ell, "n": n, "i": i} for ell, n, i in sorted(failed)]}


def vk_d2_generic(f, x, params: KappaParams, rule: SimplexRule) -> float:
    """V_kappa f at x in R^2 for a generic two-variable f.

    Representation: c_kappa int f(x_1 t_0 + x_2 t_1, x_1 t_1 + x_2 t_0)
    t_0^kappa t_1^(kappa-1) dt.  The asymmetric extra power of t_0 rides in
    the integrand on top of a standard symmetric-weight rule."""
    if params.d != 2:
        raise ValueError("vk_d2_generic requires d = 2")
    x = np.asarray(x, dtype=float)
    require_rule(rule, params)

    def integrand(T):
        u = x[0] * T[:, 0] + x[1] * T[:, 1]
        v = x[0] * T[:, 1] + x[1] * T[:, 0]
        return np.asarray(f(u, v)) * T[:, 0]

    return params.c_kappa * integrate(rule, integrand)


def vk_d2_poly_exact(p: Polynomial, params: KappaParams) -> Polynomial:
    """Exact V_kappa image of a bivariate polynomial via the d=2 representation.

    For a monomial x^a y^b the expansion of f(x_1 t_0 + x_2 t_1, x_1 t_1 +
    x_2 t_0) against the weight t_0^kappa t_1^(kappa-1) integrates to
    Pochhammer ratios: the (t_0^p t_1^q) moment times c_kappa equals
    (kappa+1)_p (kappa)_q / (2 kappa + 1)_{p+q}, the x^(p, q) coefficient of
    V[x_1^(p+q)] over binomial(p+q, p)."""
    if params.d != 2 or p.dim != 2:
        raise ValueError("vk_d2_poly_exact requires d = 2")
    out = Polynomial.zero(2)
    images: dict[int, Polynomial] = {}

    def cmoment(pw: int, qw: int) -> Fraction:
        if pw + qw not in images:
            images[pw + qw] = vk_monomial_exact(pw + qw, 1, params)
        return images[pw + qw].coefficient((pw, qw)) / math.comb(pw + qw, pw)

    for (a, b), coef in p.terms.items():
        terms: dict[tuple[int, ...], Fraction] = {}
        for i in range(a + 1):
            for j in range(b + 1):
                c = coef * math.comb(a, i) * math.comb(b, j) * cmoment(i + b - j, a - i + j)
                mono = (i + j, a + b - i - j)
                terms[mono] = terms.get(mono, Fraction(0)) + c
        out = out + Polynomial(2, terms)
    return out


def vk_sphere_average(f, x, params: KappaParams, sphere_rule) -> tuple[float, float]:
    """Both sides of the sphere-average identity

        a_kappa int_S V[f(<x, .>)](y) h^2(y) dsigma(y)
            = b_lambda int_{-1}^{1} f(|x| t) (1 - t^2)^(lambda - 1/2) dt.

    x must be a multiple of a coordinate vector (the only case where
    V[f(<x, .>)] is a single-component function with a known representation).
    Returns (lhs, rhs) computed independently; the caller asserts closeness."""
    from .harmonics import hweight, require_fit  # local import to avoid a cycle

    require_fit(sphere_rule, params)

    x = np.asarray(x, dtype=float)
    ell = int(np.argmax(np.abs(x))) + 1
    r = x[ell - 1]
    rest = np.delete(x, ell - 1)
    if np.max(np.abs(rest), initial=0.0) > 1e-12 * max(1.0, abs(r)):
        raise ValueError("x must be a multiple of a coordinate vector e_ell")
    lam = float(params.lambda_kappa)

    rule = build_rule(params.d, params.kappa_float, 48)
    F = AxisFunction(ell=ell, profile=lambda s: np.asarray(f(r * s), dtype=float))
    sphere_vals = vk_axis(F, sphere_rule.nodes, params, rule)
    h2 = hweight(sphere_rule.nodes, params) ** 2
    lhs = params.a_kappa * float(np.dot(sphere_rule.weights, sphere_vals * h2))

    t, w = gauss_jacobi(64, lam - 0.5, lam - 0.5)
    b_lam = math.exp(math.lgamma(lam + 1) - 0.5 * math.log(math.pi) - math.lgamma(lam + 0.5))
    rhs = b_lam * float(np.dot(w, np.asarray(f(abs(r) * t), dtype=float)))
    return lhs, rhs
