"""Quadrature on the homogeneous simplex with the Dirichlet weight.

The domain is T^d = {t in R^d : t_i >= 0, sum t_i = 1} written in homogeneous
coordinates (t_0, ..., t_{d-1}), integrated against d(t_1, ..., t_{d-1}) with
weight (t_0 ... t_{d-1})^(kappa - 1).  The rule tensorizes the triangular
substitution

    t_1 = u_1,  t_j = u_j (1-u_1) ... (1-u_{j-1}),  t_0 = (1-u_1) ... (1-u_{d-1}),

under which the weighted integral becomes a product of one-dimensional Beta
integrals: axis j (1-based) carries the weight u^(kappa-1) (1-u)^((d-j) kappa - 1),
because the Jacobian contributes (1-u_j)^(d-1-j) and the residual powers of
t_{j+1}, ..., t_0 supply the rest.  Each axis gets a Gauss-Jacobi rule.  Every
constructed rule is validated, on its own nodes and weights, against the
closed-form Dirichlet moments before it is handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import roots_jacobi


def dirichlet_moment(d: int, kappa: float, alpha) -> float:
    """int_T t^alpha (t_0...t_{d-1})^(kappa-1) dt = prod Gamma(kappa+a_i) / Gamma(d kappa + |alpha|)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d or any(a < 0 for a in alpha):
        raise ValueError("alpha must be a length-d multi-index of non-negative integers")
    k = float(kappa)
    return math.exp(
        sum(math.lgamma(k + a) for a in alpha) - math.lgamma(d * k + sum(alpha))
    )


def _gamma_exact(q: Fraction) -> tuple[Fraction, int]:
    """Gamma(q) for positive integer or half-integer q, as (rational, pi_power)
    with value = rational * pi^(pi_power/2).  Uses Gamma(m + 1/2) =
    (2m)!/(4^m m!) sqrt(pi)."""
    if q <= 0:
        raise ValueError("need a positive argument")
    if q.denominator == 1:
        return Fraction(math.factorial(q.numerator - 1)), 0
    if q.denominator == 2:
        m = (q.numerator - 1) // 2
        return Fraction(math.factorial(2 * m), 4**m * math.factorial(m)), 1
    raise ValueError("argument is neither integer nor half-integer")


def dirichlet_moment_exact(d: int, kappa: Fraction, alpha) -> tuple[Fraction, int] | None:
    """Exact moment as (rational, pi_power) meaning rational * pi^(pi_power/2),
    available when kappa is an integer or half-integer; None otherwise."""
    kappa = Fraction(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if kappa.denominator not in (1, 2):
        return None
    alpha = tuple(int(a) for a in alpha)
    num = Fraction(1)
    pi_pow = 0
    for a in alpha:
        r, p = _gamma_exact(kappa + a)
        num *= r
        pi_pow += p
    r, p = _gamma_exact(d * kappa + sum(alpha))
    return num / r, pi_pow - p


def gauss_jacobi01(order: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [0,1] for the weight u^p (1-u)^q, exponents > -1.

    When p + q = -1, scipy divides by zero in a np.where branch it then
    discards; the warning is silenced here and the returned rule checked
    instead."""
    if order < 1:
        raise ValueError("order must be >= 1")
    with np.errstate(invalid="ignore", divide="ignore"):
        x, w = roots_jacobi(order, q, p)  # scipy weight: (1-x)^q (1+x)^p on [-1,1]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError(f"Gauss-Jacobi rule of order {order} for exponents "
                         f"({p}, {q}) is not finite")
    return (x + 1) / 2, w * 0.5 ** (p + q + 1)


def exact_order(degree: int) -> int:
    """Smallest per-axis order whose rule integrates every polynomial of
    total degree <= degree exactly (build_rule is exact to 2*order - 1)."""
    return (degree + 2) // 2


def default_order(degree: int) -> int:
    """Per-axis order for integrands along <x, t> that are not polynomials,
    such as kernel_bound_check's (1 - s + n^-2)^-(lambda+1) profile; a
    degree-n polynomial profile builds intertwine.polynomial_rule instead."""
    return max(32, degree // 2 + 10)


# Element budget of the largest temporary a batched evaluation holds at once.
CHUNK_ELEMENTS = 4_000_000


def chunk_slices(count: int, per_row: int):
    """Slices of range(count) of at least one row and CHUNK_ELEMENTS // per_row rows."""
    step = max(1, CHUNK_ELEMENTS // per_row)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


@dataclass(frozen=True)
class SimplexRule:
    d: int
    kappa: float
    order: int
    nodes: np.ndarray  # (N, d) homogeneous coordinates, rows sum to 1
    weights: np.ndarray  # (N,)

    @property
    def mass(self) -> float:
        """Gamma(kappa)^d / Gamma(d kappa), the total weight."""
        return math.exp(self.d * math.lgamma(self.kappa) - math.lgamma(self.d * self.kappa))

    def __len__(self) -> int:
        return len(self.weights)


def require_rule(rule: SimplexRule | None, params) -> None:
    """ValueError unless rule is a simplex rule for params' (d, kappa).

    A function, not a method, because the missing rule (None) is one of the
    cases it refuses.  Callers run it only when kappa > 0."""
    if rule is None:
        raise ValueError("a simplex rule is required when kappa > 0")
    if rule.d != params.d or abs(rule.kappa - params.kappa_float) > 1e-13:
        raise ValueError(
            f"rule is for (d={rule.d}, kappa={rule.kappa}), "
            f"params are (d={params.d}, kappa={params.kappa_float})")


class SelfCheckError(RuntimeError):
    """A built object failed the self-check it runs before it is handed out
    (moments of a simplex rule, mass of a sphere rule, a Gram matrix)."""


class MomentValidationError(SelfCheckError):
    """A constructed rule failed the Dirichlet-moment battery."""


def _validate_moments(rule: SimplexRule, max_total_degree: int, rtol: float = 1e-10):
    """Compare sum_k w_k t_k^alpha, over the rule's own nodes, with
    dirichlet_moment for every |alpha| <= degree.  A monomial is a sorted
    sequence s of coordinates; sorting the sequences walks them depth first,
    each after its prefix s[:-1], so row len(s) of `path`, w t^s on a block of
    nodes, is the prefix's row times t_{s[-1]}.  A block has CHUNK_ELEMENTS //
    (number of monomials) nodes."""
    d = rule.d
    seqs = sorted(s for m in range(max_total_degree + 1)
                  for s in combinations_with_replacement(range(d), m))
    alphas = [tuple(s.count(i) for i in range(d)) for s in seqs]
    got = np.zeros(len(seqs))
    for sl in chunk_slices(len(rule), len(seqs)):
        T = np.ascontiguousarray(rule.nodes[sl].T)
        path = np.empty((max_total_degree + 1, T.shape[1]))
        path[0] = rule.weights[sl]
        for j, s in enumerate(seqs):
            if s:
                np.multiply(path[len(s) - 1], T[s[-1]], out=path[len(s)])
            got[j] += path[len(s)].sum()
    ref = np.array([dirichlet_moment(d, rule.kappa, alpha) for alpha in alphas])
    err = np.abs(got - ref) / ref
    worst = int(np.argmax(err))  # the first NaN, if any
    if not err[worst] <= rtol:
        raise MomentValidationError(
            f"moment validation failed at alpha={alphas[worst]}: rel err {err[worst]:.3e} "
            f"(d={d}, kappa={rule.kappa}, order={rule.order})"
        )


def tensor_grid(axes) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, len(axes)) and weights (N,) of the product of one-dimensional
    rules axes = [(nodes, weights), ...], the last axis varying fastest."""
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    return (np.stack([g.ravel() for g in grids], axis=-1),
            np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1))


def build_rule(d: int, kappa: float, per_axis_order: int) -> SimplexRule:
    """Tensor Gauss-Jacobi rule on T^d for the Dirichlet weight.

    The rule is exact for polynomials in t of total degree <= 2*order - 1 and
    is validated against closed-form moments up to degree min(6, 2*order - 1)
    before being returned; validation failure aborts construction.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    kappa = float(kappa)
    U, W = tensor_grid([
        gauss_jacobi01(per_axis_order, kappa - 1.0, (d - j) * kappa - 1.0)
        for j in range(1, d)
    ])
    n = U.shape[0]
    T = np.empty((n, d))
    rem = np.ones(n)
    for j in range(1, d):
        T[:, j] = U[:, j - 1] * rem
        rem = rem * (1 - U[:, j - 1])
    T[:, 0] = rem
    rule = SimplexRule(d=d, kappa=kappa, order=per_axis_order, nodes=T, weights=W)
    _validate_moments(rule, min(6, 2 * per_axis_order - 1))
    return rule


def integrate(rule: SimplexRule, g):
    """Sum w_k g(node_k) with numpy's deterministic pairwise summation.

    g receives the full (N, d) node array and returns values whose last axis
    runs over the N nodes, real or complex: a length-N vector gives a scalar,
    an (M, N) array gives M integrals.  Non-finite values abort."""
    values = np.asarray(g(rule.nodes))
    if values.ndim == 0 or values.shape[-1] != len(rule):
        raise ValueError(f"integrand returned shape {values.shape}, expected (..., {len(rule)})")
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand produced non-finite values at quadrature nodes")
    return (rule.weights * values).sum(axis=-1)
