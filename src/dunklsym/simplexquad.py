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
closed-form Dirichlet moments, in a handful of array calls, before it is used.

At kappa = 0 the normalized weight c_kappa (t_0 ... t_{d-1})^(kappa-1) dt
tends to a unit point mass at each vertex of T, so build_rule returns that
limit: the d vertices with unit weights.  It is exact by construction and
skips the moment battery.  build_rule also owns the node budget: a rule of
more than CHUNK_ELEMENTS nodes is refused before any node is computed, and
so is a kappa whose total weight (dirichlet_mass) is not a normal float.

Each distinct (d, kappa, order) rule, the vertex rule included, and each
Gauss-Jacobi rule is built once per process and shared by every later call,
its arrays read-only.  Kept simplex rules hold at most CHUNK_ELEMENTS node
coordinates plus weights, the least recently used going first; a larger
rule is returned but not kept.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import OrderedDict, deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .orthopoly import JacobiParams, jacobi_rows


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


def dirichlet_mass(d: int, kappa: float) -> float:
    """Gamma(kappa)^d / Gamma(d kappa), the total Dirichlet weight on T^d; d at
    kappa = 0, the vertex rule's, so c_kappa * mass = d for every kappa.
    OverflowError unless it is a positive normal float: every weight and
    moment of a rule is a fraction of it (at d = 3 it underflows past
    kappa = 214.03)."""
    if kappa == 0:
        return float(d)
    try:
        mass = math.exp(d * math.lgamma(kappa) - math.lgamma(d * kappa))
    except OverflowError:
        mass = math.inf
    require_normal(mass, f"kappa = {kappa} at d = {d}: the simplex weight's mass "
                         f"Gamma(kappa)^d / Gamma(d kappa)")
    return mass


def require_normal(values, what: str) -> None:
    """OverflowError, naming what, unless every entry of values is a positive
    normal float: the one test of a kappa in float range."""
    values = np.asarray(values, dtype=float)
    if not np.all((values >= sys.float_info.min) & (values <= sys.float_info.max)):
        raise OverflowError(f"{what} is {values.min():.3g}, not a normal float")


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


@functools.lru_cache(maxsize=256)
def gauss_jacobi01(order: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [0,1] for the weight u^p (1-u)^q, exponents > -1.

    On [-1, 1], u = (1 + x) / 2, this is the Jacobi weight (1-x)^a (1+x)^b
    with (a, b) = (q, p).  The nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix (Golub and Welsch, Math. Comp. 23 (1969)), its
    first off-diagonal entry written as its limit, since the general formula
    is 0/0 at a + b = -1.  One Newton step on P_m, with P_m and P_(m-1) from
    orthopoly.jacobi_rows, refines them; u and 1 - u are formed from 1 + x
    and 1 - x, which are exact near their endpoint, and the step, so both
    keep their relative accuracy there.  The weights are 1/((1-x^2) P_m'^2),
    P_m' carried to the refined node by P_m'' from the Jacobi differential
    equation, scaled to the exact mass B(p+1, q+1).  ValueError for
    order^2 > CHUNK_ELEMENTS, before the order x order matrix exists.  Memoized
    on (order, p, q): a repeated call returns the same read-only arrays."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order * order > CHUNK_ELEMENTS:
        raise ValueError(f"a Gauss-Jacobi rule of order {order} needs a Jacobi matrix of "
                         f"over {CHUNK_ELEMENTS} elements")
    jp = JacobiParams(float(q), float(p))
    a, b, m = jp.alpha, jp.beta, order
    n = np.arange(1.0, m)
    s = 2 * n + a + b
    off = np.empty(m - 1)  # squared off-diagonal entries, rows n - 1 and n
    off[:1] = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    off[1:] = 4 * n[1:] * (n[1:] + a) * (n[1:] + b) * (n[1:] + a + b) / (
        s[1:] ** 2 * (s[1:] + 1) * (s[1:] - 1))
    jac = np.zeros((m, m))
    jac.flat[::m + 1] = np.concatenate([[(b - a) / (a + b + 2)], (b * b - a * a) / (s * (s + 2))])
    jac.flat[1::m + 1] = np.sqrt(off)
    x = np.linalg.eigvalsh(jac, UPLO="U")
    prev, cur = deque(jacobi_rows(m, jp, x), maxlen=2)
    c = 2 * m + a + b
    dp = (m * (a - b - c * x) * cur + 2 * (m + a) * (m + b) * prev) / (c * (1 - x) * (1 + x))
    dx = cur / dp  # the refined node is x - dx
    ddp = -((b - a - (a + b + 2) * x) * dp + m * (m + a + b + 1) * cur) / ((1 - x) * (1 + x))
    lo, hi = (1 + x - dx) / 2, (1 - x + dx) / 2  # u and 1 - u
    w = 1 / (lo * hi * (dp - dx * ddp) ** 2)
    mass = math.exp(math.lgamma(p + 1) + math.lgamma(q + 1) - math.lgamma(p + q + 2))
    u, w = np.where(x < 0, lo, 1 - hi), w * (mass / w.sum())
    u.flags.writeable = w.flags.writeable = False
    return u, w


def gauss_jacobi(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1, 1] for the weight (1-x)^alpha (1+x)^beta:
    gauss_jacobi01's rule moved by x = 2u - 1."""
    u, w = gauss_jacobi01(order, beta, alpha)
    return 2 * u - 1, w * 2.0 ** (alpha + beta + 1)


def exact_order(degree: int) -> int:
    """Smallest per-axis order whose rule integrates every polynomial of
    total degree <= degree exactly (build_rule is exact to 2*order - 1)."""
    return (degree + 2) // 2


@functools.lru_cache(maxsize=256)
def exponential_order(rho: float, imaginary: bool) -> int:
    """Smallest per-axis order m whose rule integrates e^{i<y, t>} t_{ell-1}
    (imaginary) or e^{<y, t>} t_{ell-1} to 2^-53 of the value, rho half the
    range of y's entries.  On the simplex e^{i<y, t>} = e^{ic} e^{i<y - c, t>}
    with c their midpoint and |<y - c, t>| <= rho; the Jacobi-Anger expansion
    of e^{i rho s} has coefficients 2|J_k(rho)| <= 2 (rho/2)^k / k!, and a
    rule exact to degree 2m - 1 leaves degree 2m - 2 to the profile, so it
    errs by at most twice the tail from k = 2m - 1:

        4 (rho/2)^(2m-1) / (2m-1)! / (1 - rho/(4m)) <= 2^-53.

    A real argument has I_k(rho) <= (rho/2)^k / k! e^{rho^2/(8m)} and a value
    >= e^{c - rho}, hence the extra factor e^{rho + rho^2/(8m)}.  The bound
    falls with m once 4m > rho: doubling, then bisection, finds m (memoized)."""
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError("rho must be finite and >= 0")
    if rho == 0:
        return 1

    def misses(m: int) -> bool:
        if 4 * m <= rho:
            return True
        k = 2 * m - 1
        log_bound = (math.log(4) + k * math.log(rho / 2) - math.lgamma(k + 1)
                     - math.log1p(-rho / (4 * m)))
        if not imaginary:
            log_bound += rho + rho * rho / (8 * m)
        return log_bound > -53 * math.log(2)

    hi = 1
    while misses(hi):
        hi *= 2
    lo = hi // 2  # misses, or 0 when hi = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if misses(mid) else (lo, mid)
    return hi


def default_order(degree: int) -> int:
    """Per-axis order for integrands along <x, t> that are not polynomials,
    such as kernel_bound_check's (1 - s + n^-2)^-(lambda+1) profile; a
    degree-n polynomial profile builds intertwine.polynomial_rule instead."""
    return max(32, degree // 2 + 10)


# Element budget of the largest temporary a batched evaluation holds at once.
CHUNK_ELEMENTS = 4_000_000
# Element budget of a cache-sized block: 2 MB of float64, one L2 cache.
BLOCK_ELEMENTS = 2**18


def chunk_slices(count: int, per_row: int):
    """Slices of range(count) of at least one row and CHUNK_ELEMENTS // per_row rows."""
    step = max(1, CHUNK_ELEMENTS // per_row)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def block_slices(count: int, per_row: int):
    """Slices of range(count) of BLOCK_ELEMENTS // per_row rows, and never a
    block of one row unless count is 1: a remainder of one row joins the block
    before it, since numpy computes a one-row matrix product by a
    matrix-vector call, whose last bit can differ from the matrix product's."""
    step = max(2, BLOCK_ELEMENTS // per_row)
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


@dataclass(frozen=True)
class SimplexRule:
    d: int
    kappa: float
    order: int
    nodes: np.ndarray  # (N, d) homogeneous coordinates, rows sum to 1
    weights: np.ndarray  # (N,)

    @property
    def mass(self) -> float:
        """The total weight, dirichlet_mass(d, kappa)."""
        return dirichlet_mass(self.d, self.kappa)

    def __len__(self) -> int:
        return len(self.weights)


def require_rule(rule: SimplexRule | None, params) -> None:
    """ValueError unless rule is a simplex rule for params' (d, kappa).

    A function, not a method, because the missing rule (None) is one of the
    cases it refuses."""
    if rule is None:
        raise ValueError("a simplex rule is required")
    if rule.d != params.d or abs(rule.kappa - params.kappa_float) > 1e-13:
        raise ValueError(
            f"rule is for (d={rule.d}, kappa={rule.kappa}), "
            f"params are (d={params.d}, kappa={params.kappa_float})")


class SelfCheckError(RuntimeError):
    """A built object failed the self-check it runs before it is handed out
    (moments of a simplex rule, mass of a sphere rule, a Gram matrix)."""


class MomentValidationError(SelfCheckError):
    """A constructed rule failed the Dirichlet-moment battery."""


@functools.cache
def _moment_plan(d: int, degree: int) -> tuple[list, np.ndarray]:
    """_validate_moments' table of the monomials t^alpha, |alpha| <= degree:
    its products (rows, prefix rows, i), degree by degree, and the alpha of
    each row.  The C(L - 1 + i, i) monomials of degree L - 1 in t_0, ..., t_i
    lead their degree, so each product is a prefix of it times t_i."""
    alphas, steps, unit, start = [np.zeros((1, d), dtype=int)], [], np.eye(d, dtype=int), 1
    for level in range(1, degree + 1):
        prev, first, groups = alphas[-1], start - len(alphas[-1]), []
        for i in range(d):
            count = math.comb(level - 1 + i, i)
            steps.append((slice(start, start + count), slice(first, first + count), i))
            groups.append(prev[:count] + unit[i])
            start += count
        alphas.append(np.concatenate(groups))
    return steps, np.concatenate(alphas)


def _validate_moments(rule: SimplexRule, max_total_degree: int) -> np.ndarray:
    """Compare sum_k w_k t_k^alpha, on the rule's own nodes and weights, with
    mass prod_i (kappa)_{alpha_i} / (d kappa)_{|alpha|} for every |alpha| <=
    degree, to a relative 1e-10: return the sums (alpha in _moment_plan's
    order) or raise MomentValidationError naming the worst alpha.  On a block
    of nodes, a table of w t^alpha (at most BLOCK_ELEMENTS // 3 elements,
    allocated once: a larger one is faster at 9 261 nodes but keeps more heap)
    grows degree by degree, by d products of a prefix of the degree below
    with t_i, and one row sum adds it up; einsum (no BLAS call) reduces the
    top degree, the most rows, without storing it."""
    steps, alphas = _moment_plan(rule.d, max_total_degree)
    below = steps[-1][1].stop if steps else 1  # the rows under the top degree
    blocks = -(-len(rule) // max(1, BLOCK_ELEMENTS // (3 * below)))
    width = -(-len(rule) // blocks)  # blocks of even widths, the last one no wider
    table, T, sums = np.empty((below, width)), np.empty((rule.d, width)), np.empty(len(alphas))
    products = [(table[src], T[i], table[dst]) for dst, src, i in steps[:-rule.d]]
    dots = [(table[src], T[i], sums[dst]) for dst, src, i in steps[-rule.d:]]
    got = np.zeros(len(alphas))
    for start in range(0, len(rule), width):
        w = min(width, len(rule) - start)
        T[:, :w] = rule.nodes[start:start + w].T
        table[0, :w] = rule.weights[start:start + w]
        table[0, w:] = 0.0  # the last block's spare columns add nothing
        for prefix, t, out in products:
            np.multiply(prefix, t, out=out)
        table.sum(axis=1, out=sums[:below])
        for prefix, t, out in dots:
            np.einsum("rk,k->r", prefix, t, out=out)
        got += sums
    rising = np.cumprod([[1.0] + [k + a for a in range(max_total_degree)]  # (k)_a
                         for k in (rule.kappa, rule.d * rule.kappa)], axis=1)
    ref = rule.mass * rising[0, alphas].prod(axis=1) / rising[1, alphas.sum(axis=1)]
    err = np.abs(got - ref) / ref
    worst = int(np.argmax(err))  # the first NaN, if any
    if not err[worst] <= 1e-10:
        raise MomentValidationError(
            f"moment validation failed at alpha={tuple(alphas[worst].tolist())}: rel err "
            f"{err[worst]:.3e} (d={rule.d}, kappa={rule.kappa}, order={rule.order})"
        )
    return got


def tensor_grid(axes) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, len(axes)) and weights (N,) of the product of one-dimensional
    rules axes = [(nodes, weights), ...], the last axis varying fastest.  Both
    broadcast each axis along the grid; the weights multiply in axis order."""
    U = np.empty([len(u) for u, _ in axes] + [len(axes)])
    W = np.ones(())
    for j, (u, w) in enumerate(axes):
        along = (-1,) + (1,) * (len(axes) - 1 - j)  # axis j of the grid
        U[..., j] = u.reshape(along)
        W = W * w.reshape(along)
    return U.reshape(-1, len(axes)), W.ravel()


# (d, kappa, order) -> the rule build_rule made, least recently used first
_RULES: OrderedDict[tuple[int, float, int], SimplexRule] = OrderedDict()


def _elements(rule: SimplexRule) -> int:
    return rule.nodes.size + rule.weights.size


def build_rule(d: int, kappa: float, per_axis_order: int) -> SimplexRule:
    """Tensor Gauss-Jacobi rule on T^d for the Dirichlet weight.

    The rule is exact for polynomials in t of total degree <= 2*order - 1 and
    is validated against closed-form moments up to degree min(6, 2*order - 1)
    before being returned; validation failure aborts construction.  kappa = 0
    gives the vertex rule (module docstring), whatever the order.  ValueError
    for negative kappa and for order^(d-1) > CHUNK_ELEMENTS nodes, and
    OverflowError for a kappa whose dirichlet_mass is not a normal float,
    before any node.  Repeated calls return the same read-only rule (module
    docstring).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    kappa = float(kappa)
    if kappa != 0 and per_axis_order ** (d - 1) > CHUNK_ELEMENTS:
        raise ValueError(f"a per-axis order {per_axis_order} simplex rule has over "
                         f"{CHUNK_ELEMENTS} nodes at d = {d}")
    key = (d, kappa, per_axis_order)
    rule = _RULES.get(key)
    if rule is not None:
        _RULES.move_to_end(key)
        return rule
    dirichlet_mass(d, kappa)
    rule = _new_rule(d, kappa, per_axis_order)
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    if _elements(rule) <= CHUNK_ELEMENTS:
        _RULES[key] = rule
        while sum(map(_elements, _RULES.values())) > CHUNK_ELEMENTS:
            _RULES.popitem(last=False)
    return rule


def _new_rule(d: int, kappa: float, per_axis_order: int) -> SimplexRule:
    """The rule build_rule returns, built and validated."""
    if kappa == 0:
        return SimplexRule(d=d, kappa=0.0, order=per_axis_order,
                           nodes=np.eye(d), weights=np.ones(d))
    U, W = tensor_grid([
        gauss_jacobi01(per_axis_order, kappa - 1.0, (d - j) * kappa - 1.0)
        for j in range(1, d)
    ])
    rem = np.cumprod(1 - U, axis=1)  # column j: (1 - u_1) ... (1 - u_{j+1})
    T = np.empty((len(W), d))
    T[:, 0], T[:, 1], T[:, 2:] = rem[:, -1], U[:, 0], U[:, 1:] * rem[:, :-1]
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
