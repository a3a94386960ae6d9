"""The reflection-invariant weight on the sphere, quadrature adapted to it,
h-harmonic spaces as exact projections of monomials, and reproducing
kernels at coordinate vectors.

The weight prod |x_i - x_j|^(2 kappa) is polynomial exactly when 2 kappa is
an even integer; otherwise it has walls, |.|^(2 kappa) singularities, across
every plane x_i = x_j.  build_sphere_rule picks one rule family from its
kappa hint.  Where 2 kappa is even, the rule is the surface measure: the
circle, or Gauss latitudes carrying the S^(d-2) rule.  Otherwise, at d = 2
and 3, it is a Weyl-chamber rule (Humphreys, Reflection Groups and Coxeter
Groups, 1990, sec. 1.12): the chamber x_1 >= ... >= x_d in coordinates
whose walls x_i = x_j are the ends of Gauss-Jacobi rules, the wall factors
|.|^(2 kappa) in the Jacobi weights and the weights divided by them, so
that what is left to the rule is smooth and its sums converge spectrally,
and the chamber's images tile the sphere: 6 order^2 nodes at d = 3.  Its
divided weights cannot give the surface area, so a chamber rule checks its
h^2 mass instead, and it records the kappa whose walls it carries.

sphere_rule_blocks is the one way sphere-rule nodes are formed: a stream of
blocks, each formed from the rule's one-dimensional factors (the latitude
rule, the S^(d-2) rule it scales, or the chamber's Jacobi rules) when it is
handed out, its unit norm checked, and the mass checked after the last.
build_sphere_rule is that stream as one array, for callers that hold a
rule; both rules of a Lebesgue sweep walk the stream and never hold a rule
whole.  Every rule is antipodal by halves, its second half the first
reflected: a sweep walks a hemisphere, the stream's first half, and
reflects it, and the Gram sums of hharmonic_basis at fractional kappa walk
the first half and double it, since the Gram integrand w h^2 v v^T is
even (h^2 is even and a degree-n basis value has v(-x) = (-1)^n v(x)).

Basis construction is exact where exactness is cheap: the projection
formula of Dunkl and Xu maps the monomials x^alpha with alpha_d <= 1 to a
basis of the degree-n h-harmonics, taken as integer rows with no
elimination, and the Dunkl Laplacian of every row is checked to vanish
exactly.  Only the final orthonormalization uses floating point (then
applied exactly, as dyadic rationals, to the integer rows in one exact
integer product, so the basis stays exactly annihilated).  At integer kappa
h^2 is an integer polynomial and the Gram matrix of the rows is exact too:
with mean_S x^e = prod_i (e_i - 1)!! / prod_{k<K} (d + 2k) for even e,
|e| = 2K (0 when an e_i is odd), every h^2 moment of the monomials is a
rational with one denominator per degree, so the Gram matrix and its check
are formed from exact integers and rounded to float once, and no sphere
rule is summed.  At fractional kappa they are quadratures: monomial
values come from running-product power tables with no pow call, and Gram
matrices are summed over node blocks of simplexquad.BLOCK_ELEMENTS elements
of temporaries (2 MB of float64, an L2 cache), from
simplexquad.block_slices: each block forms its own h^2
weights, monomial table and basis values, and nothing is evaluated over the
whole rule at once.  The same block serves the Lebesgue sweep's tensor
table (summability._axis_kernel_table), whose temporaries grow with the
node count times a width.
The sweep's exact divided-difference table keeps simplexquad.CHUNK_ELEMENTS:
it makes about ten numpy calls per degree on short vectors, whose fixed
cost small blocks multiply, and blocks that small made it slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intertwine import polynomial_rule, vk_axis
from .orthopoly import zn_eval
from .polycore import (INT64_LIMIT, KappaParams, Monomial, Polynomial, compositions,
                       dunkl_sums, laplacian_sums)
from . import simplexquad
from .simplexquad import SelfCheckError, block_slices, chunk_slices, gauss_jacobi


# Smallest order of every sphere rule.  It is also the order of the coarse rule
# of every sweep of order 6 and 7 (coarse_sphere_order), so moving it would move
# the bytes of those integer-kappa sweeps.  The product and circle rules pass
# their checks from it on; the Weyl-chamber rule does not: at order 5 it misses
# its 1e-10 h^2 mass at every kappa tried (+1.2e-10 at kappa 1/100, +3.0e-10 at
# 1/2, +8.0e-8 at 3/2, +1.2e-5 at 151/2), so a fractional-kappa rule of order 5,
# and a fractional-kappa sweep whose coarse rule has order 5, fail their
# self-check.
MIN_SPHERE_ORDER = 5


def _chamber_kappa(kappa_hint) -> Fraction | None:
    """The kappa whose h^2 a rule for this hint carries in its weights: the
    hint where 2 kappa is not even (h^2 has |x_i - x_j|^(2 kappa) walls and
    the rule is the Weyl-chamber rule), and None where it is (h^2 is a
    polynomial and the rule is the surface-measure product or circle rule)."""
    if kappa_hint is None or Fraction(kappa_hint).denominator == 1:
        return None
    return Fraction(kappa_hint)


def require_sphere_rule(d: int, kappa_hint=None, order: int | None = None) -> None:
    """ValueError unless build_sphere_rule has a rule for S^(d-1) at this
    kappa, and at this order when one is given: d in {2, 3, 4}; at d = 4
    only a kappa with 2 kappa even, whose weight is a polynomial, since
    S^3 has no Weyl-chamber rule; and an order of at least MIN_SPHERE_ORDER."""
    if d not in (2, 3, 4):
        raise ValueError("only d in {2, 3, 4} is supported")
    if d == 4 and _chamber_kappa(kappa_hint) is not None:
        raise ValueError("d = 4 needs 2 kappa even: S^3 has no Weyl-chamber rule "
                         "for the walls of the weight")
    if order is not None and order < MIN_SPHERE_ORDER:
        raise ValueError(f"sphere order must be >= {MIN_SPHERE_ORDER}")


def surface_area(d: int) -> float:
    """omega_d = 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


@dataclass(frozen=True)
class SphereRule:
    d: int
    order: int
    nodes: np.ndarray  # (N, d), unit rows
    weights: np.ndarray  # (N,): sum w h^2 f integrates h^2 f dsigma
    kappa: Fraction | None  # whose h^2 walls the weights carry; None: surface measure

    def __len__(self) -> int:
        return len(self.weights)


def require_fit(rule: SphereRule, params: KappaParams) -> None:
    """ValueError unless rule is the rule for params' weight: on S^(d-1),
    and a chamber rule for params' kappa exactly when 2 kappa is not even,
    as build_sphere_rule(params.d, order, kappa_hint=params.kappa) builds
    it.  A chamber rule for another kappa puts the wrong walls in its
    weights, and a surface-measure rule has none."""
    if rule.d != params.d:
        raise ValueError("sphere rule dimension does not match params")
    wants = _chamber_kappa(params.kappa)
    if rule.kappa != wants:
        built = "a surface-measure rule" if rule.kappa is None else \
            f"a Weyl-chamber rule for kappa {rule.kappa}"
        raise ValueError(f"kappa {params.kappa} needs the sphere rule of "
                         f"kappa_hint={params.kappa}, not {built}")


# Each rule family below is (row length, form): form(rows, cols) gives the
# nodes and weights at positions cols of each row in rows, formed together
# from the rule's one-dimensional factors.  A row is the whole circle, a
# latitude, or one chamber image at one latitude.


def _node_count(d: int, order: int, chamber: bool) -> int:
    """Nodes of a rule, known before any Gauss rule is built: the d = 3
    chamber rule has order^2 in each of its six chambers."""
    if d == 2:
        return 2 * order
    return 6 * order**2 if chamber else 2 * order ** (d - 1)


def _circle_rule(order: int):
    n = 2 * order
    theta = 2 * math.pi * np.arange(n) / n
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    weights = np.full(n, 2 * math.pi / n)
    return n, lambda rows, cols: (nodes[cols], weights[cols])


def _sphere_product(d: int, order: int):
    """S^(d-1), d in {3, 4}, as latitude rows: each node u of the Gauss rule
    for (1 - u^2)^((d-3)/2) scales the plain S^(d-2) rule of the same order
    by sqrt(1 - u^2) and takes u as its last coordinate."""
    u, wu = gauss_jacobi(order, (d - 3) / 2, (d - 3) / 2)
    s = np.sqrt(1 - u**2)
    inner = _rule_rows(d - 1, order, None)[1]
    inner_nodes, inner_weights = inner(slice(None), slice(None))

    def form(rows, cols):
        nodes = np.empty((len(u[rows]), len(inner_weights[cols]), d))
        np.multiply(s[rows, None, None], inner_nodes[cols], out=nodes[..., :-1])
        nodes[..., -1] = u[rows, None]
        return nodes.reshape(-1, d), (wu[rows, None] * inner_weights[cols]).ravel()

    return len(inner_weights), form


def _divided_jacobi(order: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Jacobi rule for (1 - x^2)^a with its weights divided by
    (1 - x^2)^a: sum w f(x) integrates f = (1 - x^2)^a g, g smooth, with the
    error of the Jacobi rule on g.  OverflowError where the rule or the
    factor leaves the float range."""
    try:
        x, w = gauss_jacobi(order, a, a)
        with np.errstate(all="raise"):
            return x, w / ((1 - x) * (1 + x)) ** a
    except (OverflowError, FloatingPointError) as exc:
        raise OverflowError(f"the Gauss-Jacobi rule of order {order} for (1 - x^2)^{a}, "
                            f"or its weights divided by that factor, leave the float range") from exc


def _chamber_rows(d: int, order: int, kappa: float):
    """The Weyl-chamber rule for h^2 on S^(d-1), d in {2, 3}.

    d = 3: with e1 = (1, -1, 0)/sqrt 2, e2 = (1, 1, -2)/sqrt 6 and
    c = (1, 1, 1)/sqrt 3, x = sqrt(1 - u^2)(cos theta e1 + sin theta e2) + u c
    has dsigma = du dtheta, and the chamber x_1 >= x_2 >= x_3 is theta in
    [pi/6, pi/2], where x_1 - x_2 = sqrt 2 sqrt(1 - u^2) cos theta and
    x_2 - x_3 = sqrt 2 sqrt(1 - u^2) sin(theta - pi/6).  So h^2 is
    (1 - u^2)^(3 kappa) times a function of theta that vanishes like
    |.|^(2 kappa) at both walls: the u rule is Jacobi (3 kappa, 3 kappa), the
    s rule Jacobi (2 kappa, 2 kappa) with theta = pi/3 + pi s/6, both with
    divided weights, and the integrand left to them is smooth.  A row is
    one of six chamber images and one u node, its columns the s nodes: the
    first three images are the chamber under the cyclic coordinate
    permutations, which permute the basis vectors, so an image node is its
    chamber node permuted, bit for bit; the last three are their
    reflections -x, the other three chambers, each node the negation of its
    first-half node bit for bit.

    d = 2: phi = -pi/4 + pi s/2 on the same s rule, the chamber x_1 >= x_2,
    then its reflection -x, the other chamber: two rows."""
    s, ws = _divided_jacobi(order, 2 * kappa)
    if d == 2:
        phi = -math.pi / 4 + math.pi / 2 * s
        half = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        nodes, weights = np.stack([half, -half]), np.stack([ws * (math.pi / 2)] * 2)
        return order, lambda rows, cols: (nodes[rows, cols].reshape(-1, 2),
                                          weights[rows, cols].ravel())
    u, wu = _divided_jacobi(order, 3 * kappa)
    r, z = np.sqrt((1 - u) * (1 + u)), u / math.sqrt(3)
    theta, wt = math.pi / 3 + math.pi / 6 * s, ws * (math.pi / 6)
    cyclic = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    # planes[p, k] = cos theta_k e1 + sin theta_k e2, coordinates permuted by
    # p, and for p >= 3 negated with the u c term
    planes = (np.cos(theta)[None, :, None] * e1[cyclic][:, None]
              + np.sin(theta)[None, :, None] * e2[cyclic][:, None])
    planes, signs = np.concatenate([planes, -planes]), np.repeat([1.0, -1.0], 3)

    def form(rows, cols):
        image, k = np.divmod(np.arange(6 * order)[rows], order)
        nodes = r[k, None, None] * planes[image][:, cols] + (signs[image] * z[k])[:, None, None]
        return nodes.reshape(-1, 3), (wu[k, None] * wt[cols]).ravel()

    return order, form


def _rule_rows(d: int, order: int, kappa: Fraction | None):
    """The family of the rule whose weights carry kappa's h^2 (see
    _chamber_kappa): the chamber rule, or else the circle or product rule."""
    if kappa is not None:
        return _chamber_rows(d, order, float(kappa))
    return _circle_rule(order) if d == 2 else _sphere_product(d, order)


def _form_range(form, length: int, start: int, stop: int):
    """Nodes start..stop-1 of a family: the end of the first row, the whole
    rows after it, and the start of the last, each formed in one call."""
    r0, k0 = divmod(start, length)
    r1, k1 = divmod(stop, length)
    if r0 == r1:
        return form(slice(r0, r0 + 1), slice(k0, k1))
    pieces = []
    if k0:
        pieces.append(form(slice(r0, r0 + 1), slice(k0, None)))
        r0 += 1
    if r1 > r0:
        pieces.append(form(slice(r0, r1), slice(None)))
    if k1:
        pieces.append(form(slice(r1, r1 + 1), slice(k1)))
    return pieces[0] if len(pieces) == 1 else tuple(map(np.concatenate, zip(*pieces)))


def sphere_rule_blocks(d: int, order: int, kappa_hint, per_node: int,
                       slices=block_slices, *, hemisphere: bool = False):
    """The nodes and weights of build_sphere_rule(d, order, kappa_hint), as
    blocks over slices(node count, per_node) with the same bits.  A block is
    formed from the rule's one-dimensional factors when it is handed out,
    so only a block and the factors are ever held, and there is no node
    budget.  Every block has passed the unit-norm check when it is handed
    out, and the mass is checked after the last one, to 1e-10: the surface
    area of a surface-measure rule, and a_kappa sum w h^2 = 1 of a chamber
    rule, whose divided weights cannot give the surface area.  A consumer
    that walks the stream to its end has used only a rule that passed both,
    or gets SelfCheckError.

    Every rule here is antipodal by halves: its second count // 2 nodes are
    the first ones reflected, -x, with their weights up to rounding (the
    latitude rules are symmetric, the circle is cut into two halves a
    half-turn apart, and a chamber rule's second half is its first
    negated).  With hemisphere, the stream is the first half alone, and its
    mass check is of twice its mass."""
    require_sphere_rule(d, kappa_hint, order)
    kappa = _chamber_kappa(kappa_hint)
    length, form = _rule_rows(d, order, kappa)
    copies = 2 if hemisphere else 1
    blocks = slices(_node_count(d, order, kappa is not None) // copies, per_node)
    if kappa is None:
        return _checked_blocks(form, length, blocks, lambda nodes, weights: float(weights.sum()),
                               copies / surface_area(d), "sphere rule mass over the surface area")
    params = KappaParams(d, kappa)
    return _checked_blocks(form, length, blocks,
                           lambda nodes, weights: float(weights @ hweight(nodes, params) ** 2),
                           copies * params.a_kappa, "chamber rule h^2 mass a_kappa sum w h^2")


def _checked_blocks(form, length: int, slices, mass, scale: float, what: str):
    """The blocks of a family at slices, each checked for unit norms when it
    is handed out; after the last, scale times the sum of mass(nodes,
    weights) over the blocks must be within 1e-10 of 1."""
    total = 0.0
    for sl in slices:
        nodes, weights = _form_range(form, length, sl.start, sl.stop)
        # written so that a NaN node or weight fails: NaN compares false both ways
        norms = np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
        if not np.max(np.abs(norms - 1)) <= 1e-14:
            raise SelfCheckError("sphere rule nodes drifted off the unit sphere")
        total += mass(nodes, weights)
        yield nodes, weights
    if not abs(scale * total - 1) <= 1e-10:
        raise SelfCheckError(f"{what} is {scale * total!r}, not 1")


def build_sphere_rule(d: int, order: int, kappa_hint=None) -> SphereRule:
    """Quadrature for h^2-weighted integrals on S^(d-1), d in {2, 3, 4}:
    a_kappa sum w h^2 f integrates f against the normalized h^2 measure.
    The blocks of sphere_rule_blocks, as one rule of at most
    simplexquad.CHUNK_ELEMENTS nodes.  A larger rule is a ValueError before
    any node is formed.

    The family is picked once from kappa_hint.  Where 2 kappa is even (no
    hint, or an integer), h^2 is a polynomial and the rule is the surface
    measure: 2 order equal angles on the circle, or order Gauss latitudes
    each carrying the S^(d-2) rule.  Otherwise h^2 has |x_i - x_j|^(2 kappa)
    walls, and the rule is the Weyl-chamber rule of _chamber_rows (d = 2,
    3), whose Jacobi weights take the walls: a_kappa sum w h^2 - 1 is
    within 1.6e-15 from order 16 at kappa 1/3, 1/2, 5/4 and 5/3.  Its
    weights are the surface measure divided by the wall factors, so they
    only integrate integrands that carry h^2, and SphereRule.kappa records
    whose.  S^3 has no chamber rule, and a flat product rule integrates a
    walled weight only to about 1e-2 (the Gram residual of a d = 4 basis at
    kappa 1/2 or 1/3), so at d = 4 any kappa with 2 kappa not even is a
    ValueError."""
    require_sphere_rule(d, kappa_hint, order)
    kappa = _chamber_kappa(kappa_hint)
    count = _node_count(d, order, kappa is not None)
    if count > simplexquad.CHUNK_ELEMENTS:
        raise ValueError(f"a sphere rule of order {order} at d = {d} has {count} nodes, "
                         f"over the {simplexquad.CHUNK_ELEMENTS} a built rule may hold")
    # within the budget, chunk_slices makes the stream one block; unpacking
    # walks it to its end, past the mass check
    [(nodes, weights)] = sphere_rule_blocks(d, order, kappa_hint, 1, chunk_slices)
    return SphereRule(d=d, order=order, nodes=nodes, weights=weights, kappa=kappa)


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
    require_fit(sphere_rule, params)
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
    """x^alpha, shape (n_monomials, n_nodes), with no pow call.

    Each coordinate's powers are a running product along a node-contiguous
    row, x^j = x^(j-1) x.  From the cube on, the product is carried as an
    unevaluated sum hi + lo, each step's rounding error taken exactly by
    Dekker's product (Numer. Math. 18 (1971)), so every power is within one
    rounding of the exact one, as a libm pow is.  The factors are gathered
    and multiplied in coordinate order: a value carries at most one rounding
    per factor of exponent >= 2 and one per product of factors."""
    coords = np.ascontiguousarray(nodes.T)
    top = exps.max(initial=0)
    powers = np.empty((coords.shape[0], top + 1, coords.shape[1]))
    powers[:, 0] = 1.0
    if top >= 1:
        powers[:, 1] = coords
    if top >= 2:
        powers[:, 2] = coords * coords
    if top >= 3:
        xh, xl = _split(coords)
        hi, lo = powers[:, 2], _product_error(coords, powers[:, 2], xh, xl)
        for j in range(3, top + 1):
            p = hi * coords
            lo = lo * coords + _product_error(hi, p, xh, xl)
            hi = p + lo
            lo -= hi - p
            powers[:, j] = hi
    out = powers[0, exps[:, 0]]
    for k in range(1, exps.shape[1]):
        out *= powers[k, exps[:, k]]
    return out


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    big = a * 134217729.0  # 2^27 + 1
    hi = big - (big - a)
    return hi, a - hi


def _product_error(a, p, bh, bl):
    """a b - p exactly, for p = fl(a b) and b split as bh + bl."""
    ah, al = _split(a)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _projected_rows(n: int, params: KappaParams) -> np.ndarray:
    """Integer multiples of proj_n x^alpha, one row per alpha with
    alpha_d <= 1, over the columns compositions(d, n): an object array of
    Python ints.

    proj_n P = sum_{j <= n/2} ||x||^(2j) Delta_kappa^j P / (4^j j! (-lambda - n + 1)_j)
    (Dunkl and Xu, Orthogonal Polynomials of Several Variables, 2nd ed.,
    2014, ch. 7); its image of these monomials is a basis of the degree-n
    h-harmonics, since they span a complement of ||x||^2 P_(n-2).  With
    lambda = P/Q, kappa = p/q and J = n // 2, the projection times
    q^(2J) 4^J J! prod_{i<J} (Q(i - n + 1) - P) is sum_j w_j ||x||^(2j)
    (q^2 Delta_kappa)^j P with the integer weights
    w_j = Q^j 4^(J-j) (J!/j!) q^(2(J-j)) prod_{i=j}^{J-1} (Q(i - n + 1) - P),
    none of whose factors is 0 (i - n + 1 < 0 <= P).  The powers come from
    laplacian_sums with one group per monomial, and the sum runs by Horner's
    rule in ||x||^2, each factor d exponent shifts summed in dunkl_sums."""
    d, q = params.d, params.kappa.denominator
    P, Q = params.lambda_kappa.numerator, params.lambda_kappa.denominator
    monos = compositions(d, n)
    chosen = monos[monos[:, -1] <= 1]
    J = n // 2
    powers = [(np.arange(len(chosen)), chosen, np.ones(len(chosen), dtype=np.int64))]
    for _ in range(J):
        groups, exps, coefs = powers[-1]
        powers.append(laplacian_sums(exps, coefs, groups, params))
    weights = [Q**j * 4 ** (J - j) * (math.factorial(J) // math.factorial(j)) * q ** (2 * (J - j))
               * math.prod(Q * (i - n + 1) - P for i in range(j, J)) for j in range(J + 1)]
    groups, exps, coefs = powers[0][0][:0], chosen[:0], np.zeros(0, dtype=object)
    shifts = 2 * np.eye(d, dtype=np.int64)
    for (pg, pe, pc), w in zip(powers[::-1], weights[::-1]):
        plus = (np.concatenate([(exps[:, None] + shifts).reshape(-1, d), pe]),
                np.concatenate([np.repeat(coefs, d), pc.astype(object) * w]),
                np.concatenate([np.repeat(groups, d), pg]))
        # no operator rows: dunkl_sums only sums the plus rows per (group, monomial)
        groups, exps, coefs = dunkl_sums(pe[:0], pc[:0], pg[:0], pg[:0], 0, 0, plus=plus)
    key = (n + 1) ** np.arange(d - 1, -1, -1)
    rows = np.zeros((len(chosen), len(monos)), dtype=object)
    rows[groups, np.searchsorted(monos @ key, exps @ key)] = coefs.astype(object)
    return rows


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower triangular L with nonzero diagonal, by forward
    substitution; the result is exactly lower triangular."""
    inv = np.zeros_like(L)
    for i in range(len(L)):
        inv[i] = -(L[i, :i] @ inv[:i])
        inv[i, i] += 1.0
        inv[i] /= L[i, i]
    return inv


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of integer arrays (int64 or Python ints), exactly, as Python
    ints.  Each factor is split into signed limbs of w bits, w such that a
    limb product summed over the inner dimension stays below 2^63; every
    pair of limbs is one int64 matmul, shifted and summed as Python ints."""
    w = (62 - a.shape[1].bit_length()) // 2

    def limbs(x):
        x = x.astype(object)
        sign, mag = np.where(x < 0, -1, 1).astype(np.int64), np.abs(x)
        count = max(1, -(-int(mag.max(initial=0)).bit_length() // w))
        return [((mag >> (w * i)) & (2**w - 1)).astype(np.int64) * sign for i in range(count)]

    out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for i, ai in enumerate(limbs(a)):
        for j, bj in enumerate(limbs(b)):
            out += (ai @ bj).astype(object) << (w * (i + j))
    return out


def _exact_mix(mix: np.ndarray, rows: np.ndarray) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of mix @ rows in exact arithmetic, mix read as the dyadic
    rationals its floats are: each mix row is written as integers over one
    power of two, so the coefficients are one exact integer product
    (_exact_matmul) and one Fraction each."""
    ratios = [[float(v).as_integer_ratio() for v in mrow] for mrow in mix]
    scales = [math.lcm(*(q for _, q in row)) for row in ratios]
    ints = np.array([[a * (scale // q) for a, q in row] for row, scale in zip(ratios, scales)],
                    dtype=object)
    sums = _exact_matmul(ints, rows)
    return tuple(tuple(Fraction(v, scale) for v in row)
                 for row, scale in zip(sums.tolist(), scales))


def _gram_node_cost(width: int, exps: np.ndarray) -> int:
    """Elements of _gram's temporaries per node: the power table, the
    monomials and one gathered factor, the basis values and their weighted
    copy."""
    return exps.shape[1] * (exps.max(initial=0) + 1) + 2 * len(exps) + 2 * width


def _gram(coeffs: np.ndarray, exps: np.ndarray, params: KappaParams, blocks) -> np.ndarray:
    """a_kappa sum_nodes w h^2 v v^T for v the values of the polynomials
    coeffs @ x^exps, over an iterable of (nodes, weights) blocks: the
    stream of sphere_rule_blocks, or a built rule as one block.  Each block
    is summed in node blocks whose temporaries stay within
    simplexquad.BLOCK_ELEMENTS elements."""
    per_node = _gram_node_cost(len(coeffs), exps)
    a = params.a_kappa
    g = np.zeros((len(coeffs), len(coeffs)))
    for block_nodes, block_weights in blocks:
        for sl in block_slices(len(block_weights), per_node):
            nodes = block_nodes[sl]
            wh2 = block_weights[sl] * hweight(nodes, params) ** 2
            vals = coeffs @ _monomial_values(nodes, exps)
            g += a * (vals * wh2) @ vals.T
    return (g + g.T) / 2


def _h2_terms(params: KappaParams) -> tuple[np.ndarray, np.ndarray]:
    """h^2 = prod_{i<j} (x_i - x_j)^(2 kappa) at integer kappa as integer
    rows (exps, coefs): each factor's binomial terms times every term so far,
    summed per monomial in dunkl_sums."""
    d, k2 = params.d, 2 * int(params.kappa)
    t = np.arange(k2 + 1)
    binomial = np.array([(-1) ** j * math.comb(k2, j) for j in range(k2 + 1)], dtype=object)
    exps, coefs = np.zeros((1, d), dtype=np.int64), np.ones(1, dtype=np.int64)
    for i in range(d):
        for j in range(i + 1, d):
            factor = np.zeros((k2 + 1, d), dtype=np.int64)
            factor[:, i], factor[:, j] = k2 - t, t
            plus = ((exps[:, None] + factor).reshape(-1, d),
                    np.outer(coefs.astype(object), binomial).ravel(),
                    np.zeros(len(exps) * (k2 + 1), dtype=np.int64))
            # no operator rows: dunkl_sums only sums the plus rows per monomial
            _, exps, coefs = dunkl_sums(exps[:0], coefs[:0], t[:0], t[:0], 0, 0, plus=plus)
    return exps, coefs


def _sphere_moments(exps: np.ndarray, h2) -> tuple[np.ndarray, int]:
    """mean_{S^(d-1)} x^e h^2 for each row e of exps, all of one total
    degree, with h2 = (exps, coefs) of h^2, as integer numerators over one
    denominator: with |e + gamma| = 2K for every term h_gamma x^gamma,
    mean_S x^(e + gamma) = prod_i (e_i + gamma_i - 1)!! / prod_{k<K} (d + 2k)
    when e + gamma is even and 0 otherwise, so only the gamma of e's parity
    pattern add terms.  Exact: on int64 when sum |h_gamma| (2K - 1)!!, which
    bounds every product and partial sum, is below 2^63, and on Python ints
    otherwise."""
    hexps, hcoefs = h2
    d = exps.shape[1]
    K = (int(exps[0].sum()) + int(hexps[0].sum())) // 2
    odd = [1]  # odd[m] = (2m - 1)!!
    for m in range(1, K + 1):
        odd.append(odd[-1] * (2 * m - 1))
    bound = int(np.abs(hcoefs.astype(object)).sum()) * odd[K]
    dtype = np.int64 if bound < INT64_LIMIT else object
    table = np.zeros(2 * K + 1, dtype=dtype)  # (e - 1)!!, 0 at odd e
    table[::2] = odd
    bits = 2 ** np.arange(d)
    pattern, hpattern = (exps % 2) @ bits, (hexps % 2) @ bits
    out = np.zeros(len(exps), dtype=dtype)
    for p in np.flatnonzero(np.bincount(hpattern)):
        rows, terms = np.flatnonzero(pattern == p), np.flatnonzero(hpattern == p)
        products = table[exps[rows, None] + hexps[None, terms]].prod(axis=-1)
        out[rows] = products @ hcoefs[terms].astype(dtype)
    return out, math.prod(d + 2 * k for k in range(K))


def _moment_matrix(n: int, params: KappaParams) -> tuple[np.ndarray, int]:
    """The h^2 sphere moments of the degree-n monomials at integer kappa, as
    (Q, scale): a_kappa int_S x^(alpha + beta) h^2 = mean_S(x^(alpha + beta)
    h^2) / mean_S(h^2) = Q[alpha, beta] / scale exactly, Q an integer matrix
    over compositions(d, n).  An entry depends on alpha + beta alone, so only
    the moments over compositions(d, 2n) are formed, then gathered."""
    d, h2 = params.d, _h2_terms(params)
    sums = compositions(d, 2 * n)
    numerators, denominator = _sphere_moments(sums, h2)
    mass, mass_denominator = _sphere_moments(sums[:1] * 0, h2)
    key = (2 * n + 1) ** np.arange(d - 1, -1, -1)
    index = compositions(d, n) @ key
    gather = np.searchsorted(sums @ key, index[:, None] + index[None, :])
    # mass_denominator divides denominator: its product runs over fewer k
    return numerators[gather], int(mass[0]) * (denominator // mass_denominator)


def _moment_gram(rows: np.ndarray, moments: np.ndarray, scale: int) -> np.ndarray:
    """a_kappa int_S h^2 v v^T for v the polynomials rows @ x^alpha, rows
    integer, from their moments (Q, scale) of _moment_matrix: R Q R^T /
    scale, exact, each entry rounded to float once."""
    return (_exact_matmul(_exact_matmul(rows, moments), rows.T) / scale).astype(float)


@dataclass(frozen=True)
class HarmonicBasis:
    """An orthonormal basis of the degree-n h-harmonics.

    coefficients holds the float expansion over `exponents`;
    exact_coefficients holds the same rows as exact rationals (dyadic
    snapshots of the orthonormalizing mix applied to the integer rows of
    the projected monomials), so every element of basis() is annihilated by
    the Dunkl Laplacian as a polynomial identity, while orthonormality
    holds to gram_residual."""

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
        return self.coefficients @ _monomial_values(pts, np.asarray(self.exponents))

    def basis(self) -> list[Polynomial]:
        return [Polynomial(self.d, dict(zip(self.exponents, row)))
                for row in self.exact_coefficients]


def hharmonic_basis(n: int, params: KappaParams, sphere_rule: SphereRule) -> HarmonicBasis:
    """Construct an orthonormal basis of the degree-n h-harmonics.

    Steps: integer multiples of the projections proj_n x^alpha, alpha_d <= 1
    (_projected_rows), checked exactly: q^2 Delta_kappa of every row is the
    zero polynomial and there are harmonic_dim(n, d) nonzero rows, or
    SelfCheckError; their Gram matrix under the a_kappa-normalized h^2
    sphere inner product; Cholesky orthonormalization, whose float mix is
    applied to the integer rows exactly.

    At integer kappa the Gram matrix is R Q R^T for the integer rows R and
    the exact h^2 sphere moments Q of the monomials (_moment_matrix),
    rounded to float once, and gram_residual is max |C Q^ C^T - I| for the
    float coefficients C and Q rounded once: neither reads sphere_rule,
    which only has to fit params.  At fractional kappa (d = 2, 3)
    sphere_rule is a Weyl-chamber rule, whose Jacobi weights take the
    |.|^(2 kappa) walls of h^2: the Gram matrix is a quadrature on it, and
    the Gram residual is re-measured on the stream of the chamber rule of
    twice its order, so a too-coarse order is visible in the output.  Both
    sums run over the first half of their rules, doubled: the integrand
    a_kappa w h^2 v v^T is even, since h^2 is even and every v is
    homogeneous of degree n, so v(-x) v(-x)^T = v(x) v(x)^T, and the second
    half of a chamber rule is the first reflected."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    require_fit(sphere_rule, params)
    d = params.d
    exps = compositions(d, n)
    rows = _projected_rows(n, params)
    r, c = np.nonzero(rows)
    expected = harmonic_dim(n, d)
    if len(set(r.tolist())) != expected or len(laplacian_sums(exps[c], rows[r, c], r, params)[0]):
        raise SelfCheckError(
            f"the projected rows are not {expected} nonzero h-harmonics for n={n}, d={d}, "
            f"kappa={params.kappa}; the projection is wrong")

    if params.kappa.denominator == 1:
        moments, scale = _moment_matrix(n, params)
        G = _moment_gram(rows, moments, scale)
    else:
        half = len(sphere_rule) // 2
        G = 2 * _gram(rows.astype(float), exps, params,
                      [(sphere_rule.nodes[:half], sphere_rule.weights[:half])])
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SelfCheckError(
            "Gram matrix is not positive definite; raise the sphere order") from exc
    # exact dyadic mix applied to the integer rows: stays h-harmonic
    exact = _exact_mix(_inverse_lower(L), rows)
    coeffs = np.array([[float(c) for c in row] for row in exact])

    if params.kappa.denominator == 1:
        # each moment an int / int division, rounded once
        G2 = coeffs @ (moments.astype(object) / scale).astype(float) @ coeffs.T
    else:
        # blocks of d + 1 elements per node (coordinates and weight): from
        # --quad-order 74 at d = 3 on, the check rule (3 (2 order)^2 nodes a
        # half) is never held whole, and blocks no smaller than _gram's own
        # do not fault its temporaries in again per stream block
        check = sphere_rule_blocks(d, 2 * sphere_rule.order, params.kappa, d + 1, hemisphere=True)
        G2 = 2 * _gram(coeffs, exps, params, check)
    residual = float(np.max(np.abs(G2 - np.eye(len(rows)))))
    return HarmonicBasis(
        n=n, d=d, kappa=params.kappa, exponents=tuple(map(tuple, exps.tolist())),
        coefficients=coeffs, exact_coefficients=exact, gram_residual=residual,
        gram_cond=float(np.linalg.cond(G)),
    )


# ---------------------------------------------------------------------------
# reproducing kernels at coordinate vectors
# ---------------------------------------------------------------------------


def _check_on_sphere(x: np.ndarray) -> None:
    # written so that a NaN row fails: NaN compares false both ways
    if not np.max(np.abs(np.sum(x * x, axis=-1) - 1.0), initial=0.0) <= 1e-10:
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
    value = vk_axis(lambda s: zn_eval(n, lam, s), ell, x, params, polynomial_rule(params, n))
    return value if x.ndim == 2 else float(value)


def repro_kernel_basis(n: int, x, y, basis: HarmonicBasis) -> float:
    """sum_m Y_m(x) Y_m(y) over an orthonormal degree-n basis."""
    if basis.n != n:
        raise ValueError(f"basis has degree {basis.n}, requested {n}")
    pts = np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    vals = basis.evaluate(pts)
    return float(np.dot(vals[:, 0], vals[:, 1]))
