"""Sphere quadrature for the reflection-invariant weight, h-harmonic bases
as exact projections of monomials, and the reproducing kernels at
coordinate vectors."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsym import harmonics
from dunklsym.harmonics import (
    MIN_SPHERE_ORDER,
    HarmonicBasis,
    _exact_matmul,
    _exact_mix,
    _gram,
    _h2_terms,
    _moment_gram,
    _moment_matrix,
    _inverse_lower,
    _monomial_values,
    _projected_rows,
    _gram_node_cost,
    _node_count,
    _sphere_moments,
    build_sphere_rule,
    harmonic_dim,
    hharmonic_basis,
    hweight,
    norm_const_a,
    repro_kernel_axis,
    repro_kernel_basis,
    sphere_rule_blocks,
    surface_area,
)
from dunklsym.orthopoly import zn_eval
from dunklsym.polycore import KappaParams, Polynomial, compositions, dunkl_laplacian
from dunklsym import simplexquad
from dunklsym.simplexquad import (BLOCK_ELEMENTS, SelfCheckError, block_slices,
                                  gauss_jacobi)


def test_surface_area_values():
    assert abs(surface_area(2) - 2 * math.pi) < 1e-14
    assert abs(surface_area(3) - 4 * math.pi) < 1e-13
    assert abs(surface_area(4) - 2 * math.pi ** 2) < 1e-13


def test_sphere_rule_plain_moments():
    for d in (2, 3, 4):
        rule = build_sphere_rule(d, 16)
        w, X = rule.weights, rule.nodes
        assert abs(w.sum() - surface_area(d)) < 1e-12 * surface_area(d)
        # int x_1^2 dsigma = omega_d / d by symmetry
        assert abs(w @ X[:, 0] ** 2 - surface_area(d) / d) < 1e-12
        assert abs(w @ (X[:, 0] * X[:, 1])) < 1e-12
        assert abs(w @ X[:, 0]) < 1e-12
    with pytest.raises(ValueError):
        build_sphere_rule(3, 3)
    with pytest.raises(ValueError):
        build_sphere_rule(5, 16)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kappa", [None, 1, Fraction(1, 100), Fraction(1, 3), Fraction(1, 2),
                                   Fraction(3, 2), Fraction(5, 3)])
def test_min_sphere_order_is_the_floor_of_every_rule(d, kappa):
    # one floor for every family, below which both refuse before any node
    with pytest.raises(ValueError, match=f"sphere order must be >= {MIN_SPHERE_ORDER}"):
        build_sphere_rule(d, MIN_SPHERE_ORDER - 1, kappa_hint=kappa)
    if kappa is None or kappa == 1:
        # the surface-measure rules pass their own checks from the floor on
        for order in range(MIN_SPHERE_ORDER, 13):
            build_sphere_rule(d, order, kappa_hint=kappa)
        return
    # the chamber rule does not: at the floor it misses its h^2 mass by more
    # than 1e-10 (3.0e-10 at kappa 1/2), a failed self-check, not a refusal
    with pytest.raises(SelfCheckError, match="h\\^2 mass"):
        build_sphere_rule(d, MIN_SPHERE_ORDER, kappa_hint=kappa)
    for order in range(8, 13):
        build_sphere_rule(d, order, kappa_hint=kappa)


def sphere4_per_latitude(order):
    """The d = 4 rule built one latitude at a time, by concatenation."""
    u, wu = gauss_jacobi(order, 0.5, 0.5)
    inner_nodes, inner_weights = sphere3_per_latitude(order)
    s = np.sqrt(1 - u**2)
    nodes = np.concatenate(
        [np.concatenate([si * inner_nodes, np.full((len(inner_weights), 1), ui)], axis=1)
         for ui, si in zip(u, s)])
    weights = np.concatenate([wi * inner_weights for wi in wu])
    return nodes, weights


def sphere3_per_latitude(order):
    """The plain d = 3 rule built one latitude circle at a time."""
    u, wu = gauss_jacobi(order, 0, 0)
    nphi = 2 * order
    phi = 2 * math.pi * np.arange(nphi) / nphi
    nodes, weights = [], []
    for ui, wi in zip(u, wu):
        si = np.sqrt(1 - ui**2)
        nodes.append(np.stack([si * np.cos(phi), si * np.sin(phi), np.full(nphi, ui)], axis=-1))
        weights.append(np.full(nphi, wi * (2 * math.pi / nphi)))
    return np.concatenate(nodes), np.concatenate(weights)


def circle_reference(order):
    """The plain d = 2 rule: 2 order equal angles."""
    n = 2 * order
    theta = 2 * math.pi * np.arange(n) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1), np.full(n, 2 * math.pi / n)


def chamber_per_image(d, order, kappa):
    """The Weyl-chamber rule built one chamber image and one latitude at a
    time, by concatenation: the chamber x_1 >= ... >= x_d under the cyclic
    coordinate permutations (d = 3), then their reflections -x."""
    s, ws = gauss_jacobi(order, 2 * kappa, 2 * kappa)
    ws = ws / ((1 - s) * (1 + s)) ** (2 * kappa)
    if d == 2:
        phi = -math.pi / 4 + math.pi / 2 * s
        half = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return np.concatenate([half, -half]), np.tile(ws * (math.pi / 2), 2)
    u, wu = gauss_jacobi(order, 3 * kappa, 3 * kappa)
    wu = wu / ((1 - u) * (1 + u)) ** (3 * kappa)
    theta, wt = math.pi / 3 + math.pi / 6 * s, ws * (math.pi / 6)
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    nodes, weights = [], []
    for sign in (1.0, -1.0):
        for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
            plane = np.cos(theta)[:, None] * e1[perm] + np.sin(theta)[:, None] * e2[perm]
            for uk, wk in zip(u, wu):
                r, z = math.sqrt((1 - uk) * (1 + uk)), uk / math.sqrt(3)
                nodes.append(r * (sign * plane) + sign * z)
                weights.append(wk * wt)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("order", [4, 24, 48])
def test_d4_rule_is_the_per_latitude_concatenation(order):
    if order < MIN_SPHERE_ORDER:
        with pytest.raises(ValueError, match="sphere order must be"):
            build_sphere_rule(4, order)
        return
    rule = build_sphere_rule(4, order)
    nodes, weights = sphere4_per_latitude(order)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)


@pytest.mark.parametrize("order", [8, 24, 48])
@pytest.mark.parametrize("d, hint", [(2, None), (2, Fraction(1, 2)), (3, None),
                                     (3, Fraction(1, 2)), (3, Fraction(1, 3))])
def test_d2_d3_rules_are_the_reference_rules(d, hint, order):
    rule = build_sphere_rule(d, order, kappa_hint=hint)
    assert rule.kappa == hint
    if hint is not None:
        nodes, weights = chamber_per_image(d, order, float(hint))
    elif d == 2:
        nodes, weights = circle_reference(order)
    else:
        nodes, weights = sphere3_per_latitude(order)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)


def corrupted(nodes, weights, kind):
    nodes, weights = nodes.copy(), weights.copy()
    if kind == "nan node":
        nodes[3, 1] = np.nan
    elif kind == "nan weight":
        weights[3] = np.nan
    elif kind == "node off the sphere":
        nodes[3] *= 1 + 1e-12
    else:
        weights *= 1 + 1e-9
    return nodes, weights


@pytest.mark.parametrize("kind", ["nan node", "nan weight", "node off the sphere",
                                  "mass off"])
@pytest.mark.parametrize("hint", [None, Fraction(1, 3)])
def test_sphere_rule_self_checks_refuse_a_bad_rule(monkeypatch, kind, hint):
    # the fault goes into every stretch of rows the generator forms, so
    # that it reaches both the whole rule and every block of a streamed walk;
    # a fractional-kappa basis on a rule built before the fault streams its
    # check rule, which must refuse it too
    params = KappaParams(3, Fraction(1, 3))
    built = build_sphere_rule(3, 8, kappa_hint=params.kappa)
    good = harmonics._rule_rows

    def rows(d, order, kappa):
        length, form = good(d, order, kappa)
        return length, lambda r, c: corrupted(*form(r, c), kind)

    monkeypatch.setattr(harmonics, "_rule_rows", rows)
    with pytest.raises(SelfCheckError):
        build_sphere_rule(3, 8, kappa_hint=hint)
    for hemisphere in (False, True):
        for per_node in (1, BLOCK_ELEMENTS // 40):
            blocks = sphere_rule_blocks(3, 8, hint, per_node, hemisphere=hemisphere)
            with pytest.raises(SelfCheckError):
                for _ in blocks:
                    pass
    if hint is not None:
        with pytest.raises(SelfCheckError):
            hharmonic_basis(2, params, built)


@pytest.mark.parametrize("order", [4, 5, 7, 16, 33, 64])
@pytest.mark.parametrize("d, hint", [(2, None), (2, Fraction(1, 2)), (3, None),
                                     (3, Fraction(1, 2)), (4, None)])
def test_streamed_rule_is_the_built_rule(d, hint, order):
    # blocks of 2, 3, 40 and 5 000 nodes, and the whole rule, which split
    # rows and chamber images anywhere, each size while it makes at most 2 000
    # blocks; the count is known before any node exists; below the floor both
    # refuse, and at it the chamber rule fails its h^2 mass after the last block
    if order < MIN_SPHERE_ORDER:
        for make in (build_sphere_rule, lambda *a: next(sphere_rule_blocks(*a, 1))):
            with pytest.raises(ValueError, match="sphere order must be"):
                make(d, order, hint)
        return
    if order == MIN_SPHERE_ORDER and hint is not None:
        for make in (build_sphere_rule, lambda *a: list(sphere_rule_blocks(*a, 1))):
            with pytest.raises(SelfCheckError, match="h\\^2 mass"):
                make(d, order, hint)
        return
    rule = build_sphere_rule(d, order, kappa_hint=hint)
    assert len(rule) == _node_count(d, order, hint is not None)
    for size in (2, 3, 40, 5000, len(rule)):
        if len(rule) > 2000 * size:
            continue
        per_node = max(1, BLOCK_ELEMENTS // size)
        blocks = list(sphere_rule_blocks(d, order, hint, per_node))
        assert [len(w) for _, w in blocks] == \
            [sl.stop - sl.start for sl in block_slices(len(rule), per_node)]
        assert np.array_equal(np.concatenate([n for n, _ in blocks]), rule.nodes)
        assert np.array_equal(np.concatenate([w for _, w in blocks]), rule.weights)


@pytest.mark.parametrize("order", [12, 13])
@pytest.mark.parametrize("d, hint", [(2, None), (2, Fraction(1, 2)), (3, None),
                                     (3, Fraction(1, 3)), (4, None)])
def test_rule_is_antipodal_by_halves(d, hint, order):
    # the second half of every rule is the first reflected, each node -x
    # with the weight of x, in another order; at an odd order the middle
    # row of a product rule (the circle, the equator) is cut between the
    # halves.
    # The hemisphere stream is the first half, in blocks with the same bits,
    # and passes its mass check.
    rule = build_sphere_rule(d, order, kappa_hint=hint)
    half = len(rule) // 2
    first, second = rule.nodes[:half], rule.nodes[half:]
    match = np.argmin(first @ second.T, axis=1)  # nearest to -x on the unit sphere
    assert np.array_equal(np.sort(match), np.arange(half))
    assert np.max(np.abs(second[match] + first)) <= 1e-14
    weights = rule.weights[half:][match]
    assert np.max(np.abs(weights / rule.weights[:half] - 1)) <= 1e-12
    blocks = list(sphere_rule_blocks(d, order, hint, BLOCK_ELEMENTS // 5, hemisphere=True))
    assert len(blocks) > 1
    assert np.array_equal(np.concatenate([n for n, _ in blocks]), first)
    assert np.array_equal(np.concatenate([w for _, w in blocks]), rule.weights[:half])


@pytest.mark.parametrize("d, order, hint", [(2, 2_000_001, None), (3, 1415, None),
                                            (3, 817, Fraction(1, 2)), (4, 400, 1)])
def test_oversized_rule_is_refused_before_any_node(monkeypatch, d, order, hint):
    # a rule over CHUNK_ELEMENTS nodes is refused before any Gauss rule, the
    # first factor of every rule but the plain circle, is built
    def no_gauss_rule(*args):
        raise AssertionError("a Gauss rule was built for a refused sphere rule")

    monkeypatch.setattr(harmonics, "gauss_jacobi", no_gauss_rule)
    chamber = harmonics._chamber_kappa(hint) is not None
    assert _node_count(d, order, chamber) > simplexquad.CHUNK_ELEMENTS
    with pytest.raises(ValueError, match="nodes, over"):
        build_sphere_rule(d, order, kappa_hint=hint)


def test_sphere_rule_refuses_half_integer_kappa_at_d4():
    # S^3 has no chamber rule, and the flat one misses a walled weight by
    # about 1e-2 (a Gram residual: 1e-2 at kappa 1/2, 2.2e-2 at 1/3), so
    # every kappa with 2 kappa not even is refused there
    for kappa in (Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(5, 3),
                  Fraction(5, 4), 0.3):
        with pytest.raises(ValueError, match="d = 4"):
            build_sphere_rule(4, 8, kappa_hint=kappa)
    for kappa in (None, 0, 1, 2):
        assert len(build_sphere_rule(4, 8, kappa_hint=kappa)) > 0


def test_hweight_examples():
    kp = KappaParams(2, 1)
    assert hweight(np.array([1.0, 0.0]), kp) == 1.0
    assert hweight(np.array([0.5, 0.5]), kp) == 0.0
    kp3 = KappaParams(3, Fraction(1, 2))
    pts = np.array([[0.1, -0.4, 0.8], [0.8, 0.1, -0.4]])
    vals = hweight(pts, kp3)
    assert abs(vals[0] - vals[1]) < 1e-15  # permutation invariant
    with pytest.raises(ValueError):
        hweight(np.zeros((2, 4)), kp3)


def test_norm_const_closed_vs_quadrature():
    for d, kappa, order, tol in (
        (2, 1, 48, 1e-10),
        (2, 2, 48, 1e-10),
        (3, 1, 32, 1e-10),
        (3, 2, 32, 1e-10),
        (3, Fraction(1, 2), 24, 1e-13),
        (2, Fraction(1, 3), 24, 1e-13),
    ):
        kp = KappaParams(d, kappa)
        rule = build_sphere_rule(d, order, kappa_hint=kp.kappa)
        closed, quad = norm_const_a(kp, rule)
        assert abs(closed - quad) <= tol * closed
    # kappa = 0: the weight is 1 and a_kappa is 1/omega_d
    kp0 = KappaParams(3, 0)
    assert abs(kp0.a_kappa - 1 / surface_area(3)) < 1e-15
    with pytest.raises(ValueError):
        norm_const_a(KappaParams(2, 1), build_sphere_rule(3, 16))


def test_harmonic_dim_formula():
    assert [harmonic_dim(n, 2) for n in range(5)] == [1, 2, 2, 2, 2]
    assert [harmonic_dim(n, 3) for n in range(5)] == [1, 3, 5, 7, 9]
    assert [harmonic_dim(n, 4) for n in range(4)] == [1, 4, 9, 16]
    assert harmonic_dim(-1, 3) == 0


def test_basis_dimensions_and_annihilation():
    # one degree >= 6 per d, where a basis is worst conditioned
    for d, kappa, degrees in ((2, 1, (0, 1, 2, 3, 4, 8)), (3, 1, (0, 1, 2, 3)), (3, 2, (8,)),
                              (3, Fraction(1, 2), (0, 1, 2, 6)), (4, 1, (6,))):
        kp = KappaParams(d, kappa)
        rule = build_sphere_rule(d, 24, kappa_hint=kp.kappa)
        for n in degrees:
            basis = hharmonic_basis(n, kp, rule)
            assert len(basis) == harmonic_dim(n, d)
            for p in basis.basis():
                assert dunkl_laplacian(p, kp).is_zero()


@pytest.mark.parametrize("fault", ["not h-harmonic", "zero row"])
def test_projected_rows_that_are_not_h_harmonic_are_refused(monkeypatch, fault):
    good = harmonics._projected_rows

    def corrupted(n, params):
        rows = good(n, params)
        if fault == "zero row":
            rows[2] = [0] * len(rows[2])
        else:
            rows[2][0] += 1
        return rows

    monkeypatch.setattr(harmonics, "_projected_rows", corrupted)
    with pytest.raises(SelfCheckError, match="projected rows"):
        hharmonic_basis(4, KappaParams(3, 1), build_sphere_rule(3, 24))


def projection_reference(alpha, params):
    """proj_n x^alpha = sum_j ||x||^(2j) Delta^j x^alpha / (4^j j! (-lambda - n + 1)_j)
    in Fractions, through Polynomial and dunkl_laplacian."""
    d, n = params.d, sum(alpha)
    r2 = Polynomial(d, {tuple(2 * (k == i) for k in range(d)): 1 for i in range(d)})
    power, lap, coef = Polynomial.constant(d, 1), Polynomial.monomial(alpha), Fraction(1)
    out = lap
    for j in range(1, n // 2 + 1):
        power, lap = power * r2, dunkl_laplacian(lap, params)
        coef /= 4 * j * (-params.lambda_kappa - n + j)
        out = out + power * lap * coef
    return out


@pytest.mark.parametrize("d, n, kappa", [(2, 7, Fraction(1, 3)), (3, 6, Fraction(5, 3)),
                                         (3, 5, 0), (4, 4, 2), (4, 1, 1), (2, 0, 1)])
def test_projected_rows_are_multiples_of_the_projection_formula(d, n, kappa):
    params = KappaParams(d, kappa)
    exps = [tuple(e) for e in compositions(d, n).tolist()]
    chosen = [e for e in exps if e[-1] <= 1]
    rows = _projected_rows(n, params)
    assert len(rows) == len(chosen) == harmonic_dim(n, d)
    assert all(type(v) is int for row in rows for v in row)
    for row, alpha in zip(rows, chosen):
        want = projection_reference(alpha, params)
        mono, c = next(want.sorted_terms())
        scale = Fraction(row[exps.index(mono)]) / c
        assert scale != 0
        assert Polynomial(d, dict(zip(exps, row))) == want * scale


def test_gram_residuals():
    rule = build_sphere_rule(3, 24)
    basis = hharmonic_basis(3, KappaParams(3, 1), rule)
    assert basis.gram_residual <= 1e-8
    basis2 = hharmonic_basis(3, KappaParams(3, 2), rule)
    assert basis2.gram_residual <= 1e-8
    # half-integer kappa: the Gram sums run on Weyl-chamber rules, whose
    # Jacobi weights take the |x_i - x_j| walls of the weight
    ruleh = build_sphere_rule(3, 24, kappa_hint=Fraction(1, 2))
    basish = hharmonic_basis(3, KappaParams(3, Fraction(1, 2)), ruleh)
    assert basish.gram_residual <= 1e-13


def one_pass_gram(coeffs, exps, params, nodes, weights):
    """The Gram matrix as one product over the whole rule."""
    wh2 = weights * hweight(nodes, params) ** 2
    vals = coeffs @ _monomial_values(nodes, exps)
    g = params.a_kappa * (vals * wh2) @ vals.T
    return (g + g.T) / 2


@pytest.mark.parametrize("d, n, kappa, order", [(4, 2, 1, 48), (3, 6, Fraction(1, 2), 96)])
def test_blocked_gram_is_the_one_pass_sum(d, n, kappa, order):
    params = KappaParams(d, kappa)
    basis = hharmonic_basis(n, params, build_sphere_rule(d, 24, kappa_hint=kappa))
    if kappa == 1:
        check = build_sphere_rule(d, order, kappa_hint=kappa)
        nodes, weights = check.nodes, check.weights
        stream = lambda per_node: sphere_rule_blocks(d, order, kappa, per_node)
    else:
        nodes, weights = whole_block(params, order)
        stream = lambda per_node: sphere_rule_blocks(d, order, kappa, per_node, hemisphere=True)
    exps = np.asarray(basis.exponents)
    raw = np.array(_projected_rows(n, params), dtype=float)
    assert len(block_slices(len(weights), _gram_node_cost(len(raw), exps))) >= 10
    for coeffs in (raw, basis.coefficients):
        ref = one_pass_gram(coeffs, exps, params, nodes, weights)
        # the rule as one block, and the stream in blocks of the check in
        # hharmonic_basis and in _gram's own blocks
        streams = [stream(per_node) for per_node in (d + 1, _gram_node_cost(len(coeffs), exps))]
        for blocks in [[(nodes, weights)]] + streams:
            got = _gram(coeffs, exps, params, blocks)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert basis.gram_residual <= (1e-14 if d == 4 else 5e-14)


@pytest.mark.parametrize("d, order, kappa, n", [
    (2, 24, Fraction(1, 2), 5), (3, 13, Fraction(1, 3), 4), (3, 13, Fraction(1, 2), 5),
    (3, 24, Fraction(5, 3), 6), (3, 24, Fraction(1, 2), 3)])
def test_half_rule_gram_doubles_to_the_whole_rule_gram(d, order, kappa, n):
    # the integrand a_kappa w h^2 v v^T is even (h^2 is even, and v(-x) =
    # (-1)^n v(x) for homogeneous v of degree n), and the rule is antipodal
    # by halves: twice the first half's sum is the whole rule's
    params = KappaParams(d, kappa)
    rule = build_sphere_rule(d, order, kappa_hint=kappa)
    assert rule.kappa == kappa
    half = len(rule) // 2
    coeffs, exps = _projected_rows(n, params).astype(float), compositions(d, n)
    whole = _gram(coeffs, exps, params, [(rule.nodes, rule.weights)])
    halved = 2 * _gram(coeffs, exps, params, [(rule.nodes[:half], rule.weights[:half])])
    assert np.max(np.abs(halved - whole)) <= 1e-14 * np.max(np.abs(whole))


def whole_rule_basis(n, params, order):
    """The coefficients and Gram residual of hharmonic_basis at fractional
    kappa, with both Gram matrices summed over their whole chamber rules,
    all d! images of the chamber, at order and twice the order."""
    rows, exps = _projected_rows(n, params), compositions(params.d, n)
    G = _gram(rows.astype(float), exps, params, [image_rule(params, order)])
    exact = _exact_mix(_inverse_lower(np.linalg.cholesky(G)), rows)
    coeffs = np.array([[float(c) for c in row] for row in exact])
    G2 = _gram(coeffs, exps, params, [image_rule(params, 2 * order)])
    return coeffs, float(np.max(np.abs(G2 - np.eye(len(coeffs)))))


@pytest.mark.parametrize("d, n, kappa", [(3, 6, Fraction(1, 2)), (3, 8, Fraction(5, 3)),
                                         (2, 5, Fraction(1, 2)), (3, 6, Fraction(1, 3))])
def test_fractional_basis_is_the_whole_rule_basis(d, n, kappa):
    params = KappaParams(d, kappa)
    rule = build_sphere_rule(d, 24, kappa_hint=kappa)
    basis = hharmonic_basis(n, params, rule)
    coeffs, residual = whole_rule_basis(n, params, 24)
    assert np.max(np.abs(basis.coefficients - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
    assert residual <= 5e-14 and basis.gram_residual <= 5e-14


@pytest.mark.parametrize("d, kappa, n", [(3, 1, 4), (3, 2, 8), (4, 1, 8)])
def test_moment_gram_is_the_quadrature_gram(d, kappa, n):
    params = KappaParams(d, kappa)
    rule = build_sphere_rule(d, max(24, 2 * n + 12), kappa_hint=kappa)
    rows = _projected_rows(n, params)
    got = _moment_gram(rows, *_moment_matrix(n, params))
    ref = _gram(rows.astype(float), compositions(d, n), params, [(rule.nodes, rule.weights)])
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("d, kappa, n", [(3, 2, 8), (4, 1, 8)])
def test_int64_moments_are_the_python_int_moments(monkeypatch, d, kappa, n):
    params = KappaParams(d, kappa)
    fast = _moment_matrix(n, params)
    assert fast[0].dtype == np.int64
    monkeypatch.setattr(harmonics, "INT64_LIMIT", 0)
    slow = _moment_matrix(n, params)
    assert slow[0].dtype == object
    assert fast[0].tolist() == slow[0].tolist() and fast[1] == slow[1]


def h2_mean(params):
    """mean_S h^2 at integer kappa, exactly."""
    numerators, denominator = _sphere_moments(np.zeros((1, params.d), dtype=np.int64),
                                              _h2_terms(params))
    return Fraction(int(numerators[0]), denominator)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kappa", [1, 2])
def test_exact_h2_mean_is_the_normalization_and_the_rule_mass(d, kappa):
    params = KappaParams(d, kappa)
    mass = surface_area(d) * float(h2_mean(params))
    assert abs(params.a_kappa * mass - 1) <= 1e-14
    rule = build_sphere_rule(d, 24, kappa_hint=kappa)
    assert abs(float(rule.weights @ hweight(rule.nodes, params) ** 2) / mass - 1) <= 1e-14


def test_exact_h2_mean_values():
    # mean over the circle of (x_1 - x_2)^2 = 1 - 2 x_1 x_2, and of 1
    assert h2_mean(KappaParams(2, 1)) == 1
    assert h2_mean(KappaParams(4, 0)) == 1
    # mean over S^2 of x_1^4 is 3 / (3 * 5): the diagonal moment at kappa 0
    moments, scale = _moment_matrix(2, KappaParams(3, 0))
    assert Fraction(int(moments[0, 0]), scale) == Fraction(1, 5)


def test_integer_kappa_basis_does_not_read_the_rule(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("the check rule was streamed")

    rules = [build_sphere_rule(3, order, kappa_hint=2) for order in (24, 30)]
    monkeypatch.setattr(harmonics, "sphere_rule_blocks", no_stream)
    params = KappaParams(3, 2)
    a, b = (hharmonic_basis(8, params, rule) for rule in rules)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.exact_coefficients == b.exact_coefficients
    assert (a.gram_residual, a.gram_cond) == (b.gram_residual, b.gram_cond)
    assert a.gram_residual <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_matmul_is_the_integer_product(data):
    m, k, n = (data.draw(st.integers(1, 5)) for _ in range(3))
    bits = data.draw(st.sampled_from([3, 40, 63, 200]))
    ints = st.integers(-2**bits, 2**bits)
    a, b = (np.array(data.draw(st.lists(ints, min_size=r * c, max_size=r * c)),
                     dtype=object).reshape(r, c) for r, c in ((m, k), (k, n)))
    got = _exact_matmul(a, b)
    assert got.shape == (m, n)
    assert all(type(v) is int for v in got.ravel())
    assert got.tolist() == (a @ b).tolist()


def test_known_harmonic_in_d2_nullspace():
    # x_1^2 - x_2^2 is h-harmonic for every kappa; the degree-2 basis in d=2
    # must reproduce it up to the quadratic form in x_1 x_2
    p = Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
    for kappa in (Fraction(1, 2), Fraction(1), Fraction(2)):
        kp = KappaParams(2, kappa)
        assert dunkl_laplacian(p, kp).is_zero()
        rule = build_sphere_rule(2, 32, kappa_hint=kp.kappa)
        basis = hharmonic_basis(2, kp, rule)
        # p must lie in the span: project and compare on sample points
        pts = np.array([[math.cos(t), math.sin(t)] for t in np.linspace(0, 2, 7)])
        vals = basis.evaluate(pts)
        target = np.array([float(p(x)) for x in pts])
        coef, res, *_ = np.linalg.lstsq(vals.T, target, rcond=None)
        assert np.max(np.abs(vals.T @ coef - target)) < 1e-10


def test_cross_degree_orthogonality():
    kp = KappaParams(3, 1)
    rule = build_sphere_rule(3, 32)
    bases = [hharmonic_basis(n, kp, rule) for n in range(5)]
    wh2 = rule.weights * hweight(rule.nodes, kp) ** 2
    for n in range(5):
        for m in range(n + 1, 5):
            vn = bases[n].evaluate(rule.nodes)
            vm = bases[m].evaluate(rule.nodes)
            cross = kp.a_kappa * (vn * wh2) @ vm.T
            assert np.max(np.abs(cross)) <= 1e-8


def test_kappa_zero_reduction_to_gegenbauer():
    # classical addition theorem: sum_m Y_m(x) Y_m(y) = Z_n^{(d-2)/2}(<x,y>)
    kp = KappaParams(3, 0)
    rule = build_sphere_rule(3, 24)
    rng = np.random.default_rng(40)
    for n in (1, 2, 3):
        basis = hharmonic_basis(n, kp, rule)
        for _ in range(5):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            y = rng.normal(size=3)
            y /= np.linalg.norm(y)
            got = repro_kernel_basis(n, x, y, basis)
            want = zn_eval(n, 0.5, float(x @ y))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        # and the axis kernel collapses to Z_n at x_ell
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        got = repro_kernel_axis(n, 2, x, kp)
        assert abs(got - zn_eval(n, 0.5, x[1])) < 1e-12


def test_axis_kernel_matches_basis_kernel():
    kp = KappaParams(3, 1)
    sphere = build_sphere_rule(3, 24)
    rng = np.random.default_rng(41)
    for n in (0, 1, 2, 3):
        basis = hharmonic_basis(n, kp, sphere)
        for _ in range(5):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            for ell in (1, 3):
                got = repro_kernel_axis(n, ell, x, kp)
                e = np.zeros(3)
                e[ell - 1] = 1.0
                want = repro_kernel_basis(n, x, e, basis)
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


def test_reproducing_property_at_axis():
    kp = KappaParams(3, 1)
    sphere = build_sphere_rule(3, 20)
    wh2 = sphere.weights * hweight(sphere.nodes, kp) ** 2
    n = 2
    basis = hharmonic_basis(n, kp, sphere)
    kernel = repro_kernel_axis(n, 1, sphere.nodes, kp)
    vals = basis.evaluate(sphere.nodes)
    e1 = np.array([1.0, 0.0, 0.0])
    at_e1 = basis.evaluate(e1[None, :])[:, 0]
    integrals = kp.a_kappa * vals @ (wh2 * kernel)
    np.testing.assert_allclose(integrals, at_e1, atol=1e-7)


def test_axis_kernel_basics():
    kp = KappaParams(3, Fraction(3, 2))
    x = np.array([0.6, -0.64, 0.48])
    x /= np.linalg.norm(x)
    assert abs(repro_kernel_axis(0, 1, x, kp) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        repro_kernel_axis(1, 1, np.array([0.5, 0.5, 0.5]), kp)
    with pytest.raises(ValueError):
        repro_kernel_axis(1, 4, x, kp)
    for params in (kp, KappaParams(3, 0)):  # not an IndexError from Z_n
        with pytest.raises(ValueError, match="degree must be >= 0"):
            repro_kernel_axis(-1, 1, x, params)


def test_basis_evaluate_shapes():
    kp = KappaParams(2, 1)
    rule = build_sphere_rule(2, 24)
    basis = hharmonic_basis(2, kp, rule)
    out = basis.evaluate(rule.nodes[:5])
    assert out.shape == (len(basis), 5)
    with pytest.raises(ValueError):
        basis.evaluate(np.zeros((3, 3)))


@pytest.mark.parametrize("d, n, kappa", [(3, 6, Fraction(1, 2)), (4, 2, 1), (2, 4, 1)])
def test_basis_evaluate_matches_exact_monomials(d, n, kappa):
    # reference: each monomial in exact rational arithmetic at the float
    # nodes.  The table rounds each power of exponent >= 2 once (up to a
    # double-double residue) and each product of factors once: with r such
    # roundings a value is within gamma_r = r u' / (1 - r u') of exact,
    # u' = 2^-53 (1 + 2^-40)
    kp = KappaParams(d, kappa)
    basis = hharmonic_basis(n, kp, build_sphere_rule(d, 24, kappa_hint=kappa))
    exps = np.asarray(basis.exponents)
    u = Fraction(1, 2 ** 53) * (1 + Fraction(1, 2 ** 40))
    roundings = [sum(a >= 2 for a in alpha) + max(0, sum(a >= 1 for a in alpha) - 1)
                 for alpha in exps]
    gammas = [r * u / (1 - r * u) for r in roundings]
    for order in (24, 48):
        nodes = build_sphere_rule(d, order, kappa_hint=kappa).nodes
        pts = nodes[:: max(1, len(nodes) // 60)]
        exact = [[math.prod(Fraction(float(x)) ** int(a) for x, a in zip(pt, alpha))
                  for pt in pts] for alpha in exps]
        table = _monomial_values(pts, exps)
        for row, exact_row, gamma in zip(table, exact, gammas):
            for v, e in zip(row, exact_row):
                assert abs(Fraction(float(v)) - e) <= gamma * abs(e)
        # evaluate against the coefficients applied to the once-rounded
        # monomials: the table's error plus one rounding, and two matrix
        # products of len(exps) terms
        rounded = np.array([[float(e) for e in row] for row in exact])
        scale = np.abs(basis.coefficients) @ np.abs(rounded)
        tol = 1.01 * float(max(gammas) + 2 * u + 2 * len(exps) * u) * scale
        got = basis.evaluate(pts)
        assert np.all(np.abs(got - basis.coefficients @ rounded) <= tol)


def whole_block(params, order):
    """The first half of the chamber rule, as one block: one element per
    node makes a block of BLOCK_ELEMENTS nodes, past every order here."""
    [(nodes, weights)] = sphere_rule_blocks(params.d, order, params.kappa, 1, hemisphere=True)
    return nodes, weights


def image_rule(params, order):
    """The whole chamber rule: the chamber's nodes under all d! coordinate
    permutations.  The chamber is the first row of the half rule at d = 2
    and its first order rows, those of the identity permutation, at d = 3."""
    d = params.d
    nodes, weights = whole_block(params, order)
    size = order ** (d - 1)
    perms = list(itertools.permutations(range(d)))
    return (np.concatenate([nodes[:size, list(p)] for p in perms]),
            np.tile(weights[:size], len(perms)))


CHAMBER_KAPPAS = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), Fraction(5, 3)]


@pytest.mark.parametrize("order", [16, 24, 48])
@pytest.mark.parametrize("kappa", CHAMBER_KAPPAS)
@pytest.mark.parametrize("d", [2, 3])
def test_chamber_rule_integrates_the_weight(d, kappa, order):
    # the wall factors |x_i - x_j|^(2 kappa) sit in the Jacobi weights, so the
    # mass converges spectrally, on the built rule and on all d! images of
    # the chamber; the rule split at the kinks, which sweeps used before, read
    # 1e-5 at kappa 1/3 and 1e-8 at kappa 1/2
    params = KappaParams(d, kappa)
    rule = build_sphere_rule(d, order, kappa_hint=kappa)
    for nodes, weights in ((rule.nodes, rule.weights), image_rule(params, order)):
        assert len(weights) == math.factorial(d) * order ** (d - 1)
        assert abs(params.a_kappa * float(weights @ hweight(nodes, params) ** 2) - 1) <= 1e-13
        assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_chamber_images_tile_the_sphere(d):
    # each of the d! images lies strictly inside its own chamber, and the
    # half rule and its reflection -x are the whole rule, node for node, with
    # the weights up to rounding
    params = KappaParams(d, Fraction(1, 3))
    nodes, weights = image_rule(params, 12)
    size = 12 ** (d - 1)
    for k, perm in enumerate(itertools.permutations(range(d))):
        block = nodes[k * size:(k + 1) * size]
        ordered = block[:, np.argsort(perm)]
        assert np.all(np.diff(ordered, axis=1) < 0)
    half, half_weights = whole_block(params, 12)
    assert len(half) == len(nodes) // 2
    rule = build_sphere_rule(d, 12, kappa_hint=params.kappa)
    assert np.array_equal(rule.nodes, np.concatenate([half, -half]))
    assert np.array_equal(rule.weights, np.tile(half_weights, 2))
    both = np.concatenate([half, -half])
    match = np.argmax(both @ nodes.T, axis=1)  # the nearest node on the unit sphere
    assert np.array_equal(np.sort(match), np.arange(len(nodes)))
    assert np.max(np.abs(nodes[match] - both)) <= 1e-15
    assert np.max(np.abs(weights[match] / np.tile(half_weights, 2) - 1)) <= 1e-13


@pytest.mark.parametrize("d, kappa, n", [(2, Fraction(1, 3), 5), (2, Fraction(5, 4), 4),
                                         (3, Fraction(1, 2), 6), (3, Fraction(5, 3), 4)])
def test_chamber_half_rule_gram_doubles_to_the_image_rule_gram(d, kappa, n):
    params = KappaParams(d, kappa)
    coeffs, exps = _projected_rows(n, params).astype(float), compositions(d, n)
    whole = _gram(coeffs, exps, params, [image_rule(params, 24)])
    halved = 2 * _gram(coeffs, exps, params, [whole_block(params, 24)])
    assert np.max(np.abs(halved - whole)) <= 1e-14 * np.max(np.abs(whole))


@pytest.mark.parametrize("d, kappa, n, order", [
    (2, Fraction(1, 3), 5, 24), (2, Fraction(5, 3), 3, 24), (3, Fraction(1, 3), 6, 16),
    (3, Fraction(1, 2), 6, 24), (3, Fraction(5, 4), 4, 16)])
def test_chamber_gram_is_the_order_64_gram(d, kappa, n, order):
    # the rule split at the kinks, which the Gram used before, was 1.7e-9
    # off at order 24 and (3, 1/2, 6).  At d = 2 the
    # order nodes span a half circle, three times the d = 3 chamber's angle
    # pi/3: order 16 leaves 1.6e-13 at (2, 5/3, 3)
    params = KappaParams(d, kappa)
    coeffs, exps = _projected_rows(n, params).astype(float), compositions(d, n)
    got, ref = (_gram(coeffs, exps, params, [whole_block(params, m)]) for m in (order, 64))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_chamber_rule_out_of_float_range_is_an_overflow():
    # 2^(2 a + 1) scales the Jacobi weights for (1 - x^2)^a: at kappa 401/2
    # the u rule, a = 3 kappa, is past the float range.  No RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (build_sphere_rule, lambda *a: sphere_rule_blocks(*a, 4)):
            with pytest.raises(OverflowError, match="float range"):
                make(3, 24, Fraction(401, 2))


def fraction_mix(mix, rows):
    """Reference: mix @ rows as sums of Fraction products."""
    return tuple(tuple(sum(Fraction(m) * v for m, v in zip(mrow, col)) for col in zip(*rows))
                 for mrow in mix)


MIX_ROWS = [_projected_rows(n, KappaParams(d, kappa))
            for d, n, kappa in ((2, 5, Fraction(1, 3)), (3, 4, Fraction(1, 2)),
                                (4, 3, Fraction(5, 3)))]


@st.composite
def mix_and_rows(draw):
    rows = draw(st.sampled_from(MIX_ROWS))
    dim = len(rows)
    entries = draw(st.lists(st.floats(-1e8, 1e8), min_size=dim * (dim + 1) // 2,
                            max_size=dim * (dim + 1) // 2))
    mix = np.zeros((dim, dim))
    mix[np.tril_indices(dim)] = entries
    return mix, rows


@settings(max_examples=30, deadline=None)
@given(mix_and_rows())
def test_integer_mix_is_the_fraction_mix(case):
    mix, rows = case
    got = _exact_mix(mix, rows)
    assert got == fraction_mix(mix, rows)
    assert all(type(v) is Fraction for row in got for v in row)


def test_inverse_lower_is_lower_triangular_inverse():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(9, 30))
    L = np.linalg.cholesky(a @ a.T)
    inv = _inverse_lower(L)
    assert np.array_equal(inv, np.tril(inv))
    assert np.max(np.abs(inv @ L - np.eye(9))) <= 1e-13

