"""Dirichlet-weight quadrature on the probability simplex.

Moments have a Gamma-quotient closed form, so the rule can be tested against
an exact oracle; a seeded Monte-Carlo estimate cross-checks the closed form
itself through numpy's independent Dirichlet sampler."""

import dataclasses
import hashlib
import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dunklsym import simplexquad
from dunklsym.intertwine import vk_axis, vk_d2_generic
from dunklsym.polycore import KappaParams
from dunklsym.simplexquad import (
    BLOCK_ELEMENTS,
    CHUNK_ELEMENTS,
    MomentValidationError,
    SimplexRule,
    _validate_moments,
    block_slices,
    build_rule,
    default_order,
    dirichlet_moment,
    dirichlet_moment_exact,
    exact_order,
    exponential_order,
    gauss_jacobi01,
    integrate,
)


def multi_indices(d, max_total):
    for alpha in itertools.product(range(max_total + 1), repeat=d):
        if sum(alpha) <= max_total:
            yield alpha


def test_moment_hand_values():
    # d=2, kappa=1: flat weight on the segment, so the moment is int_0^1 t^a dt
    assert abs(dirichlet_moment(2, 1.0, (1, 0)) - 0.5) < 1e-15
    assert abs(dirichlet_moment(2, 1.0, (0, 0)) - 1.0) < 1e-15
    assert abs(dirichlet_moment(2, 1.0, (2, 1)) - 1 / 12) < 1e-16
    # normalized first moment is 1/d by symmetry
    for d in (2, 3, 4):
        mean = dirichlet_moment(d, 0.75, (1,) + (0,) * (d - 1))
        mass = dirichlet_moment(d, 0.75, (0,) * d)
        assert abs(mean / mass - 1 / d) < 1e-14


def test_moment_exact_matches_float():
    for d, kappa in ((2, Fraction(1, 2)), (3, Fraction(3, 2)), (4, Fraction(2))):
        for alpha in ((0,) * d, (2,) + (0,) * (d - 1), (1,) * d):
            rat, pi_pow = dirichlet_moment_exact(d, kappa, alpha)
            value = float(rat) * math.pi ** (pi_pow / 2)
            assert abs(value - dirichlet_moment(d, float(kappa), alpha)) < 1e-14 * value
    assert dirichlet_moment_exact(3, Fraction(1, 3), (0, 0, 0)) is None


def test_moment_argument_errors():
    with pytest.raises(ValueError):
        dirichlet_moment(2, 0.0, (0, 0))
    with pytest.raises(ValueError):
        dirichlet_moment(2, 1.0, (0, 0, 0))
    with pytest.raises(ValueError):
        dirichlet_moment(2, 1.0, (-1, 0))


def test_moment_monte_carlo():
    # numpy's Dirichlet sampler has density t^(kappa-1) / mass on the simplex
    rng = np.random.default_rng(14)
    d, kappa, alpha = 3, 0.5, (2, 1, 0)
    samples = rng.dirichlet([kappa] * d, size=10 ** 6)
    est = float(np.mean(samples[:, 0] ** 2 * samples[:, 1]))
    want = dirichlet_moment(d, kappa, alpha) / dirichlet_moment(d, kappa, (0,) * d)
    assert abs(est - want) < 5e-3 * want


def test_gauss_jacobi01_interval_rule():
    x, w = gauss_jacobi01(12, 0.5, 1.5)
    assert np.all((0 < x) & (x < 1))
    # mass and first moment of u^{1/2} (1-u)^{3/2} via Beta
    assert abs(w.sum() - math.gamma(1.5) * math.gamma(2.5) / math.gamma(4.0)) < 1e-14
    assert abs(w @ x - math.gamma(2.5) * math.gamma(2.5) / math.gamma(5.0)) < 1e-14
    with pytest.raises(ValueError):
        gauss_jacobi01(0, 0.0, 0.0)


# (p, q) of u^p (1-u)^q as the package builds them: simplex axes
# (kappa - 1, (d - j) kappa - 1) at kappa 1/2, 1 and 1/3, Legendre panels of
# the sphere rules, and the S^3 polar weight
GJ_PAIRS = [(-0.5, -0.5), (-0.5, 0.0), (0.0, 0.0), (0.0, 1.0), (0.5, 0.5), (-2 / 3, -1 / 3)]


@pytest.mark.parametrize("p, q", GJ_PAIRS, ids=str)
def test_gauss_jacobi01_against_mpmath(p, q):
    # 40-digit mpmath rules (Jacobi (q, p) on [-1, 1], moved to [0, 1]) at
    # every order to 12 and at 20, 33 and 64; nodes next to u = 0 to 1e-12
    # of u, the others to an ulp, and every weight to 1e-12 of itself
    for order in [*range(1, 13), 20, 33, 64]:
        with mpmath.workdps(40):
            x, w = mpmath.gauss_quadrature(order, "jacobi", q, p)
            scale = mpmath.mpf(2) ** (p + q + 1)
            want_u = np.array([float((xi + 1) / 2) for xi in x])
            want_w = np.array([float(wi / scale) for wi in w])
        ranks = np.argsort(want_u)
        want_u, want_w = want_u[ranks], want_w[ranks]
        u, w = gauss_jacobi01(order, p, q)
        assert np.all(np.abs(u - want_u) <= np.maximum(1e-12 * want_u, 2.3e-16)), order
        assert np.all(np.abs(w - want_w) <= 1e-12 * want_w), order


def test_gauss_jacobi01_endpoint_integral():
    # int_0^1 u^(-1/2) e^(-45 u) du = sqrt(pi/45) erf(sqrt(45)): the
    # integrand sits next to u = 0, where the weights need relative accuracy
    with mpmath.workdps(40):
        want = float(mpmath.sqrt(mpmath.pi / 45) * mpmath.erf(mpmath.sqrt(45)))
    u, w = gauss_jacobi01(62, -0.5, 0.0)
    assert abs(w @ np.exp(-45 * u) - want) <= 1e-13 * want


def test_oversized_gauss_jacobi01_is_refused():
    order = math.isqrt(CHUNK_ELEMENTS) + 1
    with pytest.raises(ValueError, match="Jacobi matrix"):
        gauss_jacobi01(order, 0.0, 0.0)
    with pytest.raises(ValueError, match="exceed -1"):
        gauss_jacobi01(4, -1.0, 0.0)


def reference_walk(rule, degree):
    """The moment check as a depth-first walk, kept as a reference for the
    level table of _validate_moments: the sorted coordinate sequences s,
    |s| <= degree, each after its prefix s[:-1], whose row of `path` times
    t_{s[-1]} gives w t^s on the nodes; and the Dirichlet moments by the
    ratio M(alpha + e_i) = M(alpha) (kappa + alpha_i) / (d kappa + |alpha|)
    from M(0) = mass.  Returns (alphas, sums, moments)."""
    d, kappa = rule.d, rule.kappa
    seqs = sorted(s for m in range(degree + 1)
                  for s in itertools.combinations_with_replacement(range(d), m))
    T = np.ascontiguousarray(rule.nodes.T)
    path = np.empty((degree + 1, len(rule)))
    path[0] = rule.weights
    got, ref = np.empty(len(seqs)), np.empty(len(seqs))
    chain = [rule.mass] * (degree + 1)  # the moments along the current path
    for j, s in enumerate(seqs):
        if s:
            np.multiply(path[len(s) - 1], T[s[-1]], out=path[len(s)])
            chain[len(s)] = (chain[len(s) - 1] * (kappa + s.count(s[-1]) - 1)
                             / (d * kappa + len(s) - 1))
        got[j], ref[j] = path[len(s)].sum(), chain[len(s)]
    return [tuple(s.count(i) for i in range(d)) for s in seqs], got, ref


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_reference_moments_match_dirichlet_moment(d):
    for kappa in (1 / 3, 0.5, 1.0, 5 / 3, 2.5):
        alphas, _, ref = reference_walk(build_rule(d, kappa, 4), 6)
        want = [dirichlet_moment(d, kappa, alpha) for alpha in alphas]
        assert np.allclose(ref, want, rtol=1e-14, atol=0), (d, kappa)


# (d, order): rules of one table block and of several; the last block of
# (3, 49), (4, 13), (4, 21) and (5, 8) is narrower than the others, its spare
# columns weighted zero
TABLE_RULES = [(2, 1), (2, 3), (2, 30), (3, 2), (3, 15), (3, 49), (4, 3), (4, 13),
               (4, 21), (5, 2), (5, 8)]


@pytest.mark.parametrize("d, order", TABLE_RULES)
def test_moment_sums_match_the_depth_first_walk(d, order):
    for kappa in (1 / 3, 1.0, 5 / 3):
        rule = build_rule(d, kappa, order)
        for degree in {0, 1, min(6, 2 * order - 1)}:
            alphas, want, _ = reference_walk(rule, degree)
            rows = map(tuple, simplexquad._moment_plan(d, degree)[1].tolist())
            got = dict(zip(rows, _validate_moments(rule, degree)))
            assert len(got) == len(alphas) and set(got) == set(alphas)
            np.testing.assert_allclose([got[a] for a in alphas], want, rtol=1e-13, atol=0)


def _worst_alpha(rule, degree):
    alphas, got, ref = reference_walk(rule, degree)
    err = np.abs(got - ref) / ref
    assert err.max() > 1e-10  # the reference refuses the rule too
    return alphas[int(np.argmax(err))]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kappa", [0.5, 5 / 3])
def test_perturbed_rule_is_refused_at_the_reference_worst_alpha(d, kappa):
    # one weight scaled by 1 + 1e-8, or one node moved by 1e-8 along an edge
    # of the simplex, at the heaviest node: the check names the alpha the
    # depth-first walk finds worst
    rule = build_rule(d, kappa, 4)
    k = int(np.argmax(rule.weights))
    weights = rule.weights.copy()
    weights[k] *= 1 + 1e-8
    nodes = rule.nodes.copy()
    nodes[k, np.argmax(nodes[k])] -= 1e-8
    nodes[k, np.argmin(nodes[k])] += 1e-8
    assert np.all(nodes > 0)
    for bad in (dataclasses.replace(rule, weights=weights),
                dataclasses.replace(rule, nodes=nodes)):
        with pytest.raises(MomentValidationError) as refused:
            _validate_moments(bad, 6)
        named = re.search(r"alpha=\(([\d, ]+)\)", str(refused.value)).group(1)
        assert tuple(int(a) for a in named.split(",")) == _worst_alpha(bad, 6)


# sha256 of the nodes' then the weights' bytes of build_rule(d, kappa, order)
# for kappa in (1/2, 1, 3/2, 5/3, 2) and order in (1, 2, 5, 8, 13, 21), in
# that order: the bits of every rule, frozen when the level-table check came in
RULE_DIGESTS = {
    2: "7c9b563f5f0482a5365b0d47ca96649c0d77ef11044e903b551ab5e135afc739",
    3: "0ab67382c0c59a5760a4f71b86b47f56f50c3100a1d13d79a9006391bb68486d",
    4: "69bfb32ee1cf8541c10f294ca59d6f06e23a4b9852ce9df2379dc671912a83eb",
    5: "3a388001a86c98dab5e859adecc426d6ac7cf0e48c599635a733655e4afb7add",
}


@pytest.mark.parametrize("d", sorted(RULE_DIGESTS))
def test_rule_bits_are_frozen(d):
    digest = hashlib.sha256()
    for kappa in (0.5, 1.0, 1.5, 5 / 3, 2.0):
        for order in (1, 2, 5, 8, 13, 21):
            rule = build_rule(d, kappa, order)
            digest.update(rule.nodes.tobytes())
            digest.update(rule.weights.tobytes())
    assert digest.hexdigest() == RULE_DIGESTS[d]


def test_gauss_jacobi01_and_exponential_order_are_memoized():
    u, w = gauss_jacobi01(9, 0.5, 2.0)
    again = gauss_jacobi01(9, 0.5, 2.0)
    assert again[0] is u and again[1] is w
    for array in (u, w):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    fresh = gauss_jacobi01.__wrapped__(9, 0.5, 2.0)
    assert np.array_equal(fresh[0], u) and np.array_equal(fresh[1], w)
    for rho in (0.0, 0.3, 2.5, 40.0):
        for imaginary in (True, False):
            assert exponential_order(rho, imaginary) == exponential_order.__wrapped__(rho, imaginary)


def test_new_rule_is_validated_after_the_cache_is_cleared(monkeypatch):
    checked = []
    real = simplexquad._validate_moments

    def recording(rule, degree):
        checked.append((rule.d, rule.kappa, rule.order, degree))
        return real(rule, degree)

    build_rule(3, 0.75, 5)  # its axes' Gauss-Jacobi rules are kept
    simplexquad._RULES.clear()
    monkeypatch.setattr(simplexquad, "_validate_moments", recording)
    rule = build_rule(3, 0.75, 5)
    assert build_rule(3, 0.75, 5) is rule
    assert checked == [(3, 0.75, 5, 6)]


def test_build_rule_node_layout():
    rule = build_rule(3, 1.5, 10)
    assert len(rule) == 10 ** 2
    assert rule.nodes.shape == (100, 3)
    np.testing.assert_allclose(rule.nodes.sum(axis=1), 1.0, atol=1e-13)
    assert np.all(rule.nodes > 0)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - rule.mass) < 1e-12 * rule.mass
    with pytest.raises(ValueError):
        build_rule(1, 1.0, 8)
    with pytest.raises(ValueError):
        build_rule(3, -1.0, 8)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kappa_zero_gives_the_vertex_rule(d):
    # the kappa -> 0 limit of c_kappa (t_0...t_{d-1})^(kappa-1) dt: a unit
    # mass at each vertex, whatever the order asked for
    rule = build_rule(d, 0, 301)
    assert rule.order == 301 and len(rule) == d
    assert np.array_equal(rule.nodes, np.eye(d))
    assert np.array_equal(rule.weights, np.ones(d))
    assert rule.mass == d == KappaParams(d, 0).c_kappa * rule.mass
    for alpha in multi_indices(d, 4):
        got = integrate(rule, lambda t, a=alpha: np.prod(t ** np.array(a), axis=1))
        want = d if sum(alpha) == 0 else int(max(alpha) == sum(alpha))
        assert got == want, alpha


def test_oversized_rule_is_refused_before_any_node(monkeypatch):
    def no_nodes(*args):
        raise AssertionError("nodes were computed for an oversized rule")

    simplexquad._RULES.clear()  # no kept rule stands in for a built one
    monkeypatch.setattr(simplexquad, "gauss_jacobi01", no_nodes)
    for d, order in ((2, 4_000_001), (3, 2001), (4, 159), (5, 45)):
        assert order ** (d - 1) > simplexquad.CHUNK_ELEMENTS
        with pytest.raises(ValueError, match="nodes"):
            build_rule(d, 1.0, order)
        assert len(build_rule(d, 0.0, order)) == d  # the vertex rule has d nodes


@pytest.mark.parametrize("d, kappa", [(3, 1), (4, 0.5), (3, 0)])
def test_rule_is_built_once_and_read_only(d, kappa):
    rule = build_rule(d, kappa, 6)
    assert build_rule(d, float(kappa), 6) is rule
    assert build_rule(d, kappa, 7) is not rule
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0


def test_oversized_rule_is_refused_with_a_warm_cache(monkeypatch):
    kept = [build_rule(d, 1.0, 8) for d in (2, 3, 4, 5)]

    def no_nodes(*args):
        raise AssertionError("nodes were computed")

    monkeypatch.setattr(simplexquad, "gauss_jacobi01", no_nodes)
    for d, order in ((2, 4_000_001), (3, 2001), (4, 159), (5, 45)):
        with pytest.raises(ValueError, match="nodes"):
            build_rule(d, 1.0, order)
    # the kept rules come back without a node being computed
    assert all(build_rule(d, 1.0, 8) is rule for d, rule in zip((2, 3, 4, 5), kept))


def test_kept_rules_stay_within_the_element_budget():
    def held():
        return sum(r.nodes.size + r.weights.size for r in simplexquad._RULES.values())

    simplexquad._RULES.clear()
    # d = 3 at order m has m^2 nodes of 3 coordinates and a weight: 4 m^2
    # elements, so orders 600, 700 and 800 hold 1.44, 1.96 and 2.56 million
    small, middle = build_rule(3, 1.0, 600), build_rule(3, 1.0, 700)
    assert build_rule(3, 1.0, 600) is small  # now the most recently used
    large = build_rule(3, 1.0, 800)
    # 5.96 million would exceed the budget: the least recently used goes
    assert list(simplexquad._RULES) == [(3, 1.0, 600), (3, 1.0, 800)]
    assert held() == simplexquad.CHUNK_ELEMENTS
    assert build_rule(3, 1.0, 800) is large
    assert build_rule(3, 1.0, 700) is not middle  # built anew
    assert held() <= simplexquad.CHUNK_ELEMENTS
    # a rule over the budget on its own (1100^2 nodes) is returned, not kept
    before = list(simplexquad._RULES)
    assert len(build_rule(3, 1.0, 1100)) == 1100 ** 2
    assert list(simplexquad._RULES) == before
    simplexquad._RULES.clear()


@pytest.mark.parametrize("count, per_row", [
    (0, 1), (1, 1), (2, BLOCK_ELEMENTS), (BLOCK_ELEMENTS, 1), (BLOCK_ELEMENTS + 1, 1),
    (BLOCK_ELEMENTS + 2, 1), (3 * 1000 + 1, BLOCK_ELEMENTS // 1000), (12672, 200),
    (7, BLOCK_ELEMENTS), (8, BLOCK_ELEMENTS // 3),
])
def test_block_slices_cover_the_rows_without_a_one_row_block(count, per_row):
    blocks = block_slices(count, per_row)
    assert [i for sl in blocks for i in range(count)[sl]] == list(range(count))
    step = max(2, BLOCK_ELEMENTS // per_row)
    if count > 1:
        # every block but the last has the budget's rows, and the last one
        # takes a remainder of one row
        assert all(sl.stop - sl.start == step for sl in blocks[:-1])
        assert 2 <= blocks[-1].stop - blocks[-1].start <= step + 1


def test_mass_is_beta_for_d2():
    for kappa in (0.5, 1.0, 2.0):
        rule = build_rule(2, kappa, 16)
        want = math.gamma(kappa) ** 2 / math.gamma(2 * kappa)
        got = integrate(rule, lambda t: np.ones(len(rule)))
        assert abs(got - want) < 1e-13 * want


def test_single_moment_high_accuracy():
    rule = build_rule(3, 1.5, 24)
    got = integrate(rule, lambda t: t[:, 0])
    want = dirichlet_moment(3, 1.5, (1, 0, 0))
    assert abs(got - want) <= 1e-12 * want


def test_moment_completeness_sample():
    for d, kappa in ((2, 0.5), (3, 1.0), (4, 2.0)):
        rule = build_rule(d, kappa, 24)
        for alpha in multi_indices(d, 4):
            got = integrate(rule, lambda t, a=alpha: np.prod(t ** np.array(a), axis=1))
            want = dirichlet_moment(d, kappa, alpha)
            assert abs(got - want) <= 1e-10 * want


def test_degree_convergence_self_check():
    # a degree-8 integrand is already exact at order 24; doubling must agree
    rng = np.random.default_rng(15)
    coef = rng.normal(size=9)
    for kappa in (0.5, 2.0):
        lo = build_rule(2, kappa, 24)
        hi = build_rule(2, kappa, 48)
        g = lambda t: np.polyval(coef, t[:, 0])
        a, b = integrate(lo, g), integrate(hi, g)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_permutation_symmetry():
    rule = build_rule(3, 1.0, 20)
    f01 = integrate(rule, lambda t: t[:, 0] ** 2 * t[:, 1])
    f10 = integrate(rule, lambda t: t[:, 1] ** 2 * t[:, 0])
    f20 = integrate(rule, lambda t: t[:, 2] ** 2 * t[:, 0])
    assert abs(f01 - f10) < 1e-12
    assert abs(f01 - f20) < 1e-12


def test_integrate_error_paths():
    rule = build_rule(2, 1.0, 8)
    with pytest.raises(ValueError):
        integrate(rule, lambda t: np.ones(3))
    with pytest.raises(ValueError):
        integrate(rule, lambda t: np.full(len(rule), np.nan))
    # complex integrands are allowed (Bessel paths use them)
    val = integrate(rule, lambda t: np.exp(1j * t[:, 0]))
    assert isinstance(val, complex)


@pytest.mark.parametrize("order", [32, 48])
def test_moment_check_reads_the_nodes(order):
    # d = 4 at order 32 and 48: 32^3 and 48^3 nodes, 210 monomials
    rule = build_rule(4, 1.0, order)
    _validate_moments(rule, 6)
    nodes = rule.nodes.copy()
    k = int(np.argmax(rule.weights * np.abs(nodes[:, 0] - nodes[:, 1])))
    nodes[k, [0, 1]] = nodes[k, [1, 0]]
    with pytest.raises(MomentValidationError):
        _validate_moments(dataclasses.replace(rule, nodes=nodes), 6)


def test_default_order_floor():
    assert default_order(0) == 32
    assert default_order(20) == 32
    assert default_order(100) == 60


def test_default_order_rounds_half_degree_down():
    assert default_order(45) == 32
    assert default_order(101) == 60
    assert default_order(200) == 110


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 5 / 3])
@pytest.mark.parametrize("degree", [1, 4, 7, 10])
def test_exact_order_is_tight(d, kappa, degree):
    # exact_order(D) reproduces every degree-D moment; one order less misses one
    moments = [(a, dirichlet_moment(d, kappa, a))
               for a in itertools.product(range(degree + 1), repeat=d) if sum(a) == degree]

    def worst(rule):
        return max(abs(integrate(rule, lambda t: np.prod(t ** np.array(a), axis=1)) - want)
                   / want for a, want in moments)

    order = exact_order(degree)
    assert worst(build_rule(d, kappa, order)) <= 1e-12
    if order > 1:
        assert worst(build_rule(d, kappa, order - 1)) > 1e-8


@pytest.mark.parametrize("d, kappa, order", [(4, 0.25, 6), (5, 0.2, 4)])
def test_axis_exponents_summing_to_minus_one(d, kappa, order):
    # the last tensor axis has weight u^(kappa-1) (1-u)^(-kappa), whose Jacobi
    # matrix has a 0/0 first off-diagonal entry in the general formula
    _validate_moments(build_rule(d, kappa, order), 2 * order - 1)


def test_integrate_batched_integrand():
    rule = build_rule(3, 1.0, 12)
    rows = integrate(rule, lambda t: np.stack([t[:, 0], t[:, 1] ** 2, np.ones(len(rule))]))
    assert rows.shape == (3,)
    for got, one in zip(rows, (integrate(rule, lambda t: t[:, 0]),
                               integrate(rule, lambda t: t[:, 1] ** 2),
                               integrate(rule, lambda t: np.ones(len(rule))))):
        assert got == one
    with pytest.raises(ValueError):
        integrate(rule, lambda t: np.ones((len(rule), 2)))
    with pytest.raises(ValueError):
        integrate(rule, lambda t: 1.0)


# ---------------------------------------------------------------------------
# every public function that takes a simplex rule checks it the same way
# ---------------------------------------------------------------------------

KP2, KP3 = KappaParams(2, 1), KappaParams(3, 1)
X3 = np.array([0.6, 0.8, 0.0])

# name -> (d of the rule the call needs, at kappa = 1; the call)
RULE_TAKERS = {
    "vk_axis": (3, lambda r: vk_axis(np.cos, 1, X3, KP3, r)),
    "vk_d2_generic": (2, lambda r: vk_d2_generic(lambda u, v: u * v, [0.3, 0.4], KP2, r)),
}
BAD_RULES = {
    "none": lambda d: None,
    "wrong_kappa": lambda d: build_rule(d, 2.0, 8),
    "wrong_d": lambda d: build_rule(d + 1, 1.0, 8),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in RULE_TAKERS for bad in BAD_RULES])
def test_rule_takers_refuse_missing_or_mismatched_rule(name, bad):
    d, call = RULE_TAKERS[name]
    call(build_rule(d, 1.0, 8))  # the matching rule is accepted
    with pytest.raises(ValueError):
        call(BAD_RULES[bad](d))
