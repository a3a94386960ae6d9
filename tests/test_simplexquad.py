"""Dirichlet-weight quadrature on the probability simplex.

Moments have a Gamma-quotient closed form, so the rule can be tested against
an exact oracle; a seeded Monte-Carlo estimate cross-checks the closed form
itself through numpy's independent Dirichlet sampler."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dunklsym.bessel import bessel_k, bessel_k2_direct, bessel_recursive, dunkl_exp_axis
from dunklsym.intertwine import AxisFunction, vk_axis, vk_d2_generic
from dunklsym.polycore import KappaParams
from dunklsym.simplexquad import (
    MomentValidationError,
    SimplexRule,
    _validate_moments,
    build_rule,
    default_order,
    dirichlet_moment,
    dirichlet_moment_exact,
    exact_order,
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
    # the last tensor axis has weight u^(kappa-1) (1-u)^(-kappa), where scipy's
    # roots_jacobi divides by zero in a branch it discards
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
    "vk_axis": (3, lambda r: vk_axis(AxisFunction(ell=1, profile=np.cos), X3, KP3, r)),
    "vk_d2_generic": (2, lambda r: vk_d2_generic(lambda u, v: u * v, [0.3, 0.4], KP2, r)),
    "dunkl_exp_axis": (3, lambda r: dunkl_exp_axis(1, X3, KP3, r)),
    "bessel_k_direct": (3, lambda r: bessel_k(3, 1, X3, r, path="direct")),
    "bessel_k_coset": (3, lambda r: bessel_k(3, 1, X3, r, path="coset")),
    "bessel_k2_direct": (2, lambda r: bessel_k2_direct(1, [0.3, 0.4], [0.5, -0.2], r)),
    "bessel_recursive": (2, lambda r: bessel_recursive(3, 1, X3, r)),
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
