"""Sphere quadrature for the reflection-invariant weight, h-harmonic bases
as exact nullspaces, and the reproducing kernels at coordinate vectors."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dunklsym.harmonics import (
    HarmonicBasis,
    build_sphere_rule,
    harmonic_dim,
    hharmonic_basis,
    hweight,
    norm_const_a,
    repro_kernel_axis,
    repro_kernel_basis,
    surface_area,
)
from dunklsym.orthopoly import zn_eval
from dunklsym.polycore import KappaParams, Polynomial, dunkl_laplacian


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


def test_sphere_rule_kink_split_handles_half_integer_kappa():
    # h^2 = prod |x_i - x_j| has kinks; the split rule must still reach 1e-8
    for d in (2, 3):
        kp = KappaParams(d, Fraction(1, 2))
        rule = build_sphere_rule(d, 24, kappa_hint=kp.kappa)
        quad = float(rule.weights @ hweight(rule.nodes, kp) ** 2)
        closed = 1.0 / kp.a_kappa
        assert abs(quad - closed) <= 1e-8 * closed


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
        (3, Fraction(1, 2), 24, 1e-8),
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
    for d, kappa, n_max in ((2, 1, 4), (3, 1, 3), (3, Fraction(1, 2), 2)):
        kp = KappaParams(d, kappa)
        rule = build_sphere_rule(d, 24, kappa_hint=kp.kappa)
        for n in range(n_max + 1):
            basis = hharmonic_basis(n, kp, rule)
            assert len(basis) == harmonic_dim(n, d)
            for p in basis.basis():
                assert dunkl_laplacian(p, kp).is_zero()


def test_gram_residuals():
    rule = build_sphere_rule(3, 24)
    basis = hharmonic_basis(3, KappaParams(3, 1), rule)
    assert basis.gram_residual <= 1e-8
    basis2 = hharmonic_basis(3, KappaParams(3, 2), rule)
    assert basis2.gram_residual <= 1e-8
    # half-integer kappa: kink quadrature converges geometrically but from a
    # rougher start, hence the documented looser bound
    ruleh = build_sphere_rule(3, 24, kappa_hint=Fraction(1, 2))
    basish = hharmonic_basis(3, KappaParams(3, Fraction(1, 2)), ruleh)
    assert basish.gram_residual <= 1e-6


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
def test_basis_evaluate_is_bit_identical_to_power_grid(d, n, kappa):
    # reference: the (node, monomial, coordinate) pow grid evaluate used before
    # the per-coordinate power table; both multiply in coordinate order
    kp = KappaParams(d, kappa)
    basis = hharmonic_basis(n, kp, build_sphere_rule(d, 24, kappa_hint=kappa))
    exps = np.asarray(basis.exponents)
    for order in (24, 48):
        pts = build_sphere_rule(d, order, kappa_hint=kappa).nodes
        mono = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
        assert np.array_equal(basis.evaluate(pts), basis.coefficients @ mono.T)
