"""The intertwining operator: exact monomial images, the simplex quadrature
path, the two-variable generic path, and the sphere-average identity."""

from fractions import Fraction

import numpy as np
import pytest

from dunklsym import intertwine, simplexquad
from dunklsym.harmonics import build_sphere_rule
from dunklsym.intertwine import (
    AxisFunction,
    verify_intertwining,
    vk_axis,
    vk_d2_generic,
    vk_d2_poly_exact,
    vk_monomial_exact,
    vk_sphere_average,
    vk_z2d,
)
from dunklsym.polycore import KappaParams, Polynomial, dunkl_apply
from dunklsym.simplexquad import build_rule


def test_constants_are_fixed():
    kp = KappaParams(3, Fraction(1, 2))
    rule = build_rule(3, 0.5, 24)
    rng = np.random.default_rng(20)
    for ell in (1, 2, 3):
        F = AxisFunction(ell=ell, profile=lambda s: np.ones_like(s))
        x = rng.normal(size=3)
        assert abs(vk_axis(F, x, kp, rule) - 1.0) < 1e-12


def test_linear_image_closed_form():
    # V[x_1] = ((kappa+1) x_1 + kappa x_2) / (d kappa + 1); d=2, kappa=1
    got = vk_monomial_exact(1, 1, KappaParams(2, 1))
    want = Polynomial(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(1, 3)})
    assert got == want
    # general d: off-axis coefficients are all kappa/(d kappa + 1)
    kp = KappaParams(4, Fraction(1, 2))
    img = vk_monomial_exact(1, 2, kp)
    assert img.coefficient((0, 1, 0, 0)) == Fraction(3, 6)
    assert img.coefficient((1, 0, 0, 0)) == Fraction(1, 6)
    assert img.coefficient((0, 0, 0, 1)) == Fraction(1, 6)


def test_monomial_images_structure():
    kp = KappaParams(3, Fraction(5, 3))
    for n in (0, 1, 3, 6):
        img = vk_monomial_exact(n, 2, kp)
        assert img.is_homogeneous() and (img.degree() == n or n == 0)
        # positive operator: monomial images have positive coefficients
        assert all(c > 0 for c in img.terms.values())
        # normalization: coefficients sum to the value at (1,...,1), which is 1
        assert sum(img.terms.values()) == 1


def test_quadrature_matches_exact_images():
    kp = KappaParams(3, Fraction(3, 2))
    rule = build_rule(3, 1.5, 32)
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, size=3)
    for n in (1, 2, 5, 12, 20):
        F = AxisFunction(ell=1, profile=lambda s, n=n: s ** n)
        got = vk_axis(F, x, kp, rule)
        want = float(vk_monomial_exact(n, 1, kp)(x))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_kappa_zero_is_identity():
    # the vertex rule gives F(x) exactly, at one point and at many
    kp = KappaParams(3, 0)
    F = AxisFunction(ell=2, profile=lambda s: np.cos(s))
    x = np.array([0.3, -0.8, 0.5])
    rule = build_rule(3, 0, 1)
    assert vk_axis(F, x, kp, rule) == np.cos(-0.8)
    X = np.random.default_rng(3).normal(size=(9, 3))
    assert np.array_equal(vk_axis(F, X, kp, rule), np.cos(X[:, 1]))


def test_small_kappa_approaches_identity():
    kp = KappaParams(3, Fraction(1, 64))
    rule = build_rule(3, float(kp.kappa), 32)
    x = np.array([0.3, -0.7, 0.6])
    F = AxisFunction(ell=1, profile=lambda s: s ** 2)
    assert abs(vk_axis(F, x, kp, rule) - 0.3 ** 2) < 0.01


def test_verify_intertwining_counts_and_passes():
    report = verify_intertwining(8, KappaParams(2, 1))
    assert report["passed"] and report["failed"] == []
    assert report["checks"] == 2 * 9 * 2
    assert verify_intertwining(4, KappaParams(3, Fraction(5, 3)))["passed"]


@pytest.mark.parametrize("d, kappa, n_max, bad_n", [
    pytest.param(3, Fraction(1, 2), 5, 0, id="0"),
    pytest.param(3, Fraction(1, 2), 5, 3, id="3"),
    pytest.param(3, Fraction(1, 2), 5, 5, id="5"),
    pytest.param(4, Fraction(1, 2), 5, 3, id="d4"),
    # images past 2^63: the sums run on Python ints
    pytest.param(3, Fraction(997, 991), 8, 5, id="past-int64"),
])
def test_verify_intertwining_reports_a_corrupted_image(monkeypatch, d, kappa, n_max, bad_n):
    # one coefficient of the integer image N_bad_n at ell = 2 is off by one;
    # it is the left side of (2, bad_n, i) for every i, and the right side
    # of (2, bad_n + 1, 2).  D_i kills no nonconstant monomial for kappa > 0.
    ell = 2
    numerators = intertwine._image_numerators
    if kappa == Fraction(997, 991):
        assert max(numerators(n_max, d, 997, 991)[1].ravel()) > 2**63

    def corrupted(n, *args):
        exps, coefs = numerators(n, *args)
        if n == bad_n:
            coefs[ell - 1, 0] += 1
        return exps, coefs

    monkeypatch.setattr(intertwine, "_image_numerators", corrupted)
    report = verify_intertwining(n_max, KappaParams(d, kappa))
    want = [(ell, bad_n, i) for i in range(1, d + 1) if bad_n >= 1]
    if bad_n < n_max:
        want.append((ell, bad_n + 1, ell))
    assert not report["passed"] and report["checks"] == d * d * (n_max + 1)
    assert [(f["ell"], f["n"], f["i"]) for f in report["failed"]] == want


@pytest.mark.parametrize("budget", [1, 3000])
def test_verify_intertwining_report_does_not_depend_on_the_blocks(monkeypatch, budget):
    # budget 1: one ell of one degree per core call; 3000: a few degrees per call
    numerators = intertwine._image_numerators

    def corrupted(n, *args):
        exps, coefs = numerators(n, *args)
        if n in (2, 4):
            coefs[n - 2, -1] -= 1
        return exps, coefs

    monkeypatch.setattr(intertwine, "_image_numerators", corrupted)
    params = KappaParams(3, Fraction(5, 3))
    whole = verify_intertwining(6, params)
    monkeypatch.setattr(simplexquad, "CHUNK_ELEMENTS", budget)
    assert verify_intertwining(6, params) == whole
    assert [(f["ell"], f["n"]) for f in whole["failed"]] == [
        (1, 2), (1, 2), (1, 2), (1, 3), (3, 4), (3, 4), (3, 4), (3, 5)]


@pytest.mark.parametrize("kappa", [0, Fraction(1, 2), Fraction(5, 3), 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_fraction_wrapper_satisfies_the_intertwining_identity(d, kappa):
    # the Fraction route (dunkl_apply on vk_monomial_exact) against the right
    # side n V[x_ell^(n-1)]; kappa = 0 runs the core with p = 0, q = 1
    kp = KappaParams(d, kappa)
    for ell in range(1, d + 1):
        for n in range(6):
            image = vk_monomial_exact(n, ell, kp)
            for i in range(1, d + 1):
                want = (vk_monomial_exact(n - 1, ell, kp) * n if i == ell and n >= 1
                        else Polynomial.zero(d))
                assert dunkl_apply(image, i, kp) == want


def test_verify_intertwining_headroom_d5_degree12():
    report = verify_intertwining(12, KappaParams(5, Fraction(1, 2)))
    assert report["passed"] and report["checks"] == 325


def test_verify_intertwining_refuses_a_negative_degree():
    # no identity to check is not a pass
    with pytest.raises(ValueError, match="max degree"):
        verify_intertwining(-1, KappaParams(3, Fraction(1, 2)))
    assert verify_intertwining(0, KappaParams(3, Fraction(1, 2)))["checks"] == 9


def test_vk_axis_argument_errors():
    kp = KappaParams(3, 1)
    rule = build_rule(3, 1.0, 8)
    F = AxisFunction(ell=1, profile=lambda s: s)
    with pytest.raises(ValueError):
        vk_axis(F, np.zeros(2), kp, rule)
    with pytest.raises(ValueError):
        vk_axis(AxisFunction(ell=4, profile=lambda s: s), np.zeros(3), kp, rule)
    with pytest.raises(ValueError):
        vk_axis(F, np.zeros(3), kp, build_rule(2, 1.0, 8))
    with pytest.raises(ValueError):
        vk_axis(F, np.zeros(3), kp, build_rule(3, 2.0, 8))


def test_transposition_equivariance():
    kp = KappaParams(3, 1)
    rule = build_rule(3, 1.0, 32)
    rng = np.random.default_rng(22)
    x = rng.uniform(-1, 1, size=3)
    F1 = AxisFunction(ell=1, profile=np.exp)
    # swapping two axes other than ell leaves the value unchanged
    x23 = x[[0, 2, 1]]
    assert abs(vk_axis(F1, x, kp, rule) - vk_axis(F1, x23, kp, rule)) < 1e-13
    # swapping ell with j moves the distinguished factor to axis j
    x12 = x[[1, 0, 2]]
    F2 = AxisFunction(ell=2, profile=np.exp)
    assert abs(vk_axis(F1, x12, kp, rule) - vk_axis(F2, x, kp, rule)) < 1e-13


def test_positivity_on_nonnegative_profiles():
    kp = KappaParams(3, Fraction(1, 2))
    rule = build_rule(3, 0.5, 24)
    rng = np.random.default_rng(23)
    F = AxisFunction(ell=1, profile=lambda s: (s - 0.2) ** 2)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=3)
        assert vk_axis(F, x, kp, rule) >= -1e-13


def test_d2_generic_reduces_to_axis_path():
    kp = KappaParams(2, Fraction(3, 2))
    rule = build_rule(2, 1.5, 32)
    rng = np.random.default_rng(24)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        got = vk_d2_generic(lambda u, v: np.cos(u), x, kp, rule)
        want = vk_axis(AxisFunction(ell=1, profile=np.cos), x, kp, rule)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        # the symmetric linear function is fixed by V
        s = vk_d2_generic(lambda u, v: u + v, x, kp, rule)
        assert abs(s - (x[0] + x[1])) < 1e-12
        assert abs(vk_d2_generic(lambda u, v: np.ones_like(u), x, kp, rule) - 1) < 1e-13
    with pytest.raises(ValueError):
        vk_d2_generic(lambda u, v: u, np.zeros(3), KappaParams(3, 1), rule)


def test_d2_poly_exact_matches_quadrature():
    kp = KappaParams(2, Fraction(1, 2))
    rule = build_rule(2, 0.5, 32)
    p = Polynomial(2, {(3, 2): Fraction(2, 3), (1, 0): Fraction(-1, 2),
                       (0, 4): Fraction(1, 7)})
    img = vk_d2_poly_exact(p, kp)
    rng = np.random.default_rng(25)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        want = vk_d2_generic(lambda u, v: p(np.stack([u, v], axis=-1)), x, kp, rule)
        assert abs(float(img(x)) - want) <= 1e-10 * max(1.0, abs(want))
    # on single-variable monomials it reduces to the axis formula
    mono = Polynomial(2, {(4, 0): Fraction(1)})
    assert vk_d2_poly_exact(mono, kp) == vk_monomial_exact(4, 1, kp)


def test_z2d_moments_and_identity():
    # first moment of the one-variable weight is 1/(2 kappa + 1)
    for kappa in (0.8, 2.0):
        got = vk_z2d(lambda P: P[:, 0], np.array([1.0]), [kappa])
        assert abs(got - 1 / (2 * kappa + 1)) < 1e-12
    # kappa = 0 collapses to the identity
    assert abs(vk_z2d(lambda P: P[:, 0] ** 3, np.array([0.7]), [0.0]) - 0.7 ** 3) < 1e-15
    # product functions factor across axes
    got = vk_z2d(lambda P: P[:, 0] * P[:, 1], np.array([0.5, -0.4]), [1.0, 2.0])
    want = 0.5 * (-0.4) / (3 * 5)
    assert abs(got - want) < 1e-13
    with pytest.raises(ValueError):
        vk_z2d(lambda P: P[:, 0], np.array([1.0, 2.0]), [1.0])
    with pytest.raises(ValueError):
        vk_z2d(lambda P: P[:, 0], np.array([1.0]), [-0.5])


def test_sphere_average_identity():
    kp = KappaParams(3, 1)
    sphere = build_sphere_rule(3, 24)
    lam = float(kp.lambda_kappa)
    lhs, rhs = vk_sphere_average(lambda t: np.ones_like(t), np.array([0, 1.0, 0]), kp, sphere)
    assert abs(lhs - 1) < 1e-10 and abs(rhs - 1) < 1e-12
    lhs, rhs = vk_sphere_average(lambda t: t ** 2, np.array([1.0, 0, 0]), kp, sphere)
    assert abs(rhs - 1 / (2 * lam + 2)) < 1e-12
    assert abs(lhs - rhs) < 1e-8
    lhs, rhs = vk_sphere_average(lambda t: t, np.array([1.0, 0, 0]), kp, sphere)
    assert abs(lhs) < 1e-10 and abs(rhs) < 1e-14
    with pytest.raises(ValueError):
        vk_sphere_average(lambda t: t, np.array([0.5, 0.5, 0.0]), kp, sphere)
