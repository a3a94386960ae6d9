"""Generalized Bessel functions: the classical J building block against
mpmath, and the d=2 closed form / d>=3 recursion against the defining
simplex integrals."""

import cmath
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dunklsym.bessel import (
    ROUTES,
    RULE_FREE,
    bessel_k,
    bessel_k2_closed,
    bessel_k2_direct,
    bessel_recursive,
    classical_bessel_j,
    closed_form_report,
    dunkl_exp_axis,
    route_refusal,
)
from dunklsym import intertwine, simplexquad
from dunklsym.intertwine import AxisFunction, exponential_rule, vk_axis
from dunklsym.polycore import KappaParams
from dunklsym.simplexquad import CHUNK_ELEMENTS, build_rule, exponential_order, integrate

KAPPAS2 = (0.5, 1.0, 1.5)
KAPPAS3 = (0.5, 1.0)


def kp(d, kappa):
    return KappaParams(d, Fraction(kappa))


def test_classical_j_against_mpmath():
    # 40-digit mpmath oracle out to z = 1e7, where a float64 series or
    # Poisson integral loses everything at nu = 10 or 20; error relative to
    # the local oscillation amplitude sqrt(2/(pi z)), because at a zero of J
    # no finite-precision method has small plain relative error.  Every
    # order is also sampled just inside and outside each branch border:
    # z^2 = 4(nu + 1) (series) and z = max(50, 2 nu^2) (Hankel expansion)
    z = np.concatenate([np.linspace(0.0, 20.0, 41), np.geomspace(20.0, 400.0, 40)[1:],
                        np.geomspace(400.0, 1e7, 25)[1:]])
    with mpmath.workdps(40):
        for nu in (-0.5, -1 / 6, 0.0, 1 / 6, 0.5, 1.5, 4.0, 6.0, 10.0, 20.0, 35.5):
            borders = [2 * math.sqrt(nu + 1), max(50.0, 2 * nu * nu)]
            for zi in [*z, *(b * f for b in borders for f in (1 - 1e-9, 1 + 1e-9))]:
                if zi == 0 and nu < 0:
                    continue  # J_nu(0) is infinite
                want = float(mpmath.besselj(nu, zi))
                floor = math.sqrt(2 / (math.pi * max(zi, 2.0)))
                got = classical_bessel_j(nu, zi)
                assert abs(got - want) <= 1e-12 * max(abs(want), floor), (nu, zi)


def test_classical_j_half_closed_form():
    for z in (0.5, 1.0, 2.0, 5.0):
        want = math.sqrt(2 / (math.pi * z)) * math.sin(z)
        assert abs(classical_bessel_j(0.5, z) - want) <= 1e-12 * abs(want)


def test_classical_j_at_zero_and_errors():
    assert classical_bessel_j(0.0, 0.0) == 1.0
    assert classical_bessel_j(1.5, 0.0) == 0.0
    assert classical_bessel_j(3, -2.0) == -classical_bessel_j(3, 2.0)
    assert classical_bessel_j(4, -60.0) == classical_bessel_j(4, 60.0)
    assert classical_bessel_j(-0.5, 0.0) == math.inf
    with pytest.raises(ValueError):
        classical_bessel_j(-0.6, 1.0)
    with pytest.raises(ValueError):
        classical_bessel_j(0.5, -1.0)


def test_k_at_zero_is_one_on_every_path():
    for k in KAPPAS2:
        assert abs(bessel_k(kp(2, k), np.zeros(2), path="direct") - 1) < 1e-10
        assert abs(bessel_k(kp(2, k), np.zeros(2), path="coset") - 1) < 1e-10
        assert abs(bessel_k2_closed(k, np.array([0.4, -0.2]), np.zeros(2)) - 1) < 1e-10
        assert abs(bessel_k2_direct(k, np.array([0.4, -0.2]), np.zeros(2)) - 1) < 1e-10
    for k in KAPPAS3:
        assert abs(bessel_k(kp(3, k), np.zeros(3), path="direct") - 1) < 1e-10
        assert abs(bessel_recursive(kp(3, k), np.zeros(3)) - 1) < 1e-10
    assert abs(bessel_k(kp(2, 0), np.zeros(2)) - 1) < 1e-15


def test_k_axis_independence_and_path_agreement():
    rng = np.random.default_rng(30)
    params = kp(3, 1)
    for _ in range(5):
        y = rng.uniform(-1, 1, size=3)
        coset = [bessel_k(params, y, path="coset", ell=ell, imaginary=True)
                 for ell in (1, 2, 3)]
        assert abs(coset[0] - coset[1]) < 1e-12
        assert abs(coset[0] - coset[2]) < 1e-12
        direct = bessel_k(params, y, path="direct", imaginary=True)
        assert abs(direct - coset[0]) < 1e-10
    with pytest.raises(ValueError):
        bessel_k(params, np.zeros(3), path="average")


@pytest.mark.parametrize("imaginary", [True, False], ids=["imaginary", "real"])
@pytest.mark.parametrize("kappa", [0, Fraction(1, 2), 1], ids=str)
@pytest.mark.parametrize("d", [2, 3])
def test_bessel_k_runs_every_route_where_route_refusal_allows(monkeypatch, d, kappa, imaginary):
    params = KappaParams(d, kappa)
    y = np.array([0.4, 0.1, -0.3])[:d]
    runs = {"direct", "coset"}
    if d == 2 and imaginary:
        runs.add("closed")
    if d >= 3 and kappa > 0:
        runs.add("recursive")
    assert {r for r in ROUTES if route_refusal(r, params, imaginary) is None} == runs
    assert set(RULE_FREE) <= set(ROUTES)
    swapped = np.tile(y, (d, 1))  # row j is y with entries 1 and j + 1 swapped
    for j in range(d):
        swapped[j, [0, j]] = y[[j, 0]]
    own = {
        "direct": lambda: direct_on_rule(
            params, y, exponential_order(float(np.ptp(y)) / 2, imaginary), imaginary),
        "coset": lambda: complex(np.mean(dunkl_exp_axis(1, swapped, params, imaginary))),
        "closed": lambda: bessel_k2_closed(kappa, np.array([1.0, 0.0]), y),
        "recursive": lambda: bessel_recursive(params, y, imaginary=imaginary),
    }
    for route in sorted(runs):
        assert bessel_k(params, y, path=route, imaginary=imaginary) == complex(own[route]())

    def no_rule(*args):
        raise AssertionError("a rule was built for a refused route")

    monkeypatch.setattr(intertwine, "build_rule", no_rule)
    for route in sorted(set(ROUTES) - runs):
        with pytest.raises(ValueError, match=re.escape(route_refusal(route, params, imaginary))):
            bessel_k(params, y, path=route, imaginary=imaginary)


def test_k_permutation_invariance_and_boundedness():
    rng = np.random.default_rng(31)
    params = kp(3, 0.5)
    for _ in range(5):
        y = rng.uniform(-2, 2, size=3)
        a = bessel_k(params, y, imaginary=True)
        b = bessel_k(params, y[[2, 0, 1]], imaginary=True)
        assert abs(a - b) < 1e-10
        assert abs(a) <= 1.0 + 1e-12


def test_exp_axis_is_intertwined_exponential():
    params = KappaParams(3, 1)
    rng = np.random.default_rng(32)
    for ell in (1, 3):
        y = rng.uniform(-1, 1, size=3)
        got = dunkl_exp_axis(ell, y, params)
        rule = exponential_rule(params, y, imaginary=False)
        want = vk_axis(AxisFunction(ell=ell, profile=np.exp), y, params, rule)
        assert abs(got - want) < 1e-13
        assert abs(dunkl_exp_axis(ell, y, params, imaginary=True)) <= 1.0 + 1e-12
        assert abs(dunkl_exp_axis(ell, np.zeros(3), params) - 1) < 1e-12
        # rows of a batch are the single-point values
        batch = dunkl_exp_axis(ell, np.stack([y, np.zeros(3)]), params, imaginary=True)
        assert batch.shape == (2,)
        assert abs(batch[0] - dunkl_exp_axis(ell, y, params, imaginary=True)) < 1e-13
    assert abs(dunkl_exp_axis(2, np.array([0.0, 0.7, 0.0]), KappaParams(3, 0))
               - math.exp(0.7)) < 1e-15


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(33)
    for k in KAPPAS2:
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            y = rng.uniform(-1, 1, size=2)
            dev = abs(bessel_k2_closed(k, x, y) - bessel_k2_direct(k, x, y))
            assert dev <= 1e-9


def test_closed_form_small_argument_branch():
    # (x1-x2)(y1-y2) below the series cutoff
    x = np.array([0.5 + 5e-4, 0.5 - 5e-4])
    y = np.array([0.9, 0.4])
    for k in KAPPAS2:
        dev = abs(bessel_k2_closed(k, x, y) - bessel_k2_direct(k, x, y))
        assert dev <= 1e-10


def test_closed_form_phase_free_case_is_real():
    # x2 = -x1 and y2 = -y1 kill the phase factor
    x = np.array([0.6, -0.6])
    y = np.array([0.8, -0.8])
    val = bessel_k2_closed(1.5, x, y)
    assert val.imag == 0.0
    direct = bessel_k2_direct(1.5, x, y)
    assert abs(direct.imag) < 1e-12
    assert abs(val.real - direct.real) < 1e-10


def test_recursion_matches_direct():
    rng = np.random.default_rng(34)
    samples = [rng.uniform(-1, 1, size=3) for _ in range(5)]
    samples.append(np.array([0.3, -0.6, 0.0]))  # vanishing last component
    for k in KAPPAS3:
        for y in samples:
            got = bessel_recursive(kp(3, k), y)
            want = bessel_k(kp(3, k), y, path="direct", imaginary=True)
            assert abs(got - want) <= 1e-9


def test_recursion_argument_errors():
    with pytest.raises(ValueError):
        bessel_recursive(kp(2, 1), np.zeros(2))
    with pytest.raises(ValueError):
        bessel_recursive(kp(3, 0), np.zeros(3))
    with pytest.raises(ValueError):
        bessel_recursive(kp(3, 1), np.zeros(2))  # y must have d entries


def test_closed_form_report_structure():
    rep = closed_form_report(1.5, n_samples=10)
    assert rep["adopted"] == "gamma_only_base4"
    assert rep["gamma_only_base4"]["zero_argument_limit"] == 1.0
    assert rep["gamma_only_base4"]["max_abs_dev_vs_quadrature"] <= 1e-9
    alt = math.sqrt(math.pi) * 2.0 ** (-1.0)
    assert abs(rep["sqrt_pi_base2"]["constant_ratio_to_adopted"] - alt) < 1e-15


def test_real_argument_paths_agree():
    rng = np.random.default_rng(35)
    y = rng.uniform(-1, 1, size=2)
    a = bessel_k(kp(2, 1), y, path="direct", imaginary=False)
    b = bessel_k(kp(2, 1), y, path="coset", imaginary=False)
    assert abs(a - b) < 1e-12
    # real-argument K is an average of exponentials, hence real and positive
    assert a.imag == 0.0 and a.real > 0.0


def direct_on_rule(params, y, order, imaginary):
    """The direct route's integral on a rule of the given per-axis order."""
    phase = 1j if imaginary else 1.0
    rule = build_rule(params.d, params.kappa_float, order)
    return params.c_kappa / params.d * integrate(rule, lambda T: np.exp(phase * (T @ y)))


@pytest.mark.parametrize("imaginary", [True, False], ids=["imaginary", "real"])
@pytest.mark.parametrize("kappa", [Fraction(1, 2), 1, Fraction(3, 2)], ids=str)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_derived_order_matches_twice_the_order(d, kappa, imaginary):
    # the order exponential_order derives from half the range rho of y
    # against a rule of twice that order, rho from 0 to 45.  A real
    # exponential with rho >= 20 sits in a corner of the simplex, so this
    # also holds the Gauss-Jacobi weights next to an endpoint
    params = KappaParams(d, kappa)
    shape = np.array([1.0, -1.0, 0.3, -0.6])[:d]
    for rho in (0.0, 0.5, 1.0, 5.0, 20.0, 45.0):
        y = rho * shape + 0.25
        got = bessel_k(params, y, imaginary=imaginary)
        m = exponential_order(rho, imaginary)
        want = direct_on_rule(params, y, 2 * m, imaginary)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (rho, m)


def test_large_argument_matches_a_high_order_rule():
    # at the former fixed order 48 the direct route gave -0.0118 here,
    # fifty times the true |K| = 2.4e-4, and exited 0
    params = KappaParams(3, 1)
    y = np.array([100.0, -100.0, 30.0])
    want = direct_on_rule(params, y, 300, imaginary=True)
    assert 2e-4 < abs(want) < 3e-4
    for value in (bessel_k(params, y, path="direct", imaginary=True),
                  bessel_k(params, y, path="coset", imaginary=True),
                  bessel_recursive(params, y)):
        assert abs(value - want) <= 1e-13


def test_oversized_or_non_finite_argument_is_refused_before_any_rule(monkeypatch):
    def no_rule(*args):
        raise AssertionError("a rule was built for a refused argument")

    # build_rule holds the node budget, so the patch sits one level below it
    simplexquad._RULES.clear()  # no kept rule stands in for a built one
    monkeypatch.setattr(simplexquad, "gauss_jacobi01", no_rule)
    params = KappaParams(4, 1)
    big = np.array([300.0, -300.0, 0.0, 0.0])  # per-axis order 221: 221^3 nodes
    assert exponential_order(300.0, True) ** 3 > CHUNK_ELEMENTS
    with pytest.raises(ValueError, match="nodes"):
        exponential_rule(params, big, imaginary=True)
    for path in ("direct", "coset"):
        with pytest.raises(ValueError, match="nodes"):
            bessel_k(params, big, path=path, imaginary=True)
    for bad in (np.nan, np.inf):
        y = np.array([bad, 0.0, 0.0, 0.0])
        for kappa in (0, 1):
            with pytest.raises(ValueError, match="finite"):
                exponential_rule(KappaParams(4, kappa), y, imaginary=True)
        with pytest.raises(ValueError, match="finite"):
            bessel_k(params, y, path="coset")
        with pytest.raises(ValueError, match="finite"):
            bessel_recursive(params, y)
