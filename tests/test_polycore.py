"""Exact polynomial arithmetic and Dunkl operators, checked against sympy
and against a per-term dict loop.

sympy implements the difference quotients by generic rational-function
cancellation, a completely different mechanism from the term-wise
telescoping used in the package, so agreement is a real oracle.  The dict
loop (`accumulate`) is the Python-int reference for the package's array
core: same arithmetic, so results must be equal, not close."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsym.polycore import (
    KappaParams,
    Polynomial,
    compositions,
    divided_difference,
    dunkl_apply,
    dunkl_laplacian,
    laplacian_sums,
    partial_derivative,
    transposition_action,
)

X = sp.symbols("x1:6")


def to_sympy(p: Polynomial):
    xs = X[: p.dim]
    return sp.expand(sp.Add(*[
        sp.Rational(c.numerator, c.denominator)
        * sp.Mul(*[x ** e for x, e in zip(xs, mono)])
        for mono, c in p.terms.items()
    ]))


def sympy_dunkl(expr, dim, i, kappa):
    """Dunkl operator straight from the definition, via sympy cancel."""
    xs = X[:dim]
    out = sp.diff(expr, xs[i - 1])
    for j in range(dim):
        if j != i - 1:
            swapped = expr.subs(
                {xs[i - 1]: xs[j], xs[j]: xs[i - 1]}, simultaneous=True)
            out += kappa * sp.cancel((expr - swapped) / (xs[i - 1] - xs[j]))
    return sp.expand(out)


def random_poly(rng, dim, max_degree, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=dim))
        if sum(mono) > max_degree:
            continue
        terms[mono] = Fraction(int(rng.integers(1, 10)) * int(rng.choice([-1, 1])),
                               int(rng.integers(1, 7)))
    if not terms:
        terms[(0,) * dim] = Fraction(1)
    return Polynomial(dim, terms)


x1sq = Polynomial(2, {(2, 0): Fraction(1)})
x1 = Polynomial(2, {(1, 0): Fraction(1)})


def test_partial_derivative_examples():
    assert partial_derivative(x1sq, 1) == Polynomial(2, {(1, 0): Fraction(2)})
    assert partial_derivative(Polynomial.constant(2, Fraction(7)), 1) == Polynomial.zero(2)
    p = Polynomial(3, {(1, 1, 1): Fraction(1)})
    assert partial_derivative(p, 2) == Polynomial(3, {(1, 0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        partial_derivative(x1sq, 3)


def test_partial_derivative_matches_sympy():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4):
        for _ in range(5):
            p = random_poly(rng, dim, 6)
            i = int(rng.integers(1, dim + 1))
            got = to_sympy(partial_derivative(p, i))
            want = sp.expand(sp.diff(to_sympy(p), X[i - 1]))
            assert got == want


def test_transposition_examples():
    p = Polynomial(2, {(2, 1): Fraction(1)})      # x1^2 x2
    assert transposition_action(p, 1, 2) == Polynomial(2, {(1, 2): Fraction(1)})
    sym = Polynomial(2, {(1, 1): Fraction(3)})
    assert transposition_action(sym, 1, 2) == sym
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = random_poly(rng, 3, 5)
        assert transposition_action(transposition_action(q, 1, 3), 1, 3) == q


def test_divided_difference_examples():
    assert divided_difference(x1, 1, 2) == Polynomial.constant(2, Fraction(1))
    assert divided_difference(x1sq, 1, 2) == Polynomial(
        2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    sym = Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    assert divided_difference(sym, 1, 2) == Polynomial.zero(2)


def test_divided_difference_matches_sympy():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        for _ in range(6):
            p = random_poly(rng, dim, 6)
            got = to_sympy(divided_difference(p, 1, dim))
            expr = to_sympy(p)
            swapped = expr.subs({X[0]: X[dim - 1], X[dim - 1]: X[0]},
                                simultaneous=True)
            want = sp.expand(sp.cancel((expr - swapped) / (X[0] - X[dim - 1])))
            assert got == want


def test_dunkl_apply_hand_examples():
    kp = KappaParams(2, Fraction(1, 3))
    # D_1 x_1 = 1 + kappa
    got = dunkl_apply(x1, 1, kp)
    assert got == Polynomial.constant(2, Fraction(4, 3))
    # d=2, kappa=1: D_1 (x1^2 - x2^2) = 2 x1 + 2 (x1 + x2)
    kp1 = KappaParams(2, 1)
    p = Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
    want = Polynomial(2, {(1, 0): Fraction(4), (0, 1): Fraction(2)})
    assert dunkl_apply(p, 1, kp1) == want


def test_dunkl_apply_matches_sympy():
    rng = np.random.default_rng(4)
    for dim, kappa in ((2, Fraction(1, 2)), (3, Fraction(2, 3)), (4, Fraction(2))):
        kp = KappaParams(dim, kappa)
        for _ in range(4):
            p = random_poly(rng, dim, 5)
            i = int(rng.integers(1, dim + 1))
            got = to_sympy(dunkl_apply(p, i, kp))
            want = sympy_dunkl(to_sympy(p), dim, i,
                               sp.Rational(kappa.numerator, kappa.denominator))
            assert got == want


def test_dunkl_degree_lowering_and_kappa_zero():
    rng = np.random.default_rng(5)
    kp = KappaParams(3, Fraction(3, 4))
    kp0 = KappaParams(3, 0)
    for _ in range(5):
        mono = tuple(int(e) for e in rng.integers(0, 4, size=3))
        p = Polynomial(3, {mono: Fraction(2, 3)})
        out = dunkl_apply(p, 1, kp)
        for m in out.terms:
            assert sum(m) == max(sum(mono) - 1, 0)
        assert dunkl_apply(p, 2, kp0) == partial_derivative(p, 2)


def test_dunkl_commutativity_exact():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 4):
        kp = KappaParams(dim, Fraction(5, 7))
        for _ in range(3):
            p = random_poly(rng, dim, 6)
            i, j = 1, dim
            lhs = dunkl_apply(dunkl_apply(p, i, kp), j, kp)
            rhs = dunkl_apply(dunkl_apply(p, j, kp), i, kp)
            assert lhs == rhs


def test_dunkl_equivariance():
    # swapping axes i,j conjugates D_i into D_j
    rng = np.random.default_rng(7)
    kp = KappaParams(3, Fraction(1, 2))
    for _ in range(5):
        p = random_poly(rng, 3, 5)
        lhs = transposition_action(dunkl_apply(p, 1, kp), 1, 2)
        rhs = dunkl_apply(transposition_action(p, 1, 2), 2, kp)
        assert lhs == rhs


def test_dunkl_laplacian():
    kp = KappaParams(2, Fraction(5, 3))
    lin = Polynomial(2, {(1, 0): Fraction(2), (0, 1): Fraction(-3)})
    assert dunkl_laplacian(lin, kp) == Polynomial.zero(2)
    # x1^2 - x2^2 is h-harmonic for every kappa in d=2
    p = Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
    assert dunkl_laplacian(p, kp) == Polynomial.zero(2)
    # |x|^2 maps to a constant, equal to the sympy value
    for dim in (2, 3):
        kpd = KappaParams(dim, Fraction(1, 2))
        sq = Polynomial(dim, {tuple(2 * (i == k) for k in range(dim)): Fraction(1)
                              for i in range(dim)})
        out = dunkl_laplacian(sq, kpd)
        assert set(out.terms) <= {(0,) * dim}
        expr = to_sympy(sq)
        acc = sp.Integer(0)
        for i in range(1, dim + 1):
            acc += sympy_dunkl(sympy_dunkl(expr, dim, i, sp.Rational(1, 2)),
                               dim, i, sp.Rational(1, 2))
        assert to_sympy(out) == sp.expand(acc)
    # consistency with iterated dunkl_apply
    rng = np.random.default_rng(8)
    q = random_poly(rng, 3, 4)
    kp3 = KappaParams(3, Fraction(2))
    total = Polynomial.zero(3)
    for i in (1, 2, 3):
        total = total + dunkl_apply(dunkl_apply(q, i, kp3), i, kp3)
    assert dunkl_laplacian(q, kp3) == total


def test_kappa_params_derived_values():
    kp = KappaParams(3, 1)
    assert kp.lambda_kappa == Fraction(7, 2)
    assert kp.critical_delta == Fraction(3, 2)
    kp2 = KappaParams(2, 1)
    assert kp2.lambda_kappa == Fraction(1)
    assert kp2.critical_delta == Fraction(0)
    # c_kappa = Gamma(d kappa + 1) / (kappa Gamma(kappa)^d)
    kph = KappaParams(3, Fraction(1, 2))
    want = math.gamma(2.5) / (0.5 * math.gamma(0.5) ** 3)
    assert abs(kph.c_kappa - want) < 1e-12 * want
    # a_kappa for d=2, kappa=1 is 1/(2 pi)
    assert abs(KappaParams(2, 1).a_kappa - 1 / (2 * math.pi)) < 1e-14
    assert KappaParams(2, 0).c_kappa == 1.0
    with pytest.raises(ValueError):
        KappaParams(1, 1)
    with pytest.raises(ValueError):
        KappaParams(3, Fraction(-1, 2))


def test_kappa_from_string():
    assert KappaParams.from_string(3, "1/2").kappa == Fraction(1, 2)
    assert KappaParams.from_string(3, "0.5").kappa == Fraction(1, 2)
    assert KappaParams.from_string(2, " 5/3 ").kappa == Fraction(5, 3)
    # decimals snap to denominator <= 10^6
    assert KappaParams.from_string(2, "0.333333333333").kappa.denominator <= 10 ** 6


def test_lambda_formula_across_grid():
    for d in (2, 3, 4, 5):
        for kappa in (Fraction(1, 2), Fraction(1), Fraction(5, 3)):
            kp = KappaParams(d, kappa)
            assert kp.lambda_kappa == Fraction(math.comb(d, 2)) * kappa + Fraction(d - 2, 2)
            assert kp.critical_delta == kp.lambda_kappa - (d - 1) * kappa


def test_json_roundtrip_and_canonical_order():
    rng = np.random.default_rng(9)
    p = random_poly(rng, 3, 5)
    q = Polynomial.from_json(p.to_json())
    assert q == p
    assert p.to_json() == q.to_json()


def test_evaluation_exact_and_numeric():
    p = Polynomial(2, {(2, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3)})
    assert p([Fraction(2), Fraction(3)]) == Fraction(1)
    pts = np.array([[2.0, 3.0], [0.0, 3.0]])
    np.testing.assert_allclose(p(pts), [1.0, -1.0], atol=1e-14)


coef = st.tuples(st.integers(-6, 6).filter(lambda v: v != 0), st.integers(1, 5))
mono3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
poly3 = st.dictionaries(mono3, coef, min_size=0, max_size=4).map(
    lambda d: Polynomial(3, {m: Fraction(n, q) for m, (n, q) in d.items()}))


@settings(max_examples=60, deadline=None)
@given(poly3, poly3, poly3)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(3) == a
    assert a * Polynomial.constant(3, Fraction(1)) == a


@settings(max_examples=40, deadline=None)
@given(poly3, poly3)
def test_derivative_is_linear_and_leibniz(a, b):
    kp = KappaParams(3, 0)
    assert dunkl_apply(a + b, 2, kp) == dunkl_apply(a, 2, kp) + dunkl_apply(b, 2, kp)
    lhs = partial_derivative(a * b, 1)
    rhs = partial_derivative(a, 1) * b + a * partial_derivative(b, 1)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the array core against the per-term dict loop
# ---------------------------------------------------------------------------


def accumulate(out, terms, k, dcoef, tcoef, partners):
    """Add dcoef d/dx_k + tcoef sum_{j in partners} (1 - (k,j)) / (x_k - x_j)
    of terms into out, one term at a time (axes 0-based; cancelled entries
    stay as zeros).  For exponents a > b on axes (k, j),
    (x_k^a x_j^b - x_k^b x_j^a) / (x_k - x_j) = sum_{r<a-b} x_k^{a-1-r} x_j^{b+r}."""
    if dcoef:
        for mono, coef in terms.items():
            e = mono[k]
            if e:
                m = mono[:k] + (e - 1,) + mono[k + 1:]
                out[m] = out.get(m, 0) + dcoef * e * coef
    if tcoef:
        for j in partners:
            for mono, coef in terms.items():
                a, b = mono[k], mono[j]
                if a == b:
                    continue
                step = tcoef * coef if a > b else -tcoef * coef
                lo, hi = min(a, b), max(a, b)
                base = list(mono)
                for r in range(hi - lo):
                    base[k] = hi - 1 - r
                    base[j] = lo + r
                    m = tuple(base)
                    out[m] = out.get(m, 0) + step
    return out


def nonzero(terms):
    return {m: c for m, c in terms.items() if c}


def over(terms, scale):
    """The nonzero entries of an integer map divided by scale."""
    return {m: Fraction(c, scale) for m, c in terms.items() if c}


def reference_scaled_dunkl(terms, i, params, out=None):
    k = i - 1
    partners = [j for j in range(params.d) if j != k]
    return accumulate({} if out is None else out, terms, k, params.kappa.denominator,
                      params.kappa.numerator, partners)


def reference_scaled_laplacian(terms, params):
    out = {}
    for i in range(1, params.d + 1):
        reference_scaled_dunkl(nonzero(reference_scaled_dunkl(terms, i, params)), i, params, out)
    return nonzero(out)


CORE_KAPPAS = (0, Fraction(1, 2), Fraction(5, 3), 2, Fraction(997, 991))


@st.composite
def integer_maps(draw):
    """(d, integer-coefficient map, axis i, partner j != i), d = 2..5; the
    coefficients reach past 2^63, so both coefficient dtypes of the core run."""
    d = draw(st.integers(2, 5))
    mono = st.tuples(*[st.integers(0, 7)] * d)
    coef = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80))
    terms = draw(st.dictionaries(mono, coef, max_size=10))
    i = draw(st.integers(1, d))
    j = draw(st.integers(1, d).filter(lambda j: j != i))
    return d, terms, i, j


@settings(max_examples=150, deadline=None)
@given(integer_maps(), st.sampled_from(CORE_KAPPAS))
def test_array_core_matches_the_dict_loop(case, kappa):
    # the operators clear no denominator on an integer polynomial, so they
    # are the integer core's q D_i and q^2 Delta_kappa divided by q and q^2
    d, terms, i, j = case
    params = KappaParams(d, kappa)
    q = params.kappa.denominator
    p = Polynomial(d, terms)
    assert dunkl_apply(p, i, params).terms == over(reference_scaled_dunkl(terms, i, params), q)
    assert dunkl_laplacian(p, params).terms == over(reference_scaled_laplacian(terms, params),
                                                    q**2)
    assert partial_derivative(p, i).terms == nonzero(accumulate({}, terms, i - 1, 1, 0, ()))
    assert (divided_difference(p, i, j).terms
            == nonzero(accumulate({}, terms, i - 1, 0, 1, (j - 1,))))


def test_array_core_output_is_sorted_and_integer():
    params = KappaParams(3, Fraction(997, 991))
    out = dunkl_laplacian(Polynomial(3, {(4, 0, 3): 2**70, (1, 5, 1): -3}), params).terms
    assert list(out) == sorted(out)
    # q^2 Delta_kappa of an integer polynomial is an integer polynomial
    assert all(c and (c * 991**2).denominator == 1 for c in out.values())
    # a huge coefficient on a term the operator kills does not force the
    # int64 sums of the rest to take it
    terms = {(0, 0, 0): 2**80, (2, 1, 1): 1}
    assert (dunkl_apply(Polynomial(3, terms), 1, params).terms
            == over(reference_scaled_dunkl(terms, 1, params), 991))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_grouped_laplacian_sums_is_the_dict_loop_per_group(d):
    # several polynomials in one call, one group id each (with gaps between
    # the ids), as the h-harmonic projection applies it
    for kappa in CORE_KAPPAS:
        params = KappaParams(d, kappa)
        for n in range(9):
            exps = compositions(d, n)
            groups = np.arange(len(exps)) % 5 * 3
            coefs = 7 * np.arange(len(exps)) - 11
            got_groups, got_exps, got_coefs = laplacian_sums(exps, coefs, groups, params)
            assert np.all(np.diff(got_groups) >= 0)
            assert set(got_groups.tolist()) <= set(groups.tolist())
            for g in sorted(set(groups.tolist())):
                mine = groups == g
                want = reference_scaled_laplacian(
                    dict(zip(map(tuple, exps[mine].tolist()), coefs[mine].tolist())), params)
                got = dict(zip(map(tuple, got_exps[got_groups == g].tolist()),
                               got_coefs[got_groups == g].tolist()))
                assert got == want
                assert list(got) == sorted(got)
