"""Jacobi/Gegenbauer evaluation and Cesaro machinery.

Three oracles: scipy.special's eval_jacobi / eval_gegenbauer (independent code
path), an exact Fraction three-term recurrence for rational parameters, and
mpmath's hypergeometric jacobi at 40 digits for large degrees."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_jacobi, roots_jacobi

from dunklsym.orthopoly import (
    CesaroOrder,
    JacobiParams,
    _recurrence,
    cesaro_kernel_endpoint,
    cesaro_weight_matrix,
    cesaro_weights,
    divided_difference_rows,
    gegenbauer_eval,
    jacobi_all,
    jacobi_endpoint,
    jacobi_eval,
    jacobi_h_norm,
    jacobi_rows,
    kernel_normalizer,
    szego_bound_fit,
    zn_eval,
)

PARAM_GRID = [(-0.4, -0.4), (0.0, 0.0), (1.5, 0.0), (3.0, 1.5), (2.5, 2.5)]


def jacobi_exact(n, alpha: Fraction, beta: Fraction, t: Fraction) -> Fraction:
    """Three-term recurrence in exact rational arithmetic."""
    a, b = alpha, beta
    p_prev = Fraction(1)
    if n == 0:
        return p_prev
    p = (a + 1) + (a + b + 2) * (t - 1) / 2
    for k in range(2, n + 1):
        s = 2 * k + a + b
        c1 = 2 * k * (k + a + b) * (s - 2)
        c2 = (s - 1) * (s * (s - 2) * t + a * a - b * b)
        c3 = 2 * (k + a - 1) * (k + b - 1) * s
        p, p_prev = (c2 * p - c3 * p_prev) / c1, p
    return p


def test_jacobi_matches_exact_recurrence():
    a, b, t = Fraction(1, 2), Fraction(1, 3), Fraction(3, 7)
    jp = JacobiParams(float(a), float(b))
    for n in range(31):
        want = jacobi_exact(n, a, b, t)
        got = jacobi_eval(n, jp, float(t))
        assert abs(got - float(want)) <= 1e-13 * max(1.0, abs(float(want)))


def test_jacobi_matches_scipy():
    rng = np.random.default_rng(10)
    t = rng.uniform(-1, 1, size=25)
    for a, b in PARAM_GRID:
        jp = JacobiParams(a, b)
        P = jacobi_all(40, jp, t)
        for n in (0, 1, 2, 7, 19, 40):
            want = eval_jacobi(n, a, b, t)
            np.testing.assert_allclose(P[n], want, rtol=1e-11, atol=1e-12)


def test_jacobi_symmetry_under_reflection():
    rng = np.random.default_rng(11)
    t = rng.uniform(-1, 1, size=10)
    for n in (0, 1, 4, 9):
        lhs = jacobi_eval(n, JacobiParams(0.7, 2.2), -t)
        rhs = (-1) ** n * jacobi_eval(n, JacobiParams(2.2, 0.7), t)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_jacobi_endpoint_value():
    for n in (0, 3, 25):
        for a, b in PARAM_GRID:
            want = eval_jacobi(n, a, b, 1.0)
            assert abs(jacobi_endpoint(n, JacobiParams(a, b)) - want) <= 1e-11 * abs(want)


def test_domain_and_parameter_errors():
    jp = JacobiParams(0.0, 0.0)
    with pytest.raises(ValueError):
        jacobi_eval(3, jp, 1.5)
    with pytest.raises(ValueError):
        jacobi_all(3, jp, np.array([0.0, -1.2]))
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        CesaroOrder(-1.0)
    with pytest.raises(ValueError):
        cesaro_kernel_endpoint(-1, jp, 1.0, 0.3)


def test_jacobi_all_rows_and_longdouble():
    jp = JacobiParams(1.5, 0.5)
    t = np.linspace(-0.9, 0.9, 7)
    P = jacobi_all(12, jp, t)
    assert P.shape == (13, 7)
    for n in (0, 5, 12):
        np.testing.assert_allclose(P[n], jacobi_eval(n, jp, t), rtol=1e-13)
    Pl = jacobi_all(12, jp, t, dtype=np.longdouble)
    assert Pl.dtype == np.longdouble
    np.testing.assert_allclose(Pl.astype(float), P, rtol=1e-13)


@pytest.mark.parametrize("a, b", [(-0.5, -0.5), (3.0, 3.0), (6.5, 6.5), (1.5, 0.0),
                                  (3.0, -0.4)])
def test_jacobi_all_against_mpmath(a, b):
    # the hypergeometric 2F1 form, not a recurrence, at 40 digits.  Error
    # relative to max(1, sup |P_n|), the endpoint value since max(a, b) >=
    # -1/2: near a zero the plain relative error of any float64 route is
    # unbounded.  The symmetric pairs (the kernels' alpha = beta = lambda -
    # 1/2) stay below 5e-14; (3, -0.4) at n = 512 is the worst, 1.2e-12.
    ns = (1, 2, 7, 33, 128, 255, 400, 512)
    t = np.concatenate([[-1.0, -0.9995], np.linspace(-0.99, 0.99, 12), [0.9995, 1.0]])
    P = jacobi_all(max(ns), JacobiParams(a, b), t)
    with mpmath.workdps(40):
        for n in ns:
            sup = max(1.0, abs(float(mpmath.jacobi(n, a, b, 1))),
                      abs(float(mpmath.jacobi(n, a, b, -1))))
            want = np.array([float(mpmath.jacobi(n, a, b, ti, zeroprec=1000)) for ti in t])
            assert np.max(np.abs(P[n] - want)) <= 2e-12 * sup, n


def poch(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def test_gegenbauer_endpoint_and_linear():
    lam = Fraction(3, 2)
    for n in range(51):
        want = poch(2 * lam, n) / math.factorial(n)
        got = gegenbauer_eval(n, float(lam), 1.0)
        assert abs(got - float(want)) <= 1e-11 * float(want)
    t = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(gegenbauer_eval(1, 0.8, t), 2 * 0.8 * t, atol=1e-14)
    with pytest.raises(ValueError):
        gegenbauer_eval(2, 0.0, 0.5)


def test_gegenbauer_matches_scipy():
    rng = np.random.default_rng(12)
    t = rng.uniform(-1, 1, size=15)
    for lam in (0.5, 1.0, 2.75):
        for n in (0, 1, 3, 11, 24):
            np.testing.assert_allclose(
                gegenbauer_eval(n, lam, t), eval_gegenbauer(n, lam, t),
                rtol=1e-10, atol=1e-11)


def test_zn_values():
    t = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(zn_eval(0, 1.7, t), np.ones_like(t), atol=1e-14)
    np.testing.assert_allclose(zn_eval(1, 1.7, t), 2 * (1 + 1.7) * t, atol=1e-13)
    assert zn_eval(6, 2.0, 1.0) > 0


def test_zn_at_lambda_zero_is_twice_chebyshev():
    # d = 2 at kappa = 0: Z_n^0(cos theta) = 2 cos(n theta) for n >= 1, and 1 at n = 0
    theta = np.linspace(0.0, math.pi, 41)
    t = np.cos(theta)
    np.testing.assert_allclose(zn_eval(0, 0.0, t), np.ones_like(t), rtol=0, atol=2e-15)
    for n in range(1, 61):
        # the log-gamma normalizer and the recurrence lose a few ulps per
        # degree: 1.3e-13 at n = 50
        atol = 2e-15 if n <= 3 else 3e-13
        np.testing.assert_allclose(zn_eval(n, 0.0, t), 2 * np.cos(n * theta), rtol=0, atol=atol)


def test_h_norm_closed_form_vs_quadrature():
    assert abs(jacobi_h_norm(0, JacobiParams(0.0, 0.0)) - 2.0) < 1e-14
    for a, b in ((0.0, 0.0), (1.5, 0.5), (3.0, 3.0)):
        jp = JacobiParams(a, b)
        x, w = roots_jacobi(70, a, b)
        P = jacobi_all(60, jp, x)
        for n in (0, 1, 13, 37, 60):
            quad = float(w @ P[n] ** 2)
            closed = jacobi_h_norm(n, jp)
            assert abs(quad - closed) <= 1e-10 * closed


def test_kernel_normalizer_legendre():
    norm = kernel_normalizer(8, JacobiParams(0.0, 0.0))
    np.testing.assert_allclose(norm, 2 * np.arange(9) + 1, rtol=1e-12)


def test_cesaro_weights_identities():
    np.testing.assert_allclose(cesaro_weights(7, 0.0), np.ones(8), atol=1e-14)
    for delta in (0.5, 1.5, 3.0):
        w = cesaro_weights(12, delta)
        assert abs(w[0] - 1.0) < 1e-13
        assert np.all(np.diff(w) < 0)
    # averaging partial sums with binomial weights equals applying the
    # projection weights directly (summation by parts)
    rng = np.random.default_rng(13)
    p = rng.normal(size=13)
    n, delta = 12, 1.5

    def lbinom(x, k):
        return math.lgamma(x + 1) - math.lgamma(k + 1) - math.lgamma(x - k + 1)

    partial = np.cumsum(p)
    avg = sum(
        math.exp(lbinom(n - j + delta - 1, n - j) - lbinom(n + delta, n)) * partial[j]
        for j in range(n + 1))
    direct = float(cesaro_weights(n, delta) @ p)
    assert abs(avg - direct) <= 1e-12 * max(1.0, abs(direct))


def lgamma_loop_weights(n, delta):
    """The per-degree log-gamma loop the Cesaro weights were first built by."""

    def lbinom(x, k):
        return math.lgamma(x + 1) - math.lgamma(k + 1) - math.lgamma(x - k + 1)

    top = lbinom(n + delta, n)
    return np.exp([lbinom(n - k + delta, n - k) - top for k in range(n + 1)])


@pytest.mark.parametrize("n_max", [0, 1, 7, 64, 512])
@pytest.mark.parametrize("delta", [0.0, 0.5, 1.37, 2.0, 7.5])
def test_cesaro_weight_matrix_rows_are_the_lgamma_loop(n_max, delta):
    # one log-binomial vector gives every row bit for bit, and the weights
    # a sweep multiplies by are exactly those of cesaro_weights
    W = cesaro_weight_matrix(n_max, delta)
    assert W.shape == (n_max + 1, n_max + 1)
    for n in range(n_max + 1):
        want = lgamma_loop_weights(n, delta)
        assert np.array_equal(W[n, : n + 1], want), n
        assert np.array_equal(cesaro_weights(n, delta), want), n
        assert not W[n, n + 1:].any()


def test_cesaro_kernel_endpoint_examples():
    jp = JacobiParams(0.0, 0.0)
    assert abs(cesaro_kernel_endpoint(0, jp, 1.5, 0.3) - 1.0) < 1e-14
    # delta = 0 partial-sum kernel vs a directly assembled sum (normalized so
    # that the degree-0 term is 1, i.e. multiplied by h_0)
    t = np.linspace(-1, 1, 11)
    h0 = jacobi_h_norm(0, jp)
    want = sum(
        h0 * jacobi_eval(k, jp, t) * jacobi_endpoint(k, jp) / jacobi_h_norm(k, jp)
        for k in range(3))
    got = cesaro_kernel_endpoint(2, jp, 0.0, t)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_cesaro_kernel_endpoint_matches_stacked_rows():
    # the kernel sums the Jacobi rows as they come; the stacked rows and one
    # tensordot are the reference, within rounding of the terms' magnitudes
    jp = JacobiParams(1.5, 1.5)
    t = np.linspace(-1.0, 1.0, 101)
    for n in (0, 5, 60, 200):
        coef = cesaro_weights(n, 1.5) * kernel_normalizer(n, jp)
        P = jacobi_all(n, jp, t)
        scale = np.tensordot(np.abs(coef), np.abs(P), axes=1)
        got = cesaro_kernel_endpoint(n, jp, 1.5, t)
        assert np.all(np.abs(got - np.tensordot(coef, P, axes=1)) <= 1e-14 * scale)


def test_cesaro_kernel_large_degree_finite():
    jp = JacobiParams(2.0, 2.0)
    vals = cesaro_kernel_endpoint(2000, jp, 1.0, np.linspace(-1, 1, 5))
    assert np.all(np.isfinite(vals))


def jacobi_derivative_shift(n: int, jp: JacobiParams) -> float:
    """Max residual of P_n^{(a+1,b+1)}(t) = (2/(n+a+b+2)) d/dt P_{n+1}^{(a,b)}(t)
    on an interior grid, the derivative by an 8th-order central stencil."""
    grid = np.linspace(-0.7, 0.7, 29)
    h = 2e-3
    offsets = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
    coefs = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
    pts = grid[None, :] + offsets[:, None] * h
    vals = jacobi_eval(n + 1, jp, pts.ravel()).reshape(pts.shape)
    deriv = (coefs[:, None] * vals).sum(axis=0) / h
    lhs = jacobi_eval(n, JacobiParams(jp.alpha + 1, jp.beta + 1), grid)
    rhs = 2.0 / (n + jp.alpha + jp.beta + 2) * deriv
    return float(np.max(np.abs(lhs - rhs)))


def test_derivative_shift_residual():
    for a, b in ((-0.4, -0.4), (0.0, 0.0), (1.5, 3.0), (3.0, 0.0)):
        jp = JacobiParams(a, b)
        for n in (0, 1, 5, 17, 40):
            assert jacobi_derivative_shift(n, jp) <= 1e-8
    # parameters of the kind the kernel bounds use: alpha = lambda + delta + 1/2
    assert jacobi_derivative_shift(24, JacobiParams(5.5, 3.0)) <= 1e-8


def divided_difference_table(values, z):
    """[z_0, ..., z_N] f from the values f(z_i) at distinct points, by the
    textbook triangular table."""
    table = list(values)
    for level in range(1, len(z)):
        table = [(table[i + 1] - table[i]) / (z[i + level] - z[i])
                 for i in range(len(table) - 1)]
    return table[0]


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.5, -0.5), (2.5, 1.0)])
def test_divided_difference_rows_distinct_and_confluent_points(a, b):
    jp = JacobiParams(a, b)
    n_max = 20
    distinct = np.array([[-0.9, -0.4, 0.1, 0.7], [0.95, 0.5, -0.2, -0.8]])
    confluent = np.array([[0.3] * 4, [-1.0] * 4])
    got_d = np.stack(list(divided_difference_rows(n_max, jp, distinct)))
    got_c = np.stack(list(divided_difference_rows(n_max, jp, confluent)))
    for m in range(n_max + 1):
        for row, z in enumerate(distinct):
            want = divided_difference_table(eval_jacobi(m, a, b, z), z)
            assert abs(got_d[m, row] - want) <= 1e-11 * max(1.0, abs(want))
        # one point four times over: [z] P_m is the third derivative over 3!,
        # which the derivative shift gives in closed form
        rise = (m + a + b + 1) * (m + a + b + 2) * (m + a + b + 3) / 8
        for row, z in enumerate(confluent):
            want = rise * eval_jacobi(m - 3, a + 3, b + 3, z[0]) / 6 if m >= 3 else 0.0
            assert abs(got_c[m, row] - want) <= 1e-11 * max(1.0, abs(want))
    # a single point is the plain evaluation
    t = np.linspace(-1, 1, 9)
    one = np.stack(list(divided_difference_rows(n_max, jp, t[:, None])))
    np.testing.assert_allclose(one, jacobi_all(n_max, jp, t), rtol=1e-13, atol=1e-13)


def strided_divided_difference_rows(n_max, jp, z):
    """The recurrence on (count, N + 1) arrays with a fresh temporary per
    step, as it was before the in-place buffers."""
    prev = cur = np.zeros_like(z)
    cur[:, 0] = 1.0
    yield cur[:, -1]
    for c1, c2, c3, c4 in _recurrence(n_max, jp):
        zv = z * cur
        zv[:, 1:] += cur[:, :-1]
        prev, cur = cur, (c2 * cur + c3 * zv - c4 * prev) / c1
        yield cur[:, -1]


@pytest.mark.parametrize("a, N", [(0.0, 0), (-0.5, 3), (1.0, 4), (2.5, 8)])
def test_divided_difference_rows_are_bit_identical_to_strided_loop(a, N):
    jp = JacobiParams(a, a)
    z = np.random.default_rng(17).uniform(-1, 1, size=(40, N + 1))
    z[:, -1] = z[:, 0]  # a repeated point
    rows = list(divided_difference_rows(30, jp, z))
    want = np.stack(list(strided_divided_difference_rows(30, jp, z)))
    assert np.array_equal(np.stack(rows), want)
    # each yielded row is its own array, not a view of a reused buffer
    assert all(row.base is None for row in rows)


def test_szego_fit_stability():
    for a, b in ((0.0, 0.0), (1.5, 1.5), (3.0, 1.0)):
        jp = JacobiParams(a, b)
        lo = szego_bound_fit(jp, range(50, 201, 10))
        hi = szego_bound_fit(jp, range(100, 401, 20))
        assert 0 < lo["fitted_c"] < math.inf
        ratio = hi["fitted_c"] / lo["fitted_c"]
        assert 0.5 <= ratio <= 2.0
    fit = szego_bound_fit(JacobiParams(2.5, 2.5), [64, 128])
    assert set(fit) == {"fitted_c", "per_n"} and len(fit["per_n"]) == 2


def test_jacobi_rows_are_the_rows_of_jacobi_all():
    jp = JacobiParams(1.5, 0.5)
    t = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    rows = list(jacobi_rows(9, jp, t))
    assert len(rows) == 10
    assert np.array_equal(np.stack(rows), jacobi_all(9, jp, t))
    assert [r.shape for r in jacobi_rows(0, jp, t)] == [(3, 4)]


def test_normalizer_at_alpha_plus_beta_plus_one_zero():
    # Chebyshev weight: h_0 = pi in the limit; P_k = P_k(1) T_k and
    # h_k / h_0 = P_k(1)^2 / 2, so the degree-k kernel is 2 T_k(t)
    jp = JacobiParams(-0.5, -0.5)
    assert abs(jacobi_h_norm(0, jp) - math.pi) < 1e-14
    t = np.linspace(-1.0, 1.0, 7)
    for k, coef in enumerate(kernel_normalizer(6, jp)):
        if k:
            np.testing.assert_allclose(
                coef * jacobi_eval(k, jp, t), 2 * np.cos(k * np.arccos(t)), atol=1e-13)
    # h_0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2) below a + b + 1 = 0 too
    want = 2 ** -0.4 * math.gamma(0.3) ** 2 / math.gamma(0.6)
    assert abs(jacobi_h_norm(0, JacobiParams(-0.7, -0.7)) - want) < 1e-13 * want
