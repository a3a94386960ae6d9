"""Jacobi and Gegenbauer polynomials, norms, and endpoint Cesaro kernels.

Everything here is classical one-variable machinery: the three-term Jacobi
recurrence, the Gegenbauer polynomials through their Jacobi relation, the
kernel normalization Z_n, squared norms, and the Cesaro-averaged kernel
k_n^delta(t, 1) whose binomial weights are evaluated through log-gamma so
degrees in the thousands stay finite.

Conventions.  jacobi_h_norm returns the plain squared norm
int_{-1}^{1} P_n(t)^2 (1-t)^alpha (1+t)^beta dt.  Reproducing kernels divide
instead by the mass-normalized quantity h_n / h_0, which is what makes the
degree-0 kernel identically 1; see kernel_normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents for (1-t)^alpha (1+t)^beta on [-1, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (-1 < self.alpha < math.inf and -1 < self.beta < math.inf):  # also refuses NaN
            raise ValueError("Jacobi parameters must both be finite and exceed -1")


@dataclass(frozen=True)
class CesaroOrder:
    """Finite Cesaro smoothing order delta > -1."""

    delta: float

    def __post_init__(self):
        if not -1 < self.delta < math.inf:  # also refuses NaN
            raise ValueError("Cesaro order must be finite and exceed -1")


def _as_delta(delta) -> float:
    return (delta if isinstance(delta, CesaroOrder) else CesaroOrder(float(delta))).delta


def _on_domain(t, dtype=float) -> np.ndarray:
    """t as an array of at least one dimension; ValueError outside [-1, 1]."""
    t = np.atleast_1d(np.asarray(t, dtype=dtype))
    if t.size and (np.min(t) < -1 - 1e-12 or np.max(t) > 1 + 1e-12):
        raise ValueError("argument outside [-1, 1]")
    return t


def _recurrence(n_max: int, jp: JacobiParams):
    """Yield (c1, c2, c3, c4) with P_{n+1} = ((c2 + c3 t) P_n - c4 P_{n-1}) / c1
    for n = 0, ..., n_max - 1; the n = 0 step has c4 = 0 and needs no P_{-1}."""
    a, b = jp.alpha, jp.beta
    if n_max == 0:
        return
    yield 2, a - b, a + b + 2, 0
    for n in range(1, n_max):
        c1 = 2 * (n + 1) * (n + a + b + 1) * (2 * n + a + b)
        c2 = (2 * n + a + b + 1) * (a * a - b * b)
        c3 = (2 * n + a + b) * (2 * n + a + b + 1) * (2 * n + a + b + 2)
        c4 = 2 * (n + a) * (n + b) * (2 * n + a + b + 2)
        yield c1, c2, c3, c4


def jacobi_rows(n_max: int, jp: JacobiParams, t: np.ndarray):
    """Yield P_0(t), ..., P_{n_max}(t) by the forward three-term recurrence,
    elementwise over an array t; only the last two rows are kept alive."""
    steps = _recurrence(n_max, jp)
    prev = np.ones_like(t)
    yield prev
    for c1, c2, c3, _ in islice(steps, 1):  # P_1 without the products by P_0 = 1
        cur = (c2 + c3 * t) / c1
        yield cur
    for c1, c2, c3, c4 in steps:
        prev, cur = cur, ((c2 + c3 * t) * cur - c4 * prev) / c1
        yield cur


def divided_difference_rows(n_max: int, jp: JacobiParams, z: np.ndarray):
    """Yield [z_0, ..., z_N] P_m for m = 0, ..., n_max, one value per row of
    the (count, N + 1) array z of divided-difference points.

    Opitz's formula gives [z] f = f(Z)[N, 0] for the lower bidiagonal Z with
    z on the diagonal and ones below it, so the three-term recurrence runs
    on the columns P_m(Z) e_0 and multiplying by t becomes multiplying by Z.
    Repeated points need no special case.  The columns live in three
    contiguous (N + 1, count) buffers, updated in place and rotated, so a
    step allocates nothing but the copy of the row it yields.  A step whose
    c2 is 0, as every step of a symmetric (alpha = beta) recurrence is,
    skips that term; the others add it last, which by the commutativity of
    IEEE addition gives the bits of adding it first."""
    zt = np.ascontiguousarray(z.T)
    prev, cur, new = (np.zeros_like(zt) for _ in range(3))
    cur[0] = 1.0
    yield cur[-1].copy()
    for c1, c2, c3, c4 in _recurrence(n_max, jp):
        np.multiply(zt, cur, out=new)  # Z P_m(Z) e_0
        new[1:] += cur[:-1]
        new *= c3
        if c2:
            new += c2 * cur
        prev *= c4
        new -= prev
        new /= c1
        prev, cur, new = cur, new, prev
        yield cur[-1].copy()


def jacobi_all(n_max: int, jp: JacobiParams, t, dtype=float) -> np.ndarray:
    """P_k^{(alpha,beta)}(t) for every k <= n_max, stacked along axis 0.

    The rows of jacobi_rows, vectorized over t.  Stable on [-1, 1]
    for the degree range used here (relative error ~1e-13 up to n = 512).
    dtype np.longdouble buys two more digits when a downstream sum has to
    resolve cancellation near a kernel zero.
    """
    t = _on_domain(t, dtype)
    out = np.empty((n_max + 1,) + t.shape, dtype=dtype)
    for k, row in enumerate(jacobi_rows(n_max, jp, t)):
        out[k] = row
    return out


def jacobi_eval(n: int, jp: JacobiParams, t):
    """P_n^{(alpha,beta)}(t) for a scalar or array t in [-1, 1], two rows alive."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    scalar = np.isscalar(t)
    for values in jacobi_rows(n, jp, _on_domain(t)):
        pass
    return float(values[0]) if scalar else values


def log_pochhammer(a: float, n: int) -> float:
    """log (a)_n for a > 0."""
    if n == 0:
        return 0.0
    return math.lgamma(a + n) - math.lgamma(a)


def gegenbauer_eval(n: int, lam: float, t):
    """C_n^{lambda}(t) = ((2 lambda)_n / (lambda + 1/2)_n) P_n^{(l-1/2, l-1/2)}(t)."""
    if lam <= 0:
        raise ValueError("Gegenbauer index must be positive")
    ratio = math.exp(log_pochhammer(2 * lam, n) - log_pochhammer(lam + 0.5, n))
    return ratio * jacobi_eval(n, JacobiParams(lam - 0.5, lam - 0.5), t)


def zn_eval(n: int, lam: float, t):
    """Z_n^{lambda}(t) = ((n + lambda)/lambda) C_n^{lambda}(t)."""
    return (n + lam) / lam * gegenbauer_eval(n, lam, t)


def jacobi_endpoint(n: int, jp: JacobiParams) -> float:
    """P_n^{(alpha,beta)}(1) = binom(n + alpha, n), via log-gamma."""
    return math.exp(
        math.lgamma(n + jp.alpha + 1) - math.lgamma(n + 1) - math.lgamma(jp.alpha + 1)
    )


def _log_h(n: int, a: float, b: float) -> float:
    """log h_n, the squared norm of P_n^{(a,b)}; where log(a + b + 1) fails,
    h_0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2)."""
    if n == 0 and a + b + 1 <= 0:
        return ((a + b + 1) * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1)
                - math.lgamma(a + b + 2))
    return (
        (a + b + 1) * math.log(2.0)
        - math.log(2 * n + a + b + 1)
        + math.lgamma(n + a + 1)
        + math.lgamma(n + b + 1)
        - math.lgamma(n + 1)
        - math.lgamma(n + a + b + 1)
    )


def jacobi_h_norm(n: int, jp: JacobiParams) -> float:
    """Squared norm int P_n^2 (1-t)^alpha (1+t)^beta dt, closed form."""
    return math.exp(_log_h(n, jp.alpha, jp.beta))


def kernel_normalizer(n_max: int, jp: JacobiParams) -> np.ndarray:
    """P_k(1) / (h_k / h_0) for k <= n_max, the coefficient of P_k(t) in the
    reproducing kernel at the right endpoint.  Mass-normalizing by h_0 makes
    the degree-0 kernel equal to 1, so Cesaro means reproduce constants."""
    a, b = jp.alpha, jp.beta
    log_h0 = _log_h(0, a, b)
    out = np.empty(n_max + 1)
    for k in range(n_max + 1):
        log_p1 = math.lgamma(k + a + 1) - math.lgamma(k + 1) - math.lgamma(a + 1)
        out[k] = math.exp(log_p1 - _log_h(k, a, b) + log_h0)
    return out


def _log_binomials(n_max: int, d: float) -> np.ndarray:
    """log binom(m + d, m) for m = 0, ..., n_max."""

    def lbinom(x, k):
        return math.lgamma(x + 1) - math.lgamma(k + 1) - math.lgamma(x - k + 1)

    return np.array([lbinom(m + d, m) for m in range(n_max + 1)])


def cesaro_weights(n: int, delta) -> np.ndarray:
    """Binomial Cesaro weights binom(n-k+delta, n-k)/binom(n+delta, n), k <= n.

    All weights are positive for delta > -1, so plain log-gamma suffices."""
    L = _log_binomials(n, _as_delta(delta))
    return np.exp(L[::-1] - L[n])


def cesaro_weight_matrix(n_max: int, delta) -> np.ndarray:
    """Lower-triangular W with row n equal to cesaro_weights(n, delta), for
    n <= n_max, from one vector of log-binomials: W[n, k] = exp(L[n-k] - L[n])."""
    L = _log_binomials(n_max, _as_delta(delta))
    lag = np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    return np.tril(np.exp(L[np.maximum(lag, 0)] - L[:, None]))


def cesaro_kernel_endpoint(n: int, jp: JacobiParams, delta, t):
    """Cesaro (C, delta) kernel k_n^delta(t, 1) of the Fourier-Jacobi series.

    Computed as sum_k w_k P_k(t) P_k(1) / (h_k/h_0) with the binomial weights
    from cesaro_weights; finite for n up to a few thousand thanks to the
    log-gamma evaluation of every ratio; the rows are summed as they come."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    scalar = np.isscalar(t)
    coef = cesaro_weights(n, delta) * kernel_normalizer(n, jp)
    rows = jacobi_rows(n, jp, _on_domain(t))
    acc = coef[0] * next(rows)
    for c, row in zip(coef[1:], rows):
        acc += c * row
    return float(acc[0]) if scalar else acc


def szego_bound_fit(jp: JacobiParams, n_values, t_grid=None) -> dict:
    """Fit the constant in |P_n(t)| <= c n^{-1/2} (1-t+n^{-2})^{-(alpha+1/2)/2}.

    Returns the max over the sweep of |P_n(t)| / bound_shape together with the
    per-n maxima, for stability checks across n-ranges."""
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 401)
    t_grid = np.asarray(t_grid, dtype=float)
    n_values = sorted(int(n) for n in n_values)
    P = jacobi_all(max(n_values), jp, t_grid)
    per_n = {}
    for n in n_values:
        shape = n ** (-0.5) * (1 - t_grid + n ** (-2.0)) ** (-(jp.alpha + 0.5) / 2)
        per_n[n] = float(np.max(np.abs(P[n]) / shape))
    return {"fitted_c": max(per_n.values()), "per_n": per_n}
