"""Dunkl exponential kernels at coordinate vectors and generalized Bessel
functions for the symmetric group.

E(e_ell, y) is the weighted Laplace transform of the simplex measure that
represents the intertwining operator on single-coordinate functions.  The
generalized Bessel function is its symmetrization, computable either as the
plain Dirichlet-weight integral over the simplex or as an average over
transpositions; d = 2 has a closed form through the classical J_nu, and
d >= 3 satisfies a Beta-weight recursion onto dimension d - 1.  bessel_k
takes each of these ROUTES by name; route_refusal says where each runs.

No route takes a rule or an order.  Each but the RULE_FREE closed form builds
its simplex rule through intertwine.exponential_rule, whose per-axis order
simplexquad.exponential_order derives from half the range of the argument's
entries (the recursion takes its radial order from the same bound), so the
quadrature error stays below 2^-53 of the value for every argument; a
non-finite argument is refused before any rule is built, and
simplexquad.build_rule refuses a rule of more than CHUNK_ELEMENTS nodes
before computing any (at d = 2, one whose order^2 Jacobi matrix is larger).
At kappa = 0 that rule is the vertex rule, whatever the argument: the simplex
routes then give the exponential and its orbit average exactly, with no
branch of their own.  Only the recursion refuses kappa = 0: its radial Beta
weight needs kappa > 0.  J_nu is computed here from its power series,
Miller's backward recurrence and the Hankel expansion (classical_bessel_j).

Two constant conventions circulate for the d = 2 closed form.  This module
adopts the one with unit limit as the argument product z = (x_1-x_2)(y_1-y_2)
tends to zero, which is the convention forced by the defining integral
(K(x, 0) must be 1 because the representing measure has unit mass).  The
other convention carries an extra sqrt(pi) 2^{-(kappa-1/2)}, so its
zero-argument limit cannot be 1; it is not implemented.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .intertwine import AxisFunction, exponential_rule, vk_axis
from .polycore import KappaParams, check_axis
from .simplexquad import chunk_slices, exponential_order, gauss_jacobi01, integrate


def dunkl_exp_axis(ell: int, y, params: KappaParams, imaginary: bool = False):
    """E(e_ell, y), the intertwined exponential at a coordinate vector, for y
    of shape (d,) (a complex) or at every row of an (N, d) array (an array).

    Quadrature of c_kappa int e^{<y,t>} t_{ell-1} (t_0...t_{d-1})^(kappa-1) dt
    on exponential_rule's rule for y; with imaginary=True the integrand is
    e^{i<y,t>}.  At kappa = 0 the vertex rule gives the point evaluation
    e^{y_ell}."""
    phase = 1j if imaginary else 1.0
    profile = AxisFunction(ell=ell, profile=lambda s: np.exp(phase * s))
    values = vk_axis(profile, y, params, exponential_rule(params, y, imaginary))
    return values.astype(complex) if values.ndim else complex(values)


ROUTES = ("direct", "closed", "recursive", "coset")
RULE_FREE = ("closed",)  # the routes that build no simplex rule


def route_refusal(path: str, params: KappaParams, imaginary: bool) -> str | None:
    """Why route path cannot run at params' (d, kappa) and this argument, or
    None when it can: the one statement of where each of ROUTES runs."""
    if path not in ROUTES:
        return f"unknown path {path!r}, expected one of {ROUTES}"
    if path == "closed" and params.d != 2:
        return "the closed form needs d = 2"
    if path == "closed" and not imaginary:
        return "the closed form is for the imaginary argument"
    if path == "recursive" and (params.d < 3 or params.kappa == 0):
        return "the recursion needs d >= 3 and kappa > 0"
    return None


def bessel_k(params: KappaParams, y, path: str = "direct", ell: int = 1,
             imaginary: bool = False) -> complex:
    """Generalized Bessel function K(e_ell, y) for S_d along any of ROUTES;
    a route that route_refusal refuses raises its message before any rule.

    path="direct" integrates (c_kappa/d) e^{<y,t>} against the bare Dirichlet
    weight; path="coset" averages dunkl_exp_axis over the transpositions
    moving axis ell, (1/d) sum_j E(e_ell, y (ell j)), all d arguments in one
    call on one rule (they share their entries, so exponential_rule gives
    them the rule of y); "closed" is bessel_k2_closed(kappa, e_ell, y) and
    "recursive" bessel_recursive.  All are the same quantity; keeping them
    separate gives internal cross-checks.  The value does not depend on ell.
    At kappa = 0 the direct route on the vertex rule is the mean of e^{y_j}."""
    d = params.d
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise ValueError(f"y must have shape ({d},)")
    check_axis(ell, d)
    if why := route_refusal(path, params, imaginary):
        raise ValueError(why)
    if path == "closed":
        return bessel_k2_closed(params.kappa, np.eye(d)[ell - 1], y)
    if path == "recursive":
        return bessel_recursive(params, y, imaginary=imaginary)
    if path == "coset":
        swapped = np.tile(y, (d, 1))
        rows = np.arange(d)
        swapped[rows, ell - 1], swapped[rows, rows] = y, y[ell - 1]
        return complex(np.mean(dunkl_exp_axis(ell, swapped, params, imaginary=imaginary)))
    phase = 1j if imaginary else 1.0
    rule = exponential_rule(params, y, imaginary)
    return complex(params.c_kappa / d * integrate(rule, lambda T: np.exp(phase * (T @ y))))


# ---------------------------------------------------------------------------
# classical Bessel J
# ---------------------------------------------------------------------------


def classical_bessel_j(nu: float, z: float) -> float:
    """J_nu(z) for nu >= -1/2; a negative z needs an integer order, and gets
    the parity (-1)^nu.  For x = |z|:

    - x^2 < 4(nu + 1): the power series, whose terms shrink from the first
      on, so it loses at most a digit to cancellation;
    - x > max(50, 2 nu^2): the Hankel expansion, its terms below 1/4 of the
      one before from the start, with cos(x - phi) formed as cos x cos phi +
      sin x sin phi, phi = (nu/2 + 1/4) pi, since x - phi loses the digits
      of a large x;
    - otherwise Miller's backward recurrence (_miller).

    Against 40-digit mpmath, for nu <= 60 and 0 < z <= 1e7, the value stays
    within 3e-14 of max(|J|, sqrt(2/(pi z))); a float64 series or Poisson
    integral cancels (z/2)^(nu+1/2) there and loses every digit."""
    nu = float(nu)
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    z = float(z)
    if z < 0 and nu != int(nu):
        raise ValueError("negative argument requires an integer order")
    x = abs(z)
    if x == 0:
        return 1.0 if nu == 0 else (0.0 if nu > 0 else math.inf)
    if not math.isfinite(x):
        return 0.0 if x == math.inf else math.nan
    if x * x < 4 * (nu + 1):
        value = _bessel_series(nu, x)
    elif x > max(50.0, 2 * nu * nu):
        value = _bessel_hankel(nu, x)
    else:
        value = _miller(nu, x)
    return -value if z < 0 and int(nu) % 2 else value


def _bessel_series(nu: float, x: float) -> float:
    """sum_k (-x^2/4)^k / (k! Gamma(nu + k + 1)) times (x/2)^nu, the
    leading factor through logarithms where it would overflow."""
    q = -x * x / 4
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * abs(total):
        k += 1
        term *= q / (k * (nu + k))
        total += term
    try:
        return total * ((x / 2) ** nu / math.gamma(nu + 1))
    except OverflowError:
        return math.copysign(
            math.exp(math.log(abs(total)) + nu * math.log(x / 2) - math.lgamma(nu + 1)), total)


def _bessel_hankel(nu: float, x: float) -> float:
    """sqrt(2/(pi x)) (P cos(x - phi) - Q sin(x - phi)), P and Q the even and
    odd terms of the asymptotic series in 1/(8x), with alternating signs."""
    mu = 4 * nu * nu
    sums = [1.0, 0.0]  # P, Q
    term, k = 1.0, 0
    while abs(term) > 1e-17:
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (8 * k * x) * (-1 if k % 2 == 0 else 1)
        sums[k % 2] += term
    phi = (nu / 2 + 0.25) * math.pi
    c, s, cp, sp = math.cos(x), math.sin(x), math.cos(phi), math.sin(phi)
    return math.sqrt(2 / (math.pi * x)) * (sums[0] * (c * cp + s * sp)
                                            - sums[1] * (s * cp - c * sp))


def _miller(nu: float, x: float) -> float:
    """J_nu(x) by the backward recurrence J_(mu-1) = (2 mu / x) J_mu - J_(mu+1)
    on the orders nu0 + n, nu0 = nu - floor(nu) (nu itself below 1), from
    n = floor(nu) + x + 12 x^(1/3) + 30 down to 0, rescaled past 1e250, then
    normalized by (x/2)^nu0 = sum_k c_k J_(nu0+2k)(x), c_0 = Gamma(nu0 + 1),
    c_k = (nu0 + 2k) Gamma(nu0 + k) / k!.  At nu0 < 1 the c_k grow at most
    like k, so neither they nor the sum overflow whatever nu is."""
    m = max(0, math.floor(nu))
    nu0 = nu - m
    top = m + int(x + 12 * x ** (1 / 3) + 30)
    c = [1.0]  # c_k / Gamma(nu0 + 1)
    g = 1.0  # (nu0 + 1)_(k-1) / k!
    for k in range(1, top // 2 + 1):
        c.append((nu0 + 2 * k) * g)
        g *= (nu0 + k) / (k + 1)
    after, cur = 0.0, 1.0
    total = at = 0.0
    for n in range(top, 0, -1):
        if n == m:
            at = cur
        if n % 2 == 0:
            total += c[n // 2] * cur
        after, cur = cur, 2 * (nu0 + n) / x * cur - after
        if abs(cur) > 1e250:
            after, cur, total, at = after * 1e-250, cur * 1e-250, total * 1e-250, at * 1e-250
    if m == 0:
        at = cur
    total += cur
    return at / total * (x / 2) ** nu0 / math.gamma(nu0 + 1)


# ---------------------------------------------------------------------------
# d = 2 closed form
# ---------------------------------------------------------------------------


def _even_profile(kappa: float, z: float) -> float:
    """g(z) = Gamma(kappa+1/2) (4/|z|)^(kappa-1/2) J_{kappa-1/2}(|z|/2).

    Even in z and analytic through z = 0 although both factors are singular
    there; below 1e-3 the first three series terms already reach 1e-26."""
    nu = kappa - 0.5
    az = abs(z)
    if az < 1e-3:
        q = (z / 4.0) ** 2
        return 1.0 - q / (nu + 1) + q * q / (2 * (nu + 1) * (nu + 2))
    return math.gamma(kappa + 0.5) * (4.0 / az) ** nu * classical_bessel_j(nu, az / 2.0)


def bessel_k2_closed(kappa, x, y) -> complex:
    """K(x, iy) for d = 2 in closed form.

    e^{i (x_1+x_2)(y_1+y_2)/2} g((x_1-x_2)(y_1-y_2)) with g from
    _even_profile.  Valid for every kappa >= 0; kappa = 0 collapses to the
    elementary cos((x_1-x_2)(y_1-y_2)/2) times the phase.  OverflowError
    when the phase's angle is not a finite float."""
    kappa = float(kappa)
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2,) or y.shape != (2,):
        raise ValueError("x and y must be points in R^2")
    (x1, x2), (y1, y2) = x.tolist(), y.tolist()
    angle = 0.5 * (x1 + x2) * (y1 + y2)
    if not math.isfinite(angle):
        raise OverflowError(f"the phase angle (x_1 + x_2)(y_1 + y_2) / 2 is {angle}")
    return cmath.exp(1j * angle) * _even_profile(kappa, (x1 - x2) * (y1 - y2))


def bessel_k2_direct(kappa, x, y) -> complex:
    """K(x, iy) for d = 2 and a general base point x, by quadrature.

    The transposition average of the intertwined exponential reduces to
    (c_kappa/2) int e^{i(A t_0 + B t_1)} (t_0 t_1)^(kappa-1) dt with
    A = <x, y> and B the swapped pairing x_1 y_2 + x_2 y_1: the direct
    route bessel_k at the argument (A, B).  This is the ground truth the
    closed form is reconciled against."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return bessel_k(KappaParams(2, Fraction(kappa)), (x @ y, x[0] * y[1] + x[1] * y[0]),
                    path="direct", imaginary=True)


# ---------------------------------------------------------------------------
# d >= 3 recursion
# ---------------------------------------------------------------------------


def bessel_recursive(params: KappaParams, y, imaginary: bool = True) -> complex:
    """K(e_1, iy) for d >= 3 through the one-variable Beta recursion

        K_d(e_1, iy) = (1/B(kappa, (d-1)kappa)) int_0^1 e^{i r y_d}
                       K_{d-1}(e_1, i(1-r) y') r^(kappa-1) (1-r)^((d-1)kappa-1) dr,

    y' = (y_1, ..., y_{d-1}).  The front constant is the reciprocal Beta mass
    of the radial weight, which is what makes y = 0 give exactly 1.  The
    radial Gauss-Jacobi order is exponential_order of half the range of y:
    in r the integrand is an exponential whose exponent runs between y_d and
    an entry of y'.  The inner values are the direct (d-1)-dimensional
    integral on exponential_rule's rule for y', which serves every (1-r) y',
    all radial nodes in one (radial nodes, inner nodes) integrand."""
    d = params.d
    if why := route_refusal("recursive", params, imaginary):
        raise ValueError(why)
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise ValueError(f"y must have shape ({d},)")
    inner_params = KappaParams(d - 1, params.kappa)
    rule = exponential_rule(inner_params, y[:-1], imaginary)
    k = params.kappa_float
    r, w = gauss_jacobi01(exponential_order(float(np.ptp(y)) / 2, imaginary),
                          k - 1.0, (d - 1) * k - 1.0)
    w = w * math.exp(math.lgamma(d * k) - math.lgamma(k) - math.lgamma((d - 1) * k))
    phase = 1j if imaginary else 1.0
    inner = inner_params.c_kappa / (d - 1) * np.concatenate([
        integrate(rule, lambda T: np.exp(phase * np.outer(1.0 - r[sl], T @ y[:-1])))
        for sl in chunk_slices(len(r), len(rule))])
    return complex(np.sum(w * np.exp(phase * r * y[-1]) * inner))
