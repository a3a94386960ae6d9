"""Dunkl exponential kernels at coordinate vectors and generalized Bessel
functions for the symmetric group.

E(e_ell, y) is the weighted Laplace transform of the simplex measure that
represents the intertwining operator on single-coordinate functions.  The
generalized Bessel function is its symmetrization, computable either as the
plain Dirichlet-weight integral over the simplex or as an average over
transpositions; d = 2 has a closed form through the classical J_nu, and
d >= 3 satisfies a Beta-weight recursion onto dimension d - 1.

Two constant conventions circulate for the d = 2 closed form.  This module
adopts the one with unit limit as the argument product z = (x_1-x_2)(y_1-y_2)
tends to zero, which is the convention forced by the defining integral
(K(x, 0) must be 1 because the representing measure has unit mass).  The
other convention carries an extra sqrt(pi) 2^{-(kappa-1/2)}; it is recorded
by closed_form_report and asserted nowhere.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .intertwine import AxisFunction, vk_axis
from .orthopoly import JacobiParams, jacobi_all
from .polycore import KappaParams
from .simplexquad import SimplexRule, gauss_jacobi01, integrate, require_rule

RADIAL_ORDER = 64  # Gauss-Jacobi order of bessel_recursive's radial rule


def _params(d: int, kappa) -> KappaParams:
    return kappa if isinstance(kappa, KappaParams) else KappaParams(d, Fraction(kappa))


def dunkl_exp_axis(ell: int, y, params: KappaParams, rule: SimplexRule | None,
                   imaginary: bool = False) -> complex:
    """E(e_ell, y), the intertwined exponential at a coordinate vector.

    Quadrature of c_kappa int e^{<y,t>} t_{ell-1} (t_0...t_{d-1})^(kappa-1) dt;
    with imaginary=True the integrand is e^{i<y,t>}.  kappa = 0 degenerates to
    the point evaluation e^{y_ell}."""
    phase = 1j if imaginary else 1.0
    profile = AxisFunction(ell=ell, profile=lambda s: np.exp(phase * s))
    return complex(vk_axis(profile, y, params, rule))


def bessel_k(d: int, kappa, y, rule: SimplexRule | None, path: str = "direct",
             ell: int = 1, imaginary: bool = False) -> complex:
    """Generalized Bessel function K(e_ell, y) for S_d.

    path="direct" integrates (c_kappa/d) e^{<y,t>} against the bare Dirichlet
    weight; path="coset" averages dunkl_exp_axis over the transpositions
    moving axis ell, (1/d) sum_j E(e_ell, y (ell j)).  Both are the same
    quantity; keeping them separate gives an internal cross-check.  The value
    does not depend on ell."""
    params = _params(d, kappa)
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise ValueError(f"y must have shape ({d},)")
    if not 1 <= ell <= d:
        raise ValueError(f"axis {ell} out of range 1..{d}")
    phase = 1j if imaginary else 1.0
    if params.kappa == 0:
        # the symmetrized exponential: every orbit average collapses to this
        return complex(np.mean(np.exp(phase * y)))
    if path == "direct":
        require_rule(rule, params)
        value = integrate(rule, lambda T: np.exp(phase * (T @ y)))
        return complex(params.c_kappa / d * value)
    if path == "coset":
        total = 0j
        for j in range(1, d + 1):
            yj = y.copy()
            yj[[ell - 1, j - 1]] = yj[[j - 1, ell - 1]]
            total += dunkl_exp_axis(ell, yj, params, rule, imaginary=imaginary)
        return total / d
    raise ValueError(f"unknown path {path!r}, expected 'direct' or 'coset'")


# ---------------------------------------------------------------------------
# classical Bessel J
# ---------------------------------------------------------------------------


def classical_bessel_j(nu: float, z: float) -> float:
    """J_nu(z) for nu >= -1/2: ascending series for small arguments, the
    Poisson integral (Gauss-Gegenbauer quadrature of cos(zt) against
    (1-t^2)^(nu-1/2)) beyond z = 8.

    The switch sits at 8 rather than further out because the alternating
    series loses a digit for every few units of z (its terms grow like
    I_nu(z) before they decay); at 8 both branches still deliver 1e-12
    relative accuracy, and they are cross-checked on the window [8, 12]
    where both converge."""
    nu = float(nu)
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    z = float(z)
    if z < 0:
        if nu != int(nu):
            raise ValueError("negative argument requires an integer order")
        return (-1) ** int(nu) * classical_bessel_j(nu, -z)
    if z == 0.0:
        return 1.0 if nu == 0 else 0.0
    if nu == -0.5:
        # limiting case: the Poisson weight degenerates with Gamma(0)
        return math.sqrt(2.0 / (math.pi * z)) * math.cos(z)
    if z <= 8.0:
        return _j_series(nu, z)
    return _j_poisson(nu, z)


def _j_series(nu: float, z: float) -> float:
    log_half = math.log(0.5 * z)
    terms = []
    for m in range(200):
        size = math.exp((2 * m + nu) * log_half - math.lgamma(m + 1) - math.lgamma(nu + m + 1))
        terms.append(-size if m % 2 else size)
        if size < 1e-22 and 2 * m > z:
            break
    return math.fsum(terms)


@lru_cache(maxsize=64)
def _gauss_gegenbauer_highprec(m: int, a: float):
    """Gauss rule for (1-t^2)^a on [-1,1] with extended-precision nodes.

    scipy's float64 nodes seed two Newton steps on P_m^{(a,a)} evaluated in
    longdouble; weights come from the interpolatory closed form
    C / ((1-t^2) P_m'(t)^2).  The integral behind J_nu(z) is the sum of an
    oscillating integrand over a slowly varying weight, so its value sits
    (z/2)^(nu+1/2) below the summand scale; float64 node error alone leaves
    a ~1e-9 floor at z ~ 50 for nu ~ 4, which the refinement removes."""
    x = roots_jacobi(m, a, a)[0].astype(np.longdouble)
    jp, jp1 = JacobiParams(a, a), JacobiParams(a + 1.0, a + 1.0)
    dpm = None
    for _ in range(2):
        pm = jacobi_all(m, jp, x, dtype=np.longdouble)[m]
        dpm = (m + 2 * a + 1) / 2.0 * jacobi_all(m - 1, jp1, x, dtype=np.longdouble)[m - 1]
        x = x - pm / dpm
    dpm = (m + 2 * a + 1) / 2.0 * jacobi_all(m - 1, jp1, x, dtype=np.longdouble)[m - 1]
    log_c = (
        (2 * a + 1) * math.log(2.0)
        + 2 * math.lgamma(m + a + 1)
        - math.lgamma(m + 1)
        - math.lgamma(m + 2 * a + 1)
    )
    w = np.exp(np.longdouble(log_c)) / ((1 - x * x) * dpm * dpm)
    return x, w


def _j_poisson(nu: float, z: float) -> float:
    m = 48 + math.ceil(abs(z))
    t, w = _gauss_gegenbauer_highprec(m, nu - 0.5)
    log_pref = nu * math.log(0.5 * z) - math.lgamma(nu + 0.5) - 0.5 * math.log(math.pi)
    acc = float(np.dot(w, np.cos(np.longdouble(z) * t)))
    return math.exp(log_pref) * acc


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
    elementary cos((x_1-x_2)(y_1-y_2)/2) times the phase."""
    kappa = float(kappa)
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2,) or y.shape != (2,):
        raise ValueError("x and y must be points in R^2")
    z = (x[0] - x[1]) * (y[0] - y[1])
    phase = cmath.exp(0.5j * (x[0] + x[1]) * (y[0] + y[1]))
    return phase * _even_profile(kappa, z)


def bessel_k2_direct(kappa, x, y, rule: SimplexRule) -> complex:
    """K(x, iy) for d = 2 and a general base point x, by quadrature.

    The transposition average of the intertwined exponential reduces to
    (c_kappa/2) int e^{i(A t_0 + B t_1)} (t_0 t_1)^(kappa-1) dt with
    A = <x, y> and B the swapped pairing x_1 y_2 + x_2 y_1.  This is the
    ground truth the closed form is reconciled against."""
    params = _params(2, kappa)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if params.kappa == 0:
        a, b = x @ y, x[0] * y[1] + x[1] * y[0]
        return (cmath.exp(1j * a) + cmath.exp(1j * b)) / 2.0
    require_rule(rule, params)
    a, b = x @ y, x[0] * y[1] + x[1] * y[0]
    value = integrate(rule, lambda T: np.exp(1j * (a * T[:, 0] + b * T[:, 1])))
    return complex(params.c_kappa / 2.0 * value)


def closed_form_report(kappa, rule: SimplexRule, n_samples: int = 20,
                       seed: int = 20260815) -> dict:
    """Record both constant conventions for the d = 2 closed form.

    The adopted convention (gamma factor only, base 4 inside the power) is
    compared against the defining integral at random points; the alternative
    (extra sqrt(pi), base 2) differs from it by the constant factor
    sqrt(pi) 2^{-(kappa-1/2)} everywhere, so its zero-argument limit cannot
    be 1.  Nothing here decides which convention was meant; the report keeps
    the exact factor between them."""
    kappa = float(kappa)
    nu = kappa - 0.5
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(n_samples):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        dev = abs(bessel_k2_closed(kappa, x, y) - bessel_k2_direct(kappa, x, y, rule))
        max_dev = max(max_dev, dev)
    alt_factor = math.sqrt(math.pi) * 2.0 ** (-nu)
    return {
        "kappa": kappa,
        "samples": n_samples,
        "adopted": "gamma_only_base4",
        "gamma_only_base4": {
            "zero_argument_limit": 1.0,
            "max_abs_dev_vs_quadrature": max_dev,
        },
        "sqrt_pi_base2": {
            "zero_argument_limit": alt_factor,
            "constant_ratio_to_adopted": alt_factor,
        },
    }


# ---------------------------------------------------------------------------
# d >= 3 recursion
# ---------------------------------------------------------------------------


def bessel_recursive(d: int, kappa, y, rule_inner: SimplexRule,
                     imaginary: bool = True) -> complex:
    """K(e_1, iy) for d >= 3 through the one-variable Beta recursion

        K_d(e_1, iy) = (1/B(kappa, (d-1)kappa)) int_0^1 e^{i r y_d}
                       K_{d-1}(e_1, i(1-r) y') r^(kappa-1) (1-r)^((d-1)kappa-1) dr,

    y' = (y_1, ..., y_{d-1}).  The front constant is the reciprocal Beta mass
    of the radial weight, which is what makes y = 0 give exactly 1; the inner
    evaluation uses the direct (d-1)-dimensional integral."""
    params = _params(d, kappa)
    if d < 3:
        raise ValueError("the recursion needs d >= 3")
    if params.kappa == 0:
        raise ValueError("the radial Beta weight needs kappa > 0")
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise ValueError(f"y must have shape ({d},)")
    require_rule(rule_inner, KappaParams(d - 1, params.kappa))
    k = params.kappa_float
    r, w = gauss_jacobi01(RADIAL_ORDER, k - 1.0, (d - 1) * k - 1.0)
    w = w * math.exp(math.lgamma(d * k) - math.lgamma(k) - math.lgamma((d - 1) * k))
    phase = 1j if imaginary else 1.0
    total = 0j
    for ri, wi in zip(r, w):
        inner = bessel_k(d - 1, params.kappa, (1.0 - ri) * y[:-1], rule_inner,
                         path="direct", imaginary=imaginary)
        total += wi * cmath.exp(phase * ri * y[-1]) * inner
    return total
