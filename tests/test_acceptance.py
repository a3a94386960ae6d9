"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -v`; capture is disabled in pyproject so every criterion
prints a CRITERION k ... PASS/FAIL line.  The tolerances here are the
contract for the package and are not to be loosened to make a run green.
"""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from dunklsym import cli
from dunklsym.bessel import (
    bessel_k,
    bessel_k2_closed,
    bessel_k2_direct,
    bessel_recursive,
)
from dunklsym.harmonics import (
    build_sphere_rule,
    hharmonic_basis,
    hweight,
    norm_const_a,
    repro_kernel_axis,
    repro_kernel_basis,
    surface_area,
)
from dunklsym.intertwine import (
    verify_intertwining,
    vk_d2_generic,
    vk_d2_poly_exact,
    vk_sphere_average,
)
from dunklsym.orthopoly import JacobiParams, szego_bound_fit
from dunklsym.polycore import KappaParams, Polynomial, dunkl_apply, partial_derivative
from dunklsym.simplexquad import build_rule, dirichlet_moment
from dunklsym.summability import (
    critical_sweep,
    default_sample_points,
    estimate_check,
    kernel_bound_check,
    knd_positivity_check,
)

KP31 = KappaParams(3, 1)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\nCRITERION {num:2d} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {label}{tail}"


# ---------------------------------------------------------------------------
# 1. exact intertwining identity
# ---------------------------------------------------------------------------


def test_c01_exact_intertwining_identity():
    failed = []
    checks = 0
    for d in (2, 3, 4, 5):
        for kappa in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 3)):
            report = verify_intertwining(8, KappaParams(d, kappa))
            checks += report["checks"]
            failed.extend((d, str(kappa), item) for item in report["failed"])
    _verdict(1, "exact rational intertwining identity, d <= 5, degree <= 8",
             not failed, f"{checks} identities, {len(failed)} failures")


# ---------------------------------------------------------------------------
# 2. generic two-variable route agrees with the exact polynomial route
# ---------------------------------------------------------------------------


def _random_poly2(rng, max_degree=6, n_terms=6) -> Polynomial:
    p = Polynomial.zero(2)
    for _ in range(n_terms):
        a = int(rng.integers(0, max_degree + 1))
        b = int(rng.integers(0, max_degree + 1 - a))
        c = int(rng.integers(-5, 6))
        if c:
            p = p + Polynomial.monomial((a, b), Fraction(c))
    return p if not p.is_zero() else Polynomial.variable(2, 1)


def test_c02_generic_bivariate_intertwining():
    kp = KappaParams(2, Fraction(3, 2))
    rule = build_rule(2, kp.kappa_float, 48)
    rng = np.random.default_rng(20260815)
    points = rng.uniform(-1.0, 1.0, size=(20, 2))
    worst = 0.0
    for _ in range(20):
        f = _random_poly2(rng)
        vf = vk_d2_poly_exact(f, kp)
        for i in (1, 2):
            lhs = dunkl_apply(vf, i, kp)(points)
            df = partial_derivative(f, i)
            rhs = np.array([
                vk_d2_generic(
                    lambda u, v: df(np.stack([u, v], axis=-1)), x, kp, rule)
                for x in points])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _verdict(2, "generic d=2 route satisfies both Dunkl relations",
             worst <= 1e-8, f"worst deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# 3. quadrature reproduces closed-form moments and sphere masses
# ---------------------------------------------------------------------------


def test_c03_quadrature_moments_and_masses():
    worst_simplex = 0.0
    for d in (2, 3, 4):
        exponents = [a for a in itertools.product(range(7), repeat=d)
                     if sum(a) <= 6]
        for kappa in (0.5, 1.0, 1.5, 2.0):
            rule = build_rule(d, kappa, 24)
            for alpha in exponents:
                want = dirichlet_moment(d, kappa, alpha)
                got = float(np.dot(rule.weights,
                                   np.prod(rule.nodes ** np.array(alpha), axis=1)))
                worst_simplex = max(worst_simplex, abs(got / want - 1.0))
    worst_sphere = 0.0
    for d, order in ((2, 48), (3, 32)):
        plain = build_sphere_rule(d, order)
        worst_sphere = max(worst_sphere, abs(
            float(np.sum(plain.weights)) / surface_area(d) - 1.0))
        for kappa in (1, 2):
            kp = KappaParams(d, kappa)
            weighted = build_sphere_rule(d, order, kappa_hint=kp.kappa)
            closed, quad = norm_const_a(kp, weighted)
            worst_sphere = max(worst_sphere, abs(quad / closed - 1.0))
    ok = worst_simplex <= 1e-10 and worst_sphere <= 1e-8
    _verdict(3, "simplex moments to 1e-10, sphere masses to 1e-8", ok,
             f"simplex {worst_simplex:.3e}, sphere {worst_sphere:.3e}")


# ---------------------------------------------------------------------------
# 4. harmonic space dimensions and the reproducing property
# ---------------------------------------------------------------------------


def test_c04_harmonic_dimensions_and_reproducing_property():
    bad_dims = []
    for d in (2, 3):
        for kappa in (Fraction(1, 2), Fraction(1), Fraction(2)):
            kp = KappaParams(d, kappa)
            sphere = build_sphere_rule(d, 24, kappa_hint=kappa)
            for n in range(7):
                want = math.comb(n + d - 1, n) - (
                    math.comb(n + d - 3, n - 2) if n >= 2 else 0)
                got = len(hharmonic_basis(n, kp, sphere))
                if got != want:
                    bad_dims.append((d, str(kappa), n, got, want))

    sphere = build_sphere_rule(3, 24, kappa_hint=1)
    h2 = hweight(sphere.nodes, KP31) ** 2
    e1 = np.array([1.0, 0.0, 0.0])
    worst = 0.0
    for n in range(5):
        basis = hharmonic_basis(n, KP31, sphere)
        K = repro_kernel_axis(n, 1, sphere.nodes, KP31)
        Y = basis.evaluate(sphere.nodes)
        lhs = KP31.a_kappa * Y @ (sphere.weights * h2 * K)
        rhs = basis.evaluate(e1[None, :])[:, 0]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = not bad_dims and worst <= 1e-7
    _verdict(4, "harmonic dimensions exact, reproducing property to 1e-7", ok,
             f"dim mismatches {bad_dims}, worst reproduction {worst:.3e}")


# ---------------------------------------------------------------------------
# 5. axis kernel equals the basis kernel at coordinate vectors
# ---------------------------------------------------------------------------


def test_c05_axis_kernel_matches_basis_kernel():
    sphere = build_sphere_rule(3, 24, kappa_hint=1)
    rng = np.random.default_rng(20260815)
    X = rng.normal(size=(20, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    eye = np.eye(3)
    worst = 0.0
    for n in range(5):
        basis = hharmonic_basis(n, KP31, sphere)
        for x in X:
            for ell in (1, 2, 3):
                a = repro_kernel_axis(n, ell, x, KP31)
                b = repro_kernel_basis(n, x, eye[ell - 1], basis)
                worst = max(worst, abs(a - b))
    _verdict(5, "axis kernel vs basis kernel at coordinate vectors, n <= 4",
             worst <= 1e-7, f"worst deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# 6. Bessel function routes agree
# ---------------------------------------------------------------------------


def test_c06_bessel_routes_agree():
    rng = np.random.default_rng(20260815)
    worst_closed = 0.0
    for kappa in (0.5, 1.0, 1.5):
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=2)
            y = rng.uniform(-2.0, 2.0, size=2)
            dev = abs(bessel_k2_closed(kappa, x, y) - bessel_k2_direct(kappa, x, y))
            worst_closed = max(worst_closed, dev)

    kp31 = KappaParams(3, 1)
    worst_rec = 0.0
    for _ in range(20):
        y = rng.uniform(-2.0, 2.0, size=3)
        dev = abs(bessel_recursive(kp31, y)
                  - bessel_k(kp31, y, path="direct", imaginary=True))
        worst_rec = max(worst_rec, dev)

    kp21, kp3h = KappaParams(2, 1), KappaParams(3, Fraction(1, 2))
    at_zero = [
        bessel_k(kp21, np.zeros(2), path="direct"),
        bessel_k(kp21, np.zeros(2), path="coset"),
        bessel_k2_closed(1.0, np.array([1.0, 0.0]), np.zeros(2)),
        bessel_k(kp3h, np.zeros(3), path="direct"),
        bessel_k(kp3h, np.zeros(3), path="coset"),
        bessel_recursive(kp31, np.zeros(3)),
        bessel_k(KappaParams(3, 0), np.zeros(3)),
    ]
    worst_zero = max(abs(v - 1.0) for v in at_zero)
    ok = worst_closed <= 1e-9 and worst_rec <= 1e-9 and worst_zero <= 1e-10
    _verdict(6, "Bessel closed form, recursion, and normalization", ok,
             f"closed {worst_closed:.3e}, recursion {worst_rec:.3e}, "
             f"at zero {worst_zero:.3e}")


# ---------------------------------------------------------------------------
# 7. sphere average of an intertwined profile
# ---------------------------------------------------------------------------


def test_c07_sphere_average_identity():
    sphere = build_sphere_rule(3, 24, kappa_hint=1)
    x = np.array([0.8, 0.0, 0.0])
    profiles = {
        "1": lambda t: np.ones_like(np.asarray(t, dtype=float)),
        "t": lambda t: t,
        "t^2": lambda t: t ** 2,
        "t^4": lambda t: t ** 4,
    }
    worst = 0.0
    for f in profiles.values():
        lhs, rhs = vk_sphere_average(f, x, KP31, sphere)
        worst = max(worst, abs(lhs - rhs))
    _verdict(7, "sphere average identity for polynomial profiles",
             worst <= 1e-8, f"worst deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# 8. summability probe around the critical order
# ---------------------------------------------------------------------------


def test_c08_summability_probe():
    report = critical_sweep(KP31, [1.0, 1.5, 2.0], 200)
    rows = {row["delta"]: row for row in report["per_delta"]}
    ok_bounded = rows[2.0]["classification"] == "bounded"
    ok_growing = (rows[1.0]["classification"] == "growing"
                  and rows[1.0]["p"] > 0.2)
    # at the critical order the constants should climb, slowly: increments
    # non-negative up to quadrature error, and a log fit beating a flat one
    crit = {rec.n: rec for rec in report["records"] if rec.delta == 1.5}
    ns = sorted(crit)
    err = max(rec.quad_error_estimate for rec in crit.values())
    worst_drop = max((crit[a].value - crit[b].value
                      for a, b in zip(ns, ns[1:])), default=0.0)
    ok_mono = worst_drop <= max(3.0 * err, 1e-9)
    ok_log = rows[1.5]["rss_log"] <= rows[1.5]["rss_const"]
    ok = ok_bounded and ok_growing and ok_mono and ok_log
    _verdict(8, "growth classification across the critical order", ok,
             f"delta 2.0 {rows[2.0]['classification']}, "
             f"delta 1.0 {rows[1.0]['classification']} p={rows[1.0]['p']:.3f}, "
             f"critical drop {worst_drop:.2e} vs err {err:.2e}, "
             f"rss log/const {rows[1.5]['rss_log']:.2e}/{rows[1.5]['rss_const']:.2e}")


# ---------------------------------------------------------------------------
# 9. envelope constants stable under n-doubling
# ---------------------------------------------------------------------------


def _stable(values) -> bool:
    return all(prev > 0 and 0.5 <= cur / prev <= 2.0
               for prev, cur in zip(values, values[1:]))


def test_c09_bound_constants_stable_under_doubling():
    jp = JacobiParams(2.5, 2.5)
    szego = [szego_bound_fit(jp, range(50, 201, 10))["fitted_c"],
             szego_bound_fit(jp, range(100, 401, 20))["fitted_c"]]
    knd = [knd_positivity_check(m, JacobiParams(3.0, 3.0), 8.0)["fitted_c"]
           for m in (32, 64, 128)]
    X = default_sample_points(3)
    est = [estimate_check(n, KP31, 2.5, 2.5, X) for n in (16, 32, 64, 128)]
    ker = [kernel_bound_check(n, 1.5, 1, KP31, X) for n in (16, 32, 64, 128)]
    ok = _stable(szego) and _stable(knd) and _stable(est) and _stable(ker)
    _verdict(9, "fitted constants stable within 2x under n-doubling", ok,
             f"szego {szego[-1]:.3f}, knd {knd[-1]:.3f}, "
             f"estimate {[round(float(v), 3) for v in est]}, "
             f"kernel {[round(float(v), 3) for v in ker]}")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------


def _run_cli_bytes(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_c10_cli_runs_are_byte_identical(tmp_path):
    commands = [
        ["verify", "--d", "2", "--kappa", "1", "--max-degree", "4"],
        ["kernel", "--d", "2", "--kappa", "1", "--n", "3",
         "--x", "0.6,0.8", "--delta", "1.5"],
        ["lebesgue", "--d", "2", "--kappa", "1", "--delta", "0.5,1.0",
         "--n-max", "4", "--quad-order", "24"],
        ["bounds", "--d", "2", "--kappa", "1", "--check", "knd",
         "--n", "16,32"],
    ]
    mismatched = []
    for argv in commands:
        rc1, out1 = _run_cli_bytes(argv)
        rc2, out2 = _run_cli_bytes(argv)
        if rc1 != rc2 or out1 != out2 or not out1:
            mismatched.append(argv[0])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run_cli_bytes(commands[2] + ["--out", str(a)])
    _run_cli_bytes(commands[2] + ["--out", str(b)])
    if a.read_bytes() != b.read_bytes():
        mismatched.append("lebesgue-to-file")
    _verdict(10, "CLI reruns are byte-identical", not mismatched,
             f"commands checked: verify, kernel, lebesgue, bounds"
             + (f"; mismatches {mismatched}" if mismatched else ""))
