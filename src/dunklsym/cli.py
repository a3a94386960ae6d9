"""Command-line front end: reproducible experiment runs over the library.

Six subcommands map onto the library layers: `verify` (exact intertwining
identities), `hbasis` (orthonormal h-harmonic bases), `kernel` (projection
and Cesaro kernels at a point), `bessel` (generalized Bessel functions along
every available route with pairwise deviations), `lebesgue` (Lebesgue
constant sweeps to CSV or JSON), and `bounds` (fitted constants for the
envelope checks).

Every run writes a header with the config snapshot and library version.
Identical config and seed give byte-identical output: nothing here consults
the clock, the environment, or unseeded randomness.  Arguments are checked
before the first byte is written.  Interrupted sweeps leave a valid file
containing the completed rows only.

Every option goes through argparse.  The `key = value` lines of a --config
file become `--key=value` flags placed before the command line's own, and
the whole is parsed again: file values are checked exactly as flags are
(types and choices), and since argparse keeps the last value of a flag, the
command line wins.

The argument parser is built once per process and shared by every call of
`main`, which parses into a fresh namespace each time; simplex rules are
likewise built once per process (see simplexquad).

Exit codes: 0 success, 1 a verification the run performs failed (an
intertwining identity, a tolerance on pairwise deviations, a stability
window, the self-check of a quadrature rule or basis), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import combinations

import numpy as np

from . import __version__
from .bessel import ROUTES, RULE_FREE, bessel_k, route_refusal
from .harmonics import build_sphere_rule, hharmonic_basis, repro_kernel_axis
from .intertwine import polynomial_order, verify_intertwining
from .orthopoly import JacobiParams
from .polycore import KappaParams
from .simplexquad import SelfCheckError, exponential_order
from .summability import (
    cesaro_kernel_axis,
    check_sweep,
    default_sample_points,
    default_sphere_order,
    estimate_check,
    kernel_bound_check,
    knd_positivity_check,
    lebesgue_sweep,
)

_DEFAULT_SEED = 20260815


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _config_flags(path: str, options: set[str]) -> list[str]:
    """key=value lines as --key=value flags; blank lines and # comments
    ignored; keys that are not options of the subcommand refused."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line!r} is not key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in options:
                raise ValueError(f"config key {key!r} is not an option of this subcommand")
            flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    return flags


def _parse_float_list(text: str) -> list[float]:
    """Comma list '1.0,1.5' or inclusive range 'start:stop:step'."""
    text = text.strip()
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3 or parts[2] <= 0:
            raise ValueError(f"range {text!r} must be start:stop:step with step > 0")
        start, stop, step = parts
        count = int(round((stop - start) / step))
        values = [start + i * step for i in range(count + 1)]
        return [v for v in values if v <= stop + 1e-12]
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _vector(text: str, d: int, name: str) -> np.ndarray:
    vals = np.array([float(p) for p in text.split(",") if p.strip()])
    if len(vals) != d:
        raise ValueError(f"--{name} needs {d} comma-separated values, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"--{name} must be finite")
    return vals


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _header(command: str, params: KappaParams, *, ell: int = 1,
            quad_order: int | None = None, tolerance: float | None = None,
            seed: int = _DEFAULT_SEED, **extra) -> dict:
    """Snapshot of one run, the first keys of its output: everything that
    determines the output bytes."""
    header = {"version": __version__, "command": command, "d": params.d,
              "kappa": str(params.kappa), "ell": ell}
    if quad_order is not None:
        header["quad_order"] = quad_order
    if tolerance is not None:
        header["tolerance"] = tolerance
    return {**header, "seed": seed, **extra}


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    params = _params(args)
    report = verify_intertwining(args.max_degree, params)
    payload = _header("verify", params, max_degree=args.max_degree)
    payload["passed"] = report["passed"]
    payload["checks"] = report["checks"]
    payload["failed"] = [
        {"d": params.d, "kappa": str(params.kappa), **item} for item in report["failed"]]
    _emit_json(payload, args.out)
    return 0 if report["passed"] else 1


def _cmd_hbasis(args) -> int:
    params = _params(args)
    n = _required(args, "n")
    tolerance = _tolerance(args, 1e-8)
    order = max(24, 2 * n + 12) if args.quad_order is None else args.quad_order
    sphere = build_sphere_rule(params.d, order, kappa_hint=params.kappa)
    basis = hharmonic_basis(n, params, sphere)
    payload = _header("hbasis", params, quad_order=order, tolerance=tolerance, n=n)
    payload["dim"] = len(basis)
    payload["gram_residual"] = basis.gram_residual
    payload["gram_cond"] = basis.gram_cond
    payload["basis"] = [json.loads(p.to_json()) for p in basis.basis()]
    _emit_json(payload, args.out)
    return 0 if basis.gram_residual <= tolerance else 1


def _cmd_kernel(args) -> int:
    params = _params(args)
    n = _required(args, "n")
    x = _vector(_required(args, "x"), params.d, "x")
    norm = float(np.linalg.norm(x))
    if norm == 0:
        raise ValueError("--x must be nonzero; it is projected onto the sphere")
    x = x / norm
    extra = {"n": n, "x": [float(v) for v in x]}
    if args.delta is None:
        extra["kind"] = "projection"
        value = repro_kernel_axis(n, args.ell, x, params)
    else:
        extra["kind"] = "cesaro"
        extra["delta"] = args.delta
        value = cesaro_kernel_axis(n, args.delta, args.ell, x, params)
    # the order of the rule the kernel ran on, known without the rule; at
    # kappa = 0 that is the vertex rule, whose order counts no nodes
    order = polynomial_order(n) if params.kappa != 0 else None
    payload = _header("kernel", params, ell=args.ell, quad_order=order, **extra)
    payload["value"] = float(value)
    _emit_json(payload, args.out)
    return 0


def _cmd_bessel(args) -> int:
    params = _params(args)
    y = _vector(_required(args, "y"), params.d, "y")
    imaginary = args.argument == "imaginary"
    tolerance = _tolerance(args, 1e-9)
    runs = [r for r in ROUTES if route_refusal(r, params, imaginary) is None]
    if args.path not in ("all", *runs):
        raise ValueError(route_refusal(args.path, params, imaginary))
    wanted = runs if args.path == "all" else [args.path]
    # the order of the rule for y that the simplex routes build (the radial
    # order of the recursion); a RULE_FREE route builds none, and at kappa = 0
    # the rule is the vertex rule, whose order counts no nodes
    order = (exponential_order(float(np.ptp(y)) / 2, imaginary)
             if params.kappa != 0 and set(wanted) - set(RULE_FREE) else None)
    try:
        values = {name: bessel_k(params, y, path=name, imaginary=imaginary) for name in wanted}
    except ValueError as exc:
        # y is checked and a RULE_FREE route checks nothing more, so a route
        # that can run failed on the size of its rule, before any node
        if not (free := [r for r in RULE_FREE if r in runs]):
            raise
        raise ValueError(f"{exc}; --path {free[0]} builds no rule") from exc
    names = sorted(values)
    deviations = {f"{a}_vs_{b}": abs(values[a] - values[b]) for a, b in combinations(names, 2)}
    worst = float(np.max([0.0, *deviations.values()]))  # keeps a NaN, which max() drops
    payload = _header("bessel", params, quad_order=order, tolerance=tolerance,
                      y=[float(v) for v in y], argument=args.argument, path=args.path)
    payload["paths"] = {name: _complex_pair(values[name]) for name in names}
    payload["pairwise_deviations"] = deviations
    payload["max_deviation"] = worst
    _emit_json(payload, args.out)
    scale = float(np.max([1.0, *map(abs, values.values())]))  # a NaN value fails too
    return 0 if worst <= tolerance * scale else 1


def _cmd_lebesgue(args) -> int:
    params = _params(args)
    n_max = _required(args, "n_max")
    deltas = _parse_float_list(_required(args, "delta"))
    if not deltas:
        raise ValueError("--delta produced an empty list")
    order = default_sphere_order(n_max, params) if args.quad_order is None else args.quad_order
    check_sweep(params, deltas, n_max, args.ell, order)
    header = _header(
        "lebesgue", params, ell=args.ell, quad_order=order,
        delta=",".join(repr(v) for v in deltas), n_max=n_max,
        critical_delta=float(params.critical_delta))

    def sweep(progress) -> int:
        """0, or 130 on Ctrl-C once progress has had the completed records."""
        try:
            lebesgue_sweep(params, deltas, n_max, args.ell, sphere_order=order,
                           progress=progress)
        except KeyboardInterrupt:
            return 130
        return 0

    out = args.out
    if out is not None and out.endswith(".json"):
        rows: list[dict] = []
        code = sweep(lambda r: rows.append({
            "d": r.d, "kappa": r.kappa, "ell": r.ell, "delta": r.delta, "n": r.n,
            "I_n": r.value, "err_est": r.quad_error_estimate}))
        _emit_json({**header, "records": rows}, out)
        return code

    fh = sys.stdout if out is None else open(out, "w", encoding="utf-8")
    try:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        fh.write("d,kappa,ell,delta,n,I_n,err_est\n")
        fh.flush()

        def write_row(rec) -> None:
            fh.write(f"{rec.d},{rec.kappa!r},{rec.ell},{rec.delta!r},"
                     f"{rec.n},{rec.value!r},{rec.quad_error_estimate!r}\n")
            fh.flush()

        return sweep(write_row)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _cmd_bounds(args) -> int:
    params = _params(args)
    check = args.check
    if check is None:
        raise ValueError("--check must be one of estimate, kernel, knd")
    unread = {"knd": ("ell",), "kernel": ("alpha", "beta"), "estimate": ("delta",)}
    for key in unread[check]:
        if getattr(args, key) is not None:
            raise ValueError(f"--{key} is not read by --check {check}")
    ell = 1 if args.ell is None else args.ell
    lam = float(params.lambda_kappa)

    n_text = args.n
    if n_text is None:
        n_text = "32,64,128" if check == "knd" else "16,32,64,128"
    n_values = _parse_int_list(n_text)
    if not n_values or min(n_values) < 1:
        raise ValueError("--n must list degrees >= 1")
    if check == "knd":
        alpha = lam - 0.5 if args.alpha is None else args.alpha
        beta = lam - 0.5 if args.beta is None else args.beta
        delta = alpha + beta + 2.0 if args.delta is None else args.delta
        extra = {"check": check, "alpha": alpha, "beta": beta, "delta": delta}
        series = []
        for n_max in n_values:
            rep = knd_positivity_check(n_max, JacobiParams(alpha, beta), delta)
            series.append({"n": n_max, "fitted_c": rep["fitted_c"],
                           "min_value": rep["min_value"]})
        fitted = [row["fitted_c"] for row in series]
        fitted_c = fitted[-1]
    else:
        X = default_sample_points(params.d, args.seed)
        if check == "estimate":
            alpha = ((params.d - 1) * params.kappa_float + 0.5
                     if args.alpha is None else args.alpha)
            beta = alpha if args.beta is None else args.beta
            extra = {"check": check, "alpha": alpha, "beta": beta}
            series = [{"n": n, "max_ratio": estimate_check(n, params, alpha, beta, X, ell=ell)}
                      for n in n_values]
        else:
            delta = 1.5 if args.delta is None else args.delta
            extra = {"check": check, "delta": delta}
            series = [{"n": n, "max_ratio": kernel_bound_check(n, delta, ell, params, X)}
                      for n in n_values]
        fitted = [row["max_ratio"] for row in series]
        fitted_c = max(fitted)
    payload = _header("bounds", params, ell=ell, seed=args.seed, **extra)
    payload["fitted_c"] = fitted_c
    payload["ratio_series"] = series
    payload["stable"] = _stable(fitted)
    _emit_json(payload, args.out)
    return 0 if payload["stable"] else 1


def _stable(values: list[float]) -> bool:
    """Consecutive n-doubling moves the fitted constant by at most 2x."""
    return all(
        prev > 0 and 0.5 <= cur / prev <= 2.0
        for prev, cur in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _required(args, key: str):
    value = getattr(args, key)
    if value is None:
        raise ValueError(f"--{key.replace('_', '-')} is required")
    return value


def _tolerance(args, default: float) -> float:
    """--tolerance, or default: a NaN, negative or infinite bound would fail
    or pass its check whatever the run found."""
    tolerance = default if args.tolerance is None else args.tolerance
    if not (tolerance >= 0 and np.isfinite(tolerance)):
        raise ValueError(f"--tolerance must be finite and >= 0, got {tolerance}")
    return tolerance


def _params(args) -> KappaParams:
    return KappaParams.from_string(_required(args, "d"), _required(args, "kappa"))


def _add_common(p: argparse.ArgumentParser, *, quad_order: str | None = None,
                tolerance: str | None = None) -> None:
    """Flags of every subcommand: ignored flags are refused.  quad_order,
    when given, adds --quad-order with that help text: which rule the order
    is of, and the subcommand's default; tolerance likewise adds
    --tolerance: what it bounds, and its default."""
    p.add_argument("--config", help="key=value config file; flags take precedence")
    p.add_argument("--d", type=int, help="number of variables")
    p.add_argument("--kappa", help="multiplicity: 'p/q' exact or decimal")
    if quad_order is not None:
        p.add_argument("--quad-order", type=int, dest="quad_order", help=quad_order)
    if tolerance is not None:
        p.add_argument("--tolerance", type=float, help=tolerance)
    p.add_argument("--out", help="output path (.csv or .json); default stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunklsym",
        description="Dunkl intertwining operator for symmetric groups: "
                    "exact identities, h-harmonic kernels, Bessel functions, "
                    "and Cesaro summability sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="exact intertwining identity check")
    _add_common(p)
    p.add_argument("--max-degree", type=int, dest="max_degree", default=6,
                   help="check monomials up to this degree (default 6)")

    p = sub.add_parser("hbasis", help="orthonormal h-harmonic basis as JSON")
    _add_common(p, tolerance="largest entry of |G - I| (default 1e-8)",
                quad_order="sphere-rule order (default max(24, 2n + 12)); the rule is "
                           "built and fit-checked only: at integer kappa the Gram matrix "
                           "and its residual come from exact sphere moments, at "
                           "fractional kappa from Weyl-chamber rules of this order and "
                           "twice it")
    p.add_argument("--n", type=int, help="homogeneity degree")

    p = sub.add_parser("kernel", help="projection or Cesaro kernel at a point")
    _add_common(p)
    p.add_argument("--n", type=int, help="degree")
    p.add_argument("--ell", type=int, default=1, help="axis index, 1-based (default 1)")
    p.add_argument("--x", help="comma-separated point, projected to the sphere")
    p.add_argument("--delta", type=float,
                   help="Cesaro order; omit for the degree-n projection kernel")

    p = sub.add_parser("bessel", help="generalized Bessel function, all routes")
    _add_common(p, tolerance="largest pairwise route deviation, relative to "
                             "max(1, max |value|) (default 1e-9)")
    p.add_argument("--y", help="comma-separated argument vector")
    p.add_argument("--path", choices=[*ROUTES, "all"],
                   default="all", help="which route(s) to evaluate (default all)")
    p.add_argument("--argument", choices=["imaginary", "real"], default="imaginary",
                   help="evaluate K(., iy) (default) or K(., y)")

    p = sub.add_parser("lebesgue", help="Lebesgue constant sweep")
    _add_common(p, quad_order="sphere-rule order (default n_max + 16)")
    p.add_argument("--ell", type=int, default=1, help="axis index, 1-based (default 1)")
    p.add_argument("--delta", help="comma list '1.0,1.5' or range 'a:b:step'")
    p.add_argument("--n-max", type=int, dest="n_max", help="sweep n = 1..n_max")

    p = sub.add_parser("bounds", help="fitted constants for the envelope checks")
    _add_common(p)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="seed for sampled points")
    p.add_argument("--check", choices=["estimate", "kernel", "knd"])
    p.add_argument("--ell", type=int, help="axis index, 1-based (default 1)")
    p.add_argument("--n", help="comma list of degrees for the doubling series")
    p.add_argument("--delta", type=float, help="Cesaro order where applicable")
    p.add_argument("--alpha", type=float, help="Jacobi alpha where applicable")
    p.add_argument("--beta", type=float, help="Jacobi beta where applicable")

    return parser


_HANDLERS = {
    "verify": _cmd_verify,
    "hbasis": _cmd_hbasis,
    "kernel": _cmd_kernel,
    "bessel": _cmd_bessel,
    "lebesgue": _cmd_lebesgue,
    "bounds": _cmd_bounds,
}


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """argv parsed; with --config, parsed again with the file's flags placed
    before the command line's own, which therefore win."""
    args = parser.parse_args(argv)
    if args.command is None or args.config is None:
        return args
    options = set(vars(args)) - {"command", "config"}
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + _config_flags(args.config, options) + argv[at:])


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(parser, argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: an argument is too large: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
