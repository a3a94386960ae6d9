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

Exit codes: 0 success, 1 a verification the run performs failed (an
intertwining identity, a tolerance on pairwise deviations, a stability
window, the self-check of a quadrature rule or basis), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bessel import bessel_k, bessel_k2_closed, bessel_recursive
from .harmonics import build_sphere_rule, hharmonic_basis, repro_kernel_axis
from .intertwine import verify_intertwining
from .orthopoly import JacobiParams
from .polycore import KappaParams
from .simplexquad import SelfCheckError, build_rule, exact_order
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


@dataclass(frozen=True)
class RunConfig:
    """Snapshot of one run: everything that determines the output bytes."""

    command: str
    d: int
    kappa: str
    ell: int = 1
    quad_order: int | None = None
    tolerance: float | None = None
    seed: int = _DEFAULT_SEED

    def header_pairs(self, extra: dict) -> list[tuple[str, object]]:
        pairs = [("version", __version__), ("command", self.command),
                 ("d", self.d), ("kappa", self.kappa), ("ell", self.ell)]
        if self.quad_order is not None:
            pairs.append(("quad_order", self.quad_order))
        if self.tolerance is not None:
            pairs.append(("tolerance", self.tolerance))
        pairs.append(("seed", self.seed))
        pairs.extend(extra.items())
        return pairs


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _load_config_file(path: str, options: set[str]) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored; unknown keys refused."""
    out: dict[str, str] = {}
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
            out[key] = value.strip()
    return out


def _merged(args: argparse.Namespace, key: str, cast, fallback=None):
    """Flag value if given, else config-file value, else fallback."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    file_values = getattr(args, "_config_file", {})
    if key in file_values:
        return cast(file_values[key])
    return fallback


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
    return [int(p) for p in str(text).split(",") if p.strip()]


def _vector(text: str, d: int, name: str) -> np.ndarray:
    vals = [float(p) for p in str(text).split(",") if p.strip()]
    if len(vals) != d:
        raise ValueError(f"--{name} needs {d} comma-separated values, got {len(vals)}")
    return np.asarray(vals)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _json_header(config: RunConfig, extra: dict) -> dict:
    return dict(config.header_pairs(extra))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    d = _require_d(args)
    params = _params(args, d)
    max_degree = _merged(args, "max_degree", int, 6)
    config = RunConfig(command="verify", d=d, kappa=str(params.kappa))
    report = verify_intertwining(max_degree, params)
    payload = _json_header(config, {"max_degree": max_degree})
    payload["passed"] = report["passed"]
    payload["checks"] = report["checks"]
    payload["failed"] = [
        {"d": d, "kappa": str(params.kappa), **item} for item in report["failed"]]
    _emit_json(payload, _merged(args, "out", str))
    return 0 if report["passed"] else 1


def _cmd_hbasis(args) -> int:
    d = _require_d(args)
    params = _params(args, d)
    n = int(_required(args, "n"))
    tolerance = _merged(args, "tolerance", float, 1e-8)
    order = _merged(args, "quad_order", int, max(24, 2 * n + 12))
    config = RunConfig(command="hbasis", d=d, kappa=str(params.kappa),
                       quad_order=order, tolerance=tolerance)
    sphere = build_sphere_rule(d, order, kappa_hint=params.kappa)
    basis = hharmonic_basis(n, params, sphere)
    payload = _json_header(config, {"n": n})
    payload["dim"] = len(basis)
    payload["gram_residual"] = basis.gram_residual
    payload["gram_cond"] = basis.gram_cond
    payload["basis"] = [json.loads(p.to_json()) for p in basis.basis()]
    _emit_json(payload, _merged(args, "out", str))
    return 0 if basis.gram_residual <= tolerance else 1


def _cmd_kernel(args) -> int:
    d = _require_d(args)
    params = _params(args, d)
    n = int(_required(args, "n"))
    ell = _merged(args, "ell", int, 1)
    x = _vector(_required(args, "x"), d, "x")
    norm = float(np.linalg.norm(x))
    if norm == 0:
        raise ValueError("--x must be nonzero; it is projected onto the sphere")
    x = x / norm
    delta = _merged(args, "delta", float)
    config = RunConfig(command="kernel", d=d, kappa=str(params.kappa),
                       ell=ell, quad_order=exact_order(n + 1))
    extra = {"n": n, "x": [float(v) for v in x]}
    if delta is None:
        extra["kind"] = "projection"
        value = repro_kernel_axis(n, ell, x, params)
    else:
        extra["kind"] = "cesaro"
        extra["delta"] = delta
        value = cesaro_kernel_axis(n, delta, ell, x, params)
    payload = _json_header(config, extra)
    payload["value"] = float(value)
    _emit_json(payload, _merged(args, "out", str))
    return 0


def _cmd_bessel(args) -> int:
    d = _require_d(args)
    params = _params(args, d)
    y = _vector(_required(args, "y"), d, "y")
    path = _merged(args, "path", str, "all")
    argument = _merged(args, "argument", str, "imaginary")
    if argument not in ("imaginary", "real"):
        raise ValueError("--argument must be 'imaginary' or 'real'")
    imaginary = argument == "imaginary"
    tolerance = _merged(args, "tolerance", float, 1e-9)
    order = _merged(args, "quad_order", int, 48)
    config = RunConfig(command="bessel", d=d, kappa=str(params.kappa),
                       quad_order=order, tolerance=tolerance)

    routes = ["direct", "closed", "recursive", "coset"]
    if path not in routes + ["all"]:
        raise ValueError(f"unknown path {path!r}")
    refusals = {}  # route -> why it cannot run at this (d, kappa, argument)
    if d != 2:
        refusals["closed"] = "the closed form needs d = 2"
    elif not imaginary:
        refusals["closed"] = "the closed form is for the imaginary argument"
    if d < 3 or params.kappa == 0:
        refusals["recursive"] = "the recursion needs d >= 3 and kappa > 0"
    if path in refusals:
        raise ValueError(refusals[path])
    wanted = [r for r in routes if r not in refusals] if path == "all" else [path]
    rule = build_rule(d, params.kappa_float, order) if params.kappa != 0 else None
    values: dict[str, complex] = {}
    for name in wanted:
        if name == "closed":
            values[name] = bessel_k2_closed(params.kappa_float,
                                            np.array([1.0, 0.0]), y)
        elif name == "recursive":
            inner = build_rule(d - 1, params.kappa_float, order)
            values[name] = bessel_recursive(d, params, y, inner,
                                            imaginary=imaginary)
        else:
            values[name] = bessel_k(d, params, y, rule, path=name, imaginary=imaginary)

    names = sorted(values)
    deviations = {}
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            dev = abs(values[a] - values[b])
            deviations[f"{a}_vs_{b}"] = dev
            worst = max(worst, dev)
    payload = _json_header(config, {
        "y": [float(v) for v in y], "argument": argument, "path": path})
    payload["paths"] = {name: _complex_pair(values[name]) for name in names}
    payload["pairwise_deviations"] = deviations
    payload["max_deviation"] = worst
    _emit_json(payload, _merged(args, "out", str))
    return 0 if worst <= tolerance else 1


def _cmd_lebesgue(args) -> int:
    d = _require_d(args)
    params = _params(args, d)
    ell = _merged(args, "ell", int, 1)
    n_max = int(_required(args, "n_max"))
    delta_text = _required(args, "delta")
    deltas = _parse_float_list(delta_text)
    if not deltas:
        raise ValueError("--delta produced an empty list")
    order = _merged(args, "quad_order", int, default_sphere_order(n_max))
    check_sweep(params, deltas, n_max, ell, order)
    out = _merged(args, "out", str)
    config = RunConfig(command="lebesgue", d=d, kappa=str(params.kappa),
                       ell=ell, quad_order=order)
    # critical index for this group, with the sign-change-group threshold at
    # equal multiplicities printed alongside for context (display only)
    extra = {"delta": ",".join(repr(v) for v in deltas), "n_max": n_max,
             "critical_delta": float(params.critical_delta),
             "z2d_equal_multiplicity_threshold":
                 float(params.lambda_kappa - params.kappa)}

    as_json = out is not None and out.endswith(".json")
    if as_json:
        rows: list[dict] = []
        payload = _json_header(config, extra)
        try:
            lebesgue_sweep(params, deltas, n_max, ell, sphere_order=order,
                           progress=lambda r: rows.append({
                               "d": r.d, "kappa": r.kappa, "ell": r.ell,
                               "delta": r.delta, "n": r.n, "I_n": r.value,
                               "err_est": r.quad_error_estimate}))
        except KeyboardInterrupt:
            payload["records"] = rows
            _emit_json(payload, out)
            return 130
        payload["records"] = rows
        _emit_json(payload, out)
        return 0

    fh = sys.stdout if out is None else open(out, "w", encoding="utf-8")
    try:
        for key, value in config.header_pairs(extra):
            fh.write(f"# {key}={value}\n")
        fh.write("d,kappa,ell,delta,n,I_n,err_est\n")
        fh.flush()

        def write_row(rec) -> None:
            fh.write(f"{rec.d},{rec.kappa!r},{rec.ell},{rec.delta!r},"
                     f"{rec.n},{rec.value!r},{rec.quad_error_estimate!r}\n")
            fh.flush()

        try:
            lebesgue_sweep(params, deltas, n_max, ell, sphere_order=order,
                           progress=write_row)
        except KeyboardInterrupt:
            return 130
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _cmd_bounds(args) -> int:
    d = _require_d(args)
    params = _params(args, d)
    check = _merged(args, "check", str)
    if check not in ("estimate", "kernel", "knd"):
        raise ValueError("--check must be one of estimate, kernel, knd")
    ell = _merged(args, "ell", int, 1)
    seed = _merged(args, "seed", int, _DEFAULT_SEED)
    out = _merged(args, "out", str)
    lam = float(params.lambda_kappa)

    n_values = _parse_int_list(
        _merged(args, "n", str, "32,64,128" if check == "knd" else "16,32,64,128"))
    if not n_values or min(n_values) < 1:
        raise ValueError("--n must list degrees >= 1")
    if check == "knd":
        alpha = _merged(args, "alpha", float, lam - 0.5)
        beta = _merged(args, "beta", float, lam - 0.5)
        delta = _merged(args, "delta", float, alpha + beta + 2.0)
        config = RunConfig(command="bounds", d=d, kappa=str(params.kappa), seed=seed)
        series = []
        for n_max in n_values:
            rep = knd_positivity_check(n_max, JacobiParams(alpha, beta), delta)
            series.append({"n": n_max, "fitted_c": rep["fitted_c"],
                           "min_value": rep["min_value"]})
        fitted = [row["fitted_c"] for row in series]
        payload = _json_header(config, {
            "check": check, "alpha": alpha, "beta": beta, "delta": delta})
        payload["fitted_c"] = fitted[-1]
        payload["ratio_series"] = series
        payload["stable"] = _stable(fitted)
        _emit_json(payload, out)
        return 0 if payload["stable"] else 1

    X = default_sample_points(d, seed)
    if check == "estimate":
        alpha = _merged(args, "alpha", float, (d - 1) * params.kappa_float + 0.5)
        beta = _merged(args, "beta", float, alpha)
        extra = {"check": check, "alpha": alpha, "beta": beta}
        series = [{"n": n, "max_ratio": estimate_check(n, params, alpha, beta, X, ell=ell)}
                  for n in n_values]
    else:
        delta = _merged(args, "delta", float, 1.5)
        extra = {"check": check, "delta": delta}
        series = [{"n": n, "max_ratio": kernel_bound_check(n, delta, ell, params, X)}
                  for n in n_values]
    ratios = [row["max_ratio"] for row in series]
    config = RunConfig(command="bounds", d=d, kappa=str(params.kappa),
                       ell=ell, seed=seed)
    payload = _json_header(config, extra)
    payload["fitted_c"] = max(ratios)
    payload["ratio_series"] = series
    payload["stable"] = _stable(ratios)
    _emit_json(payload, out)
    return 0 if payload["stable"] else 1


def _stable(values: list[float]) -> bool:
    """Consecutive n-doubling moves the fitted constant by at most 2x."""
    return all(
        prev > 0 and 0.5 <= cur / prev <= 2.0
        for prev, cur in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _require_d(args) -> int:
    return int(_required(args, "d"))


def _required(args, key: str):
    value = _merged(args, key, str)
    if value is None:
        raise ValueError(f"--{key.replace('_', '-')} is required")
    return value


def _params(args, d: int) -> KappaParams:
    kappa = _merged(args, "kappa", str)
    if kappa is None:
        raise ValueError("--kappa is required")
    return KappaParams.from_string(d, str(kappa))


def _add_common(p: argparse.ArgumentParser, *reads: str,
                quad_order: str | None = None) -> None:
    """Flags of every subcommand plus those of `reads`: ignored flags are
    refused.  quad_order, when given, adds --quad-order with that help text:
    which rule the order is of, and the subcommand's default."""
    p.add_argument("--config", help="key=value config file; flags take precedence")
    p.add_argument("--d", type=int, help="number of variables")
    p.add_argument("--kappa", help="multiplicity: 'p/q' exact or decimal")
    if quad_order is not None:
        p.add_argument("--quad-order", type=int, dest="quad_order", help=quad_order)
    if "tolerance" in reads:
        p.add_argument("--tolerance", type=float, help="verification tolerance")
    p.add_argument("--out", help="output path (.csv or .json); default stdout")
    if "seed" in reads:
        p.add_argument("--seed", type=int, help="seed for sampled points")


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
    p.add_argument("--max-degree", type=int, dest="max_degree",
                   help="check monomials up to this degree (default 6)")

    p = sub.add_parser("hbasis", help="orthonormal h-harmonic basis as JSON")
    _add_common(p, "tolerance",
                quad_order="sphere-rule order (default max(24, 2n + 12))")
    p.add_argument("--n", type=int, help="homogeneity degree")

    p = sub.add_parser("kernel", help="projection or Cesaro kernel at a point")
    _add_common(p)
    p.add_argument("--n", type=int, help="degree")
    p.add_argument("--ell", type=int, help="axis index, 1-based (default 1)")
    p.add_argument("--x", help="comma-separated point, projected to the sphere")
    p.add_argument("--delta", type=float,
                   help="Cesaro order; omit for the degree-n projection kernel")

    p = sub.add_parser("bessel", help="generalized Bessel function, all routes")
    _add_common(p, "tolerance", quad_order="simplex per-axis order (default 48)")
    p.add_argument("--y", help="comma-separated argument vector")
    p.add_argument("--path", choices=["direct", "closed", "recursive", "coset", "all"],
                   help="which route(s) to evaluate (default all)")
    p.add_argument("--argument", choices=["imaginary", "real"],
                   help="evaluate K(., iy) (default) or K(., y)")

    p = sub.add_parser("lebesgue", help="Lebesgue constant sweep")
    _add_common(p, quad_order="sphere-rule order (default n_max + 16)")
    p.add_argument("--ell", type=int, help="axis index, 1-based (default 1)")
    p.add_argument("--delta", help="comma list '1.0,1.5' or range 'a:b:step'")
    p.add_argument("--n-max", type=int, dest="n_max", help="sweep n = 1..n_max")

    p = sub.add_parser("bounds", help="fitted constants for the envelope checks")
    _add_common(p, "seed")
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    config_path = getattr(args, "config", None)
    options = set(vars(args)) - {"command", "config"}
    try:
        args._config_file = _load_config_file(config_path, options) if config_path else {}
        return _HANDLERS[args.command](args)
    except SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
