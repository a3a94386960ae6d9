"""Command-line interface: exit codes, output formats, determinism.

Every invocation goes through cli.main(argv), in-process except for one
fresh process in which scipy cannot be imported.  Output is captured with
redirect_stdout/redirect_stderr rather than capsys so the tests behave the
same whether or not pytest's capture is active.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from dunklsym import cli, harmonics, intertwine, simplexquad, summability
from dunklsym.harmonics import repro_kernel_axis
from dunklsym.polycore import KappaParams
from dunklsym.simplexquad import MomentValidationError
from dunklsym.summability import cesaro_kernel_axis


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_json(argv):
    rc, out, err = run_cli(argv)
    assert err == ""
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# usage errors and global flags
# ---------------------------------------------------------------------------


def test_no_command_is_usage_error():
    rc, out, err = run_cli([])
    assert rc == 2
    assert "usage" in err.lower()
    assert out == ""


def test_unknown_flag_is_usage_error():
    rc, _, _ = run_cli(["verify", "--no-such-flag"])
    assert rc == 2


def test_bad_subcommand_choice_is_usage_error():
    rc, _, _ = run_cli(["bounds", "--d", "2", "--kappa", "1", "--check", "nope"])
    assert rc == 2


def test_version_flag():
    rc, out, err = run_cli(["--version"])
    assert rc == 0
    assert out.strip() != ""


def test_missing_d_is_reported_not_raised():
    rc, out, err = run_cli(["verify", "--kappa", "1"])
    assert rc == 2
    assert err.startswith("error:")


def test_missing_kappa_is_reported():
    rc, _, err = run_cli(["verify", "--d", "2"])
    assert rc == 2
    assert "kappa" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_case_passes():
    rc, payload = run_json(
        ["verify", "--d", "2", "--kappa", "1", "--max-degree", "3"])
    assert rc == 0
    assert payload["command"] == "verify"
    assert payload["d"] == 2
    assert payload["kappa"] == "1"
    assert payload["max_degree"] == 3
    assert payload["passed"] is True
    assert payload["failed"] == []
    assert payload["checks"] > 0
    assert "version" in payload


def test_verify_fractional_kappa_string():
    rc, payload = run_json(
        ["verify", "--d", "2", "--kappa", "1/2", "--max-degree", "2"])
    assert rc == 0
    assert payload["kappa"] == "1/2"


def test_verify_negative_degree_is_refused():
    rc, out, err = run_cli(
        ["verify", "--d", "3", "--kappa", "1/2", "--max-degree", "-1"])
    assert rc == 2
    assert out == ""
    assert "max degree" in err


def test_hbasis_oversized_sphere_rule_is_refused(monkeypatch):
    # order 400 at d = 4 asks for 128 M nodes: refused before any Gauss rule
    def no_gauss_rule(*args):
        raise AssertionError("a Gauss rule was built for a refused sphere rule")

    monkeypatch.setattr(harmonics, "gauss_jacobi", no_gauss_rule)
    rc, out, err = run_cli(
        ["hbasis", "--d", "4", "--kappa", "1", "--n", "2", "--quad-order", "400"])
    assert rc == 2
    assert out == ""
    assert "128000000 nodes" in err


def test_verify_failure_exits_one(monkeypatch):
    # exit-code wiring: a failing report must surface as exit 1
    fake = {"passed": False, "checks": 7,
            "failed": [{"ell": 1, "n": 2, "i": 1, "deviation": 1.0}]}
    monkeypatch.setattr(cli, "verify_intertwining", lambda *a, **k: fake)
    rc, payload = run_json(["verify", "--d", "2", "--kappa", "1"])
    assert rc == 1
    assert payload["passed"] is False
    assert payload["failed"][0]["n"] == 2
    assert payload["failed"][0]["kappa"] == "1"


def test_failed_self_check_exits_one(monkeypatch):
    def failing_rule(*args):
        raise MomentValidationError("moment validation failed")

    # the rule the kernel builds for itself comes from intertwine
    monkeypatch.setattr(intertwine, "build_rule", failing_rule)
    rc, out, err = run_cli(["kernel", "--d", "3", "--kappa", "1", "--n", "2",
                            "--x", "0.6,0.8,0"])
    assert rc == 1
    assert out == ""
    assert "moment validation failed" in err


# ---------------------------------------------------------------------------
# hbasis and config files
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_reused(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\nkappa = 1\nn = 2\nquad-order = 30\n", encoding="utf-8")
    calls = [
        ["hbasis", "--config", str(cfg)],
        ["verify", "--d", "2", "--kappa", "1", "--max-degree", "2"],
        ["kernel", "--d", "3", "--kappa", "1/2", "--n", "3", "--x", "0.6,0.8,0",
         "--delta", "1.5"],
        ["kernel", "--d", "3", "--kappa", "1", "--n", "2", "--tolerance", "1"],
        ["bessel", "--d", "3", "--kappa", "1", "--y", "0.3,-0.2,0.5"],
        ["hbasis", "--d", "2", "--kappa", "1", "--n", "2"],
        ["lebesgue", "--d", "2", "--kappa", "1", "--delta", "1", "--n-max", "3"],
        ["bounds", "--d", "2", "--kappa", "1", "--check", "knd", "--n", "8,16"],
    ]
    first = []
    for argv in calls:
        cli._build_parser.cache_clear()
        first.append(run_cli(argv))
    assert [rc for rc, _, _ in first] == [0, 0, 0, 2, 0, 0, 0, 0]
    assert "unrecognized arguments: --tolerance" in first[3][2]
    # the config file's order does not outlive its call
    assert json.loads(first[0][1])["quad_order"] == 30
    assert json.loads(first[5][1])["quad_order"] == 24
    cli._build_parser.cache_clear()
    assert [run_cli(argv) for argv in calls] == first
    assert cli._build_parser.cache_info().misses == 1


def test_hbasis_reads_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample run\n"
        "\n"
        "d = 3\n"
        "kappa = 1\n"
        "n = 1          # overridden by the flag below\n"
        "quad-order = 24\n",
        encoding="utf-8")
    rc, payload = run_json(["hbasis", "--config", str(cfg), "--n", "2"])
    assert rc == 0
    assert payload["d"] == 3
    assert payload["n"] == 2           # flag beats config
    assert payload["quad_order"] == 24  # config fills the gap
    assert payload["dim"] == 5          # degree-2 harmonics in 3 variables
    assert payload["gram_residual"] <= 1e-8
    assert payload["gram_cond"] >= 1.0
    assert len(payload["basis"]) == 5
    assert isinstance(payload["basis"][0], dict)


def test_config_file_rejects_non_assignment_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n", encoding="utf-8")
    rc, _, err = run_cli(["hbasis", "--config", str(cfg), "--n", "1"])
    assert rc == 2
    assert "key=value" in err


def test_hbasis_requires_n():
    rc, _, err = run_cli(["hbasis", "--d", "2", "--kappa", "1"])
    assert rc == 2
    assert "--n is required" in err


@pytest.mark.parametrize("kappa", ["1/2", "1/3"])
def test_hbasis_refuses_a_kink_rule_order_that_fails_its_mass_check(kappa):
    # the d = 3 rule split at the kinks of the weight misses the surface area
    # by about 2e-9 at order 4; order 5 builds
    argv = ["hbasis", "--d", "3", "--kappa", kappa, "--n", "2", "--quad-order"]
    rc, out, err = run_cli(argv + ["4"])
    assert rc == 2
    assert out == ""
    assert "sphere order must be >= 5" in err
    # order 5 builds; so coarse a rule leaves the basis outside the Gram
    # check's default tolerance, which is exit 1 with the basis written
    rc, out, _ = run_cli(argv + ["5"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["dim"] == 5 and payload["gram_residual"] > 1e-8


def test_hbasis_on_a_coarse_fractional_rule_still_fails():
    # at kappa 1/3 the default order-24 rule leaves a Gram residual of about
    # 3e-5: summing half of each rule, doubled, must not hide it
    rc, out, _ = run_cli(["hbasis", "--d", "3", "--kappa", "1/3", "--n", "6"])
    assert rc == 1
    assert json.loads(out)["gram_residual"] > 1e-8


@pytest.mark.parametrize("d, kappa, n", [("3", "2", "8"), ("4", "1", "8"), ("4", "1", "10")])
def test_hbasis_passes_its_gram_check_at_the_default_order(d, kappa, n):
    # bases of the Laplacian nullspace missed 1e-8 here (2.1e-7 and 3.5e-8),
    # and at d = 4, n = 10 their Gram matrix was not positive definite
    rc, payload = run_json(["hbasis", "--d", d, "--kappa", kappa, "--n", n])
    assert rc == 0
    assert payload["quad_order"] == max(24, 2 * int(n) + 12)
    assert payload["gram_residual"] <= 1e-12


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["hbasis", "bessel"])
def test_bad_tolerance_is_usage_error(tmp_path, command, source, value):
    # a NaN or negative bound fails every check and an infinite one passes
    # every check, so the run is refused before it writes anything
    argv = list(BASE_ARGV[command])
    if source == "flag":
        argv.append(f"--tolerance={value}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tolerance = {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    rc, out, err = run_cli(argv)
    assert rc == 2
    assert out == ""
    assert "--tolerance must be finite and >= 0" in err


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_projection_matches_library():
    rc, payload = run_json(
        ["kernel", "--d", "2", "--kappa", "1", "--n", "2", "--x", "1,0"])
    assert rc == 0
    assert payload["kind"] == "projection"
    assert payload["x"] == [1.0, 0.0]
    kp = KappaParams(2, 1)
    want = repro_kernel_axis(2, 1, np.array([1.0, 0.0]), kp)
    assert payload["value"] == pytest.approx(want, rel=1e-12)


def test_kernel_input_point_is_projected_to_sphere():
    _, p_unit = run_json(
        ["kernel", "--d", "2", "--kappa", "1", "--n", "2", "--x", "1,0"])
    _, p_scaled = run_json(
        ["kernel", "--d", "2", "--kappa", "1", "--n", "2", "--x", "7,0"])
    assert p_scaled["value"] == p_unit["value"]


def test_kernel_cesaro_matches_library():
    rc, payload = run_json(
        ["kernel", "--d", "2", "--kappa", "1", "--n", "3",
         "--x", "0.6,0.8", "--delta", "1.5"])
    assert rc == 0
    assert payload["kind"] == "cesaro"
    assert payload["delta"] == 1.5
    kp = KappaParams(2, 1)
    want = cesaro_kernel_axis(3, 1.5, 1, np.array([0.6, 0.8]), kp)
    assert payload["value"] == pytest.approx(want, rel=1e-12)


def test_kernel_at_lambda_zero_is_twice_chebyshev():
    rc, payload = run_json(
        ["kernel", "--d", "2", "--kappa", "0", "--n", "3", "--x", "0.6,0.8"])
    assert rc == 0
    assert abs(payload["value"] - 2 * (4 * 0.6**3 - 3 * 0.6)) < 1e-13  # 2 T_3(0.6)


@pytest.mark.parametrize("delta", [[], ["--delta", "1.5"]], ids=["projection", "cesaro"])
def test_kernel_header_reports_the_order_it_built(monkeypatch, delta):
    built = []
    real_build = intertwine.build_rule

    def recording_build(d, kappa, order):
        built.append(order)
        return real_build(d, kappa, order)

    monkeypatch.setattr(intertwine, "build_rule", recording_build)
    rc, payload = run_json(["kernel", "--d", "3", "--kappa", "1/2", "--n", "7",
                            "--x", "0.6,0.8,0"] + delta)
    assert rc == 0
    assert built and set(built) == {payload["quad_order"]}


@pytest.mark.parametrize("delta", [[], ["--delta", "1.5"]], ids=["projection", "cesaro"])
def test_kernel_builds_its_rule_once_above_the_rule_cache(monkeypatch, delta):
    # a rule over the cache's budget is not kept, so a second look-up of it
    # would build and moment-check it again
    monkeypatch.setattr(simplexquad, "CHUNK_ELEMENTS", 100)
    monkeypatch.setattr(simplexquad, "_RULES", type(simplexquad._RULES)())
    built = []
    real_new = simplexquad._new_rule

    def recording_new(d, kappa, order):
        built.append(order)
        return real_new(d, kappa, order)

    monkeypatch.setattr(simplexquad, "_new_rule", recording_new)
    for _ in range(2):
        built.clear()
        # order 6 at n = 10: 36 nodes, and 144 elements with the weights
        rc, payload = run_json(["kernel", "--d", "3", "--kappa", "1/2", "--n", "10",
                                "--x", "0.6,0.8,0"] + delta)
        assert rc == 0
        assert built == [payload["quad_order"]] == [6]


def test_kernel_zero_point_is_error():
    rc, _, err = run_cli(
        ["kernel", "--d", "2", "--kappa", "1", "--n", "2", "--x", "0,0"])
    assert rc == 2
    assert "nonzero" in err


@pytest.mark.parametrize("kappa", ["1", "0"])
@pytest.mark.parametrize("delta", [[], ["--delta", "1.5"]], ids=["projection", "cesaro"])
def test_kernel_negative_degree_is_usage_error(kappa, delta):
    rc, out, err = run_cli(["kernel", "--d", "3", "--kappa", kappa, "--n", "-1",
                            "--x", "0.6,0.8,0"] + delta)
    assert rc == 2
    assert out == ""
    assert "degree must be >= 0" in err


def test_kernel_wrong_point_length_is_error():
    rc, _, err = run_cli(
        ["kernel", "--d", "3", "--kappa", "1", "--n", "2", "--x", "1,0"])
    assert rc == 2
    assert "3 comma-separated values" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["kernel", "--d", "3", "--kappa", "0", "--n", "3", "--x"],
    ["kernel", "--d", "3", "--kappa", "1", "--n", "3", "--delta", "1.5", "--x"],
    ["bessel", "--d", "3", "--kappa", "1", "--y"],
    ["bessel", "--d", "3", "--kappa", "0", "--y"],
], ids=["kernel-0", "cesaro-1", "bessel-1", "bessel-0"])
def test_non_finite_coordinate_is_usage_error(argv, bad):
    rc, out, err = run_cli(argv[:-1] + [f"{argv[-1]}={bad},0,0"])
    assert rc == 2
    assert out == ""
    assert "must be finite" in err


# ---------------------------------------------------------------------------
# bessel
# ---------------------------------------------------------------------------


def test_bessel_all_routes_d2():
    rc, payload = run_json(
        ["bessel", "--d", "2", "--kappa", "1", "--y", "0.3,-0.2"])
    assert rc == 0
    assert sorted(payload["paths"]) == ["closed", "coset", "direct"]
    assert set(payload["pairwise_deviations"]) == {
        "closed_vs_coset", "closed_vs_direct", "coset_vs_direct"}
    assert payload["max_deviation"] <= 1e-9
    for pair in payload["paths"].values():
        assert len(pair) == 2  # [re, im]


def test_bessel_all_routes_d3_skips_closed():
    rc, payload = run_json(
        ["bessel", "--d", "3", "--kappa", "1/2", "--y", "0.4,0.1,-0.3"])
    assert rc == 0
    assert sorted(payload["paths"]) == ["coset", "direct", "recursive"]
    assert payload["max_deviation"] <= 1e-9


def test_bessel_tolerance_is_relative_to_the_value():
    # routes that agree to 2e-15 relative on a value of 1.2e7 deviate by
    # 2e-8 absolute: that passes the default 1e-9, scaled by max(1, |value|)
    argv = ["bessel", "--d", "3", "--kappa", "1/2", "--y=20,-10,5", "--argument", "real"]
    rc, payload = run_json(argv)
    assert rc == 0
    value = max(abs(complex(*pair)) for pair in payload["paths"].values())
    assert value > 1e7 and 1e-9 < payload["max_deviation"] <= 1e-9 * value
    rc, payload = run_json(argv + ["--tolerance", "1e-30"])
    assert rc == 1 and payload["max_deviation"] > 1e-30 * value


def test_bessel_explicit_closed_needs_d2():
    rc, _, err = run_cli(
        ["bessel", "--d", "3", "--kappa", "1", "--y", "0.1,0.2,0.3",
         "--path", "closed"])
    assert rc == 2
    assert "closed form needs d = 2" in err


def test_bessel_recursive_path_at_kappa_zero_is_usage_error():
    rc, out, err = run_cli(
        ["bessel", "--d", "3", "--kappa", "0", "--y", "0.1,0.2,0.3",
         "--path", "recursive"])
    assert rc == 2
    assert out == ""
    assert "recursion needs d >= 3 and kappa > 0" in err


@pytest.mark.parametrize("argv, message", [
    (["--d", "2", "--path", "closed", "--argument", "real"], "imaginary argument"),
    (["--d", "3", "--path", "closed"], "closed form needs d = 2"),
    (["--d", "2", "--path", "recursive"], "recursion needs d >= 3"),
])
def test_bessel_unavailable_route_is_refused_before_any_rule(monkeypatch, argv, message):
    def no_rule(*args):
        raise AssertionError("a rule or its order was computed for a refused route")

    monkeypatch.setattr(intertwine, "build_rule", no_rule)
    monkeypatch.setattr(cli, "exponential_order", no_rule)
    y = "0.3,-0.2" if argv[1] == "2" else "0.3,-0.2,0.1"
    rc, out, err = run_cli(["bessel", "--kappa", "1", "--y", y] + argv)
    assert rc == 2
    assert out == ""
    assert message in err


def test_bessel_unknown_path_from_config_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("path = nope\n", encoding="utf-8")
    for kappa in ("0", "1"):
        rc, out, err = run_cli(["bessel", "--d", "2", "--kappa", kappa,
                                "--y", "0.3,-0.2", "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert "invalid choice: 'nope'" in err


def test_bessel_coset_path_alone():
    rc, payload = run_json(
        ["bessel", "--d", "3", "--kappa", "1", "--y", "0.4,0.1,-0.3",
         "--path", "coset"])
    assert rc == 0
    assert list(payload["paths"]) == ["coset"]
    assert payload["pairwise_deviations"] == {}


@pytest.mark.parametrize("argv", [
    ["--d", "4", "--kappa", "1", "--y", "0.3,-0.9,0.5,1", "--path", "direct"],
    ["--d", "3", "--kappa", "1/2", "--y=100,-100,30", "--path", "coset"],
    ["--d", "2", "--kappa", "3/2", "--y", "5,-2", "--argument", "real"],
])
def test_bessel_header_reports_the_order_it_built(monkeypatch, argv):
    built = []
    real_build = intertwine.build_rule

    def recording_build(d, kappa, order):
        built.append(order)
        return real_build(d, kappa, order)

    monkeypatch.setattr(intertwine, "build_rule", recording_build)
    rc, payload = run_json(["bessel"] + argv)
    assert rc == 0
    assert built and set(built) == {payload["quad_order"]}


def test_bessel_oversized_argument_is_usage_error():
    rc, out, err = run_cli(["bessel", "--d", "4", "--kappa", "1",
                            "--y=300,-300,0,0", "--path", "direct"])
    assert rc == 2
    assert out == ""
    assert "nodes" in err


@pytest.mark.parametrize("path, code", [
    ("all", 2), ("closed", 2), ("direct", 0), ("coset", 0),
])
def test_bessel_closed_phase_overflow_is_usage_error(path, code):
    # y_1 + y_2 overflows in the closed form's phase, which would print NaN;
    # the simplex routes take the pairing <x, t> y with x = e_1 and stay finite
    rc, out, err = run_cli(["bessel", "--d", "2", "--kappa", "1", "--y=1e308,1e308",
                            "--path", path])
    assert rc == code
    if code == 2:
        assert out == ""
        assert "an argument is too large" in err and "phase" in err
    else:
        assert np.isfinite(json.loads(out)["paths"][path]).all()


@pytest.mark.parametrize("path", ["all", "coset"])
def test_bessel_non_finite_route_value_fails(monkeypatch, path):
    # a NaN value or deviation must fail the check: max() would drop it
    real = cli.bessel_k

    def nan_coset(params, y, path, imaginary):
        value = real(params, y, path=path, imaginary=imaginary)
        return complex(np.nan, np.nan) if path == "coset" else value

    monkeypatch.setattr(cli, "bessel_k", nan_coset)
    rc, out, err = run_cli(["bessel", "--d", "3", "--kappa", "1", "--y", "0.4,0.1,-0.3",
                            "--path", path])
    assert rc == 1
    payload = json.loads(out)
    assert (path == "all") == np.isnan(payload["max_deviation"])


@pytest.mark.parametrize("argv", [
    ["kernel", "--d", "4", "--kappa", "1", "--n", "400", "--x", "0.6,0.8,0,0"],
    ["kernel", "--d", "3", "--kappa", "1", "--n", "100000", "--x", "0.6,0.8,0"],
    ["bounds", "--d", "4", "--kappa", "1", "--check", "kernel", "--n", "4000"],
], ids=["kernel-d4", "kernel-d3", "bounds-kernel-d4"])
def test_oversized_rule_is_usage_error_before_any_node(monkeypatch, argv):
    def no_nodes(*args):
        raise AssertionError("nodes were computed for an oversized rule")

    simplexquad._RULES.clear()  # no kept rule stands in for a built one
    monkeypatch.setattr(simplexquad, "gauss_jacobi01", no_nodes)
    rc, out, err = run_cli(argv)
    assert rc == 2
    assert out == ""
    assert "nodes" in err


def test_oversized_d2_bessel_rule_is_refused_before_any_node(monkeypatch):
    # half-range 1e5 needs order 67 974; its Jacobi matrix alone is over the
    # element budget, so gauss_jacobi01 refuses it before forming the matrix,
    # and the closed form, which builds no rule, still runs
    def no_nodes(*args, **kwargs):
        raise AssertionError("nodes were computed for an oversized rule")

    simplexquad._RULES.clear()
    monkeypatch.setattr(simplexquad.np.linalg, "eigvalsh", no_nodes)
    argv = ["bessel", "--d", "2", "--kappa", "1/2", "--y=1e5,-1e5"]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert "Jacobi matrix" in err and "--path closed" in err
    rc, payload = run_json(argv + ["--path", "closed"])
    assert rc == 0 and list(payload["paths"]) == ["closed"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--d", "4", "--kappa", "0", "--n", "400", "--x", "0.6,0.8,0,0"],
    ["bessel", "--d", "4", "--kappa", "0", "--y=1e7,-1e7,0,0"],
], ids=["kernel", "bessel"])
def test_kappa_zero_runs_on_the_vertex_rule_at_any_size(argv):
    rc, payload = run_json(argv)
    assert rc == 0
    assert "quad_order" not in payload  # the vertex rule's order counts no nodes


def test_bessel_validates_each_distinct_rule_once(monkeypatch):
    built, validated = [], []
    real_build, real_validate = intertwine.build_rule, simplexquad._validate_moments

    def recording_build(d, kappa, order):
        built.append((d, float(kappa), order))
        return real_build(d, kappa, order)

    def recording_validate(rule, degree):
        validated.append((rule.d, rule.kappa, rule.order))
        return real_validate(rule, degree)

    simplexquad._RULES.clear()
    monkeypatch.setattr(intertwine, "build_rule", recording_build)
    monkeypatch.setattr(simplexquad, "_validate_moments", recording_validate)
    rc, payload = run_json(["bessel", "--d", "3", "--kappa", "1", "--y", "0.4,0.1,-0.3"])
    assert rc == 0
    assert sorted(payload["paths"]) == ["coset", "direct", "recursive"]
    # direct and coset share the rule for y; the recursion builds its own
    assert len(built) > len(set(built))
    assert sorted(validated) == sorted(set(built))


def test_bessel_real_argument_is_real_valued():
    rc, payload = run_json(
        ["bessel", "--d", "2", "--kappa", "1", "--y", "0.5,-0.1",
         "--argument", "real", "--path", "direct"])
    assert rc == 0
    (re, im), = payload["paths"].values()
    assert im == 0.0
    assert re > 0.0


# ---------------------------------------------------------------------------
# lebesgue sweeps
# ---------------------------------------------------------------------------

SWEEP_ARGS = ["lebesgue", "--d", "2", "--kappa", "1", "--delta", "0.5,1.0",
              "--n-max", "4", "--quad-order", "24"]


def parse_csv(text):
    header, rows = {}, []
    lines = text.splitlines()
    for line in lines:
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            header[key] = value
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "d,kappa,ell,delta,n,I_n,err_est"
    for line in body[1:]:
        d, kappa, ell, delta, n, value, err = line.split(",")
        rows.append((int(d), float(kappa), int(ell), float(delta),
                     int(n), float(value), float(err)))
    return header, rows


def test_lebesgue_csv_layout():
    rc, out, err = run_cli(SWEEP_ARGS)
    assert rc == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header["command"] == "lebesgue"
    assert header["d"] == "2"
    assert header["kappa"] == "1"
    assert header["delta"] == "0.5,1.0"
    assert header["n_max"] == "4"
    assert float(header["critical_delta"]) == 0.0
    assert "version" in header and "seed" in header
    assert len(rows) == 2 * 4
    assert [(r[3], r[4]) for r in rows] == [
        (dl, n) for dl in (0.5, 1.0) for n in (1, 2, 3, 4)]
    for r in rows:
        assert r[0] == 2 and r[1] == 1.0 and r[2] == 1
        assert r[5] > 0.9          # sup of |S_n^delta| is at least about 1
        assert 0 <= r[6] < 0.05    # quadrature error estimate stays small


def test_lebesgue_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, out1, _ = run_cli(SWEEP_ARGS + ["--out", str(a)])
    rc2, out2, _ = run_cli(SWEEP_ARGS + ["--out", str(b)])
    assert rc1 == rc2 == 0
    assert out1 == out2 == ""
    assert a.read_bytes() == b.read_bytes()
    # stdout mode emits the same bytes as the file
    _, streamed, _ = run_cli(SWEEP_ARGS)
    assert streamed == a.read_text(encoding="utf-8")


def test_lebesgue_delta_range_syntax():
    rc, out, _ = run_cli(
        ["lebesgue", "--d", "2", "--kappa", "1", "--delta", "0.5:1.5:0.5",
         "--n-max", "2", "--quad-order", "24"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header["delta"] == "0.5,1.0,1.5"
    assert sorted({r[3] for r in rows}) == [0.5, 1.0, 1.5]
    assert len(rows) == 3 * 2


def test_lebesgue_json_out(tmp_path):
    path = tmp_path / "sweep.json"
    rc, out, _ = run_cli(SWEEP_ARGS + ["--out", str(path)])
    assert rc == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["command"] == "lebesgue"
    assert len(payload["records"]) == 8
    first = payload["records"][0]
    assert set(first) == {"d", "kappa", "ell", "delta", "n", "I_n", "err_est"}
    assert first["delta"] == 0.5 and first["n"] == 1


def test_lebesgue_requires_n_max():
    rc, _, err = run_cli(
        ["lebesgue", "--d", "2", "--kappa", "1", "--delta", "1.0"])
    assert rc == 2
    assert "--n-max is required" in err


@pytest.mark.parametrize("bad", [
    ["--d", "5"],            # no sphere rule for S^4
    ["--ell", "3"],          # axis outside 1..d
    ["--delta", "-1.5"],     # Cesaro order must exceed -1
    ["--delta", "nan"],
    ["--delta", "inf"],
    ["--quad-order", "2"],   # sphere order below the floor of every rule
    # an error-estimate rule of order max(5, 3 order // 4) = 5, no coarser
    # than the main rule
    ["--d", "3", "--kappa", "1/2", "--quad-order", "5"],
    ["--d", "4", "--kappa", "1/2", "--ell", "1"],  # no kink-split rule on S^3
    ["--quad-order", "4"],   # a rule order below the floor
])
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_lebesgue_bad_input_writes_nothing(tmp_path, bad, suffix):
    argv = SWEEP_ARGS + bad
    rc, out, err = run_cli(argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    path = tmp_path / f"sweep{suffix}"
    rc, out, _ = run_cli(argv + ["--out", str(path)])
    assert rc == 2
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("order", ["4", "5", "6"])
def test_lebesgue_names_the_smallest_order_a_kink_rule_accepts(order):
    # the error estimate's rule has order max(5, 3 order // 4), which must be
    # below the main order: 5 from order 6 on, and no coarser rule below it,
    # whichever rule family the weight takes
    for d, kappa, shown in (("3", "1/2", "0.5"), ("3", "1", "1.0"), ("2", "1/2", "0.5")):
        rc, out, err = run_cli(["lebesgue", "--d", d, "--kappa", kappa, "--delta", "1",
                                "--n-max", "2", "--quad-order", order])
        if order == "6":
            assert rc == 0
            assert out.splitlines()[-1].startswith(f"{d},{shown},1,1.0,2,")
        else:
            assert (rc, out) == (2, "")
            assert "sphere order must be >= 6" in err


@pytest.mark.parametrize("argv", [
    ["kernel", "--d", "2", "--kappa", "1e300", "--n", "2", "--x", "0.6,0.8"],
    ["kernel", "--d", "2", "--kappa", "1e400", "--n", "2", "--x", "0.6,0.8"],
    ["bessel", "--d", "3", "--kappa", "1e300", "--y", "0.3,-0.2,0.1"],
    # a_kappa overflows before the header, not after it in the exact table's
    # loop over N = d kappa
    ["lebesgue", "--d", "3", "--kappa", "100000", "--delta", "1", "--n-max", "3"],
    ["lebesgue", "--d", "3", "--kappa", "1e300", "--delta", "1", "--n-max", "3"],
])
def test_overflowing_kappa_is_a_usage_error(argv):
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["kernel", "--d", "3", "--kappa", "501/2", "--n", "2", "--x", "0.6,0.8,0"],
    ["bessel", "--d", "3", "--kappa", "501/2", "--y=0.1,0.2,0.3"],
    ["bounds", "--d", "3", "--kappa", "501/2", "--check", "estimate", "--n", "4"],
    ["lebesgue", "--d", "3", "--kappa", "501/2", "--delta", "1", "--n-max", "3"],
    ["lebesgue", "--d", "3", "--kappa", "350", "--delta", "1", "--n-max", "3"],
    ["lebesgue", "--d", "3", "--kappa", "400", "--delta", "1", "--n-max", "3"],
], ids=["kernel", "bessel", "bounds", "lebesgue-tensor", "lebesgue-350", "lebesgue-400"])
def test_kappa_out_of_float_range_is_refused_before_any_work(monkeypatch, argv):
    # the simplex mass Gamma(kappa)^3 / Gamma(3 kappa) underflows at 501/2,
    # and the exact sweep table's row factors at 350 and 400
    def no_work(*args, **kwargs):
        raise AssertionError("work was done for a kappa out of float range")

    simplexquad._RULES.clear()  # no kept rule stands in for a built one
    monkeypatch.setattr(simplexquad, "gauss_jacobi01", no_work)
    monkeypatch.setattr(summability, "_sweep_values", no_work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert "not a normal float" in err


def test_verify_takes_a_kappa_whose_floats_overflow():
    # the identities are exact, so they need no float of kappa
    rc, out, _ = run_cli(["verify", "--d", "3", "--kappa", "1e300"])
    assert rc == 0 and json.loads(out)["passed"]


def test_lebesgue_overflowing_exact_table_is_usage_error_after_the_header():
    # kappa 250 passes check_sweep (its row factors are normal floats), so
    # the header is out when the table's recurrence overflows: exit 2 and no
    # data row, with no RuntimeWarning on the way
    argv = ["lebesgue", "--d", "3", "--kappa", "250", "--delta", "1", "--n-max", "3",
            "--quad-order", "12"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(argv)
    assert rc == 2
    assert "kappa = 250 at d = 3" in err and "overflows" in err
    header, rows = parse_csv(out)
    assert header["kappa"] == "250" and rows == []


def test_lebesgue_default_order_integrates_h2_and_a_short_order_fails():
    # at (3, 10) h^2 has degree 60: the default order is 42, not n_max + 16 =
    # 24, whose rules miss the h^2 mass by 2.9e-6 and 1.1e-3
    argv = ["lebesgue", "--d", "3", "--kappa", "10", "--delta", "1", "--n-max", "8"]
    rc, out, err = run_cli(argv)
    header, rows = parse_csv(out)
    assert (rc, err, header["quad_order"], len(rows)) == (0, "", "42", 8)
    rc, out, err = run_cli(argv + ["--quad-order", "24"])
    header, rows = parse_csv(out)
    assert (rc, header["quad_order"], rows) == (1, "24", [])
    assert "h^2 mass" in err and "order 42 does" in err


def test_lebesgue_non_finite_sum_writes_the_header_only(monkeypatch):
    real = summability._sweep_values

    def values(*args):
        out = real(*args)
        out[1.0][3] = np.nan
        return out

    monkeypatch.setattr(summability, "_sweep_values", values)
    rc, out, err = run_cli(SWEEP_ARGS)
    assert rc == 1
    assert "not finite" in err
    header, rows = parse_csv(out)
    assert header["command"] == "lebesgue" and rows == []


def test_lebesgue_interrupt_leaves_valid_partial_csv(tmp_path, monkeypatch):
    def interrupted_sweep(params, deltas, n_max, ell, sphere_order=None,
                          progress=None):
        for n in (1, 2, 3):
            progress(types.SimpleNamespace(
                d=params.d, kappa=params.kappa_float, ell=ell,
                delta=deltas[0], n=n, value=1.0 + 0.1 * n,
                quad_error_estimate=1e-12))
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "lebesgue_sweep", interrupted_sweep)
    path = tmp_path / "partial.csv"
    rc, out, err = run_cli(SWEEP_ARGS + ["--out", str(path)])
    assert rc == 130
    header, rows = parse_csv(path.read_text(encoding="utf-8"))
    assert header["command"] == "lebesgue"
    assert len(rows) == 3
    assert [r[4] for r in rows] == [1, 2, 3]

    jpath = tmp_path / "partial.json"
    rc, _, _ = run_cli(SWEEP_ARGS + ["--out", str(jpath)])
    assert rc == 130
    payload = json.loads(jpath.read_text(encoding="utf-8"))
    assert [r["n"] for r in payload["records"]] == [1, 2, 3]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_knd_payload_and_exit():
    rc, payload = run_json(
        ["bounds", "--d", "2", "--kappa", "1", "--check", "knd",
         "--n", "32,64"])
    assert rc == 0
    assert payload["check"] == "knd"
    assert payload["alpha"] == 0.5 and payload["beta"] == 0.5
    assert payload["delta"] == 3.0
    assert payload["stable"] is True
    assert payload["fitted_c"] > 0
    assert [row["n"] for row in payload["ratio_series"]] == [32, 64]
    for row in payload["ratio_series"]:
        assert row["min_value"] >= -1e-10
        assert row["fitted_c"] > 0


def test_bounds_unstable_series_exits_one(monkeypatch):
    values = iter([1.0, 10.0])
    monkeypatch.setattr(
        cli, "knd_positivity_check",
        lambda n, jac, delta: {"fitted_c": next(values), "min_value": 0.0})
    rc, payload = run_json(
        ["bounds", "--d", "2", "--kappa", "1", "--check", "knd",
         "--n", "8,16"])
    assert rc == 1
    assert payload["stable"] is False
    assert payload["fitted_c"] == 10.0


def test_bounds_kernel_check_runs():
    rc, payload = run_json(
        ["bounds", "--d", "2", "--kappa", "1", "--check", "kernel",
         "--n", "8,16", "--delta", "1.5"])
    assert rc == 0
    assert payload["check"] == "kernel"
    assert payload["delta"] == 1.5
    assert all(row["max_ratio"] >= 0 for row in payload["ratio_series"])


@pytest.mark.parametrize("check, kappa", [("estimate", "401/2"), ("kernel", "80")])
def test_bounds_with_an_overflowing_envelope_is_usage_error(check, kappa):
    # at kappa 401/2 the estimate envelope's factor |x_j - x_i|^(-kappa)
    # overflows at a finite gap, and at kappa 80 the kernel envelope's sum
    # times its front factor n^(lambda - (d-1) kappa - delta) does; a ratio
    # against either would read 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(["bounds", "--d", "3", "--kappa", kappa,
                                "--check", check, "--n", "4,8"])
    assert (rc, out) == (2, "")
    assert "envelope" in err and "overflows" in err


@pytest.mark.parametrize("ell", ["0", "4"])
def test_bounds_axis_outside_one_to_d_is_usage_error(ell):
    rc, out, err = run_cli(
        ["bounds", "--d", "3", "--kappa", "1", "--check", "estimate",
         "--ell", ell, "--n", "16,32"])
    assert rc == 2
    assert out == ""
    assert "axis" in err


@pytest.mark.parametrize("check", ["estimate", "kernel", "knd"])
@pytest.mark.parametrize("n_list", ["0,16", "16,-1", "", ","])
def test_bounds_degree_list_must_be_positive_and_nonempty(check, n_list):
    rc, out, err = run_cli(["bounds", "--d", "2", "--kappa", "1", "--check", check,
                            "--n", n_list])
    assert rc == 2
    assert out == ""
    assert "--n must list degrees >= 1" in err


@pytest.mark.parametrize("check, flag", [
    ("knd", "ell"), ("kernel", "alpha"), ("kernel", "beta"), ("estimate", "delta")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bounds_flag_the_check_ignores_is_usage_error(tmp_path, check, flag, source):
    argv = ["bounds", "--d", "3", "--kappa", "1", "--check", check, "--n", "8,16"]
    if source == "flag":
        argv += [f"--{flag}", "2"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = 2\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    rc, out, err = run_cli(argv)
    assert rc == 2
    assert out == ""
    assert f"--{flag} is not read by --check {check}" in err


@pytest.mark.parametrize("flag, value", [("delta", "inf"), ("alpha", "nan"), ("beta", "inf")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bounds_knd_non_finite_parameter_is_usage_error(tmp_path, flag, value, source):
    # a non-finite Cesaro order or Jacobi exponent is refused before any
    # output: an infinite order would pass as "stable", with Infinity (not
    # JSON) in the payload
    argv = ["bounds", "--d", "3", "--kappa", "1", "--check", "knd", "--n", "8"]
    if source == "flag":
        argv.append(f"--{flag}={value}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    rc, out, err = run_cli(argv)
    assert rc == 2
    assert out == ""
    assert "finite" in err


def test_bounds_requires_check():
    rc, _, err = run_cli(["bounds", "--d", "2", "--kappa", "1"])
    assert rc == 2
    assert "--check must be one of" in err


# ---------------------------------------------------------------------------
# options a subcommand does not read are refused
# ---------------------------------------------------------------------------

BASE_ARGV = {
    "verify": ["verify", "--d", "2", "--kappa", "1"],
    "hbasis": ["hbasis", "--d", "2", "--kappa", "1", "--n", "1"],
    "kernel": ["kernel", "--d", "2", "--kappa", "1", "--n", "2", "--x", "0.6,0.8"],
    "bessel": ["bessel", "--d", "2", "--kappa", "1", "--y", "0.3,-0.2"],
    "lebesgue": ["lebesgue", "--d", "2", "--kappa", "1", "--delta", "1.5",
                 "--n-max", "2"],
    "bounds": ["bounds", "--d", "2", "--kappa", "1", "--check", "knd", "--n", "8"],
}
IGNORED_FLAGS = [
    ("verify", "--seed", "7"), ("verify", "--tolerance", "0.5"),
    ("verify", "--quad-order", "30"), ("hbasis", "--seed", "7"),
    ("kernel", "--seed", "7"), ("kernel", "--tolerance", "0.5"),
    ("bessel", "--seed", "7"), ("lebesgue", "--seed", "7"),
    ("lebesgue", "--tolerance", "0.5"), ("bounds", "--tolerance", "0.5"),
    ("bounds", "--quad-order", "30"), ("kernel", "--quad-order", "30"),
    ("bessel", "--quad-order", "30"),
]


@pytest.mark.parametrize("command", sorted(BASE_ARGV))
def test_base_argv_runs(command):
    rc, out, _ = run_cli(BASE_ARGV[command])
    assert rc == 0
    assert out


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS)
def test_flag_the_subcommand_ignores_is_usage_error(command, flag, value):
    rc, out, err = run_cli(BASE_ARGV[command] + [flag, value])
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command, line", [
    ("hbasis", "quad_ordr = 99"),   # misspelt option
    ("verify", "seed = 7"),         # an option of another subcommand
    ("kernel", "command = verify"),
])
def test_config_key_the_subcommand_lacks_is_usage_error(tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    rc, out, err = run_cli(BASE_ARGV[command] + ["--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "config key" in err


# every option of every subcommand, each at a value other than its default
CONFIG_RUNS = {
    "verify": ["verify", "--d", "3", "--kappa", "2/3", "--max-degree", "3"],
    "hbasis": ["hbasis", "--d", "3", "--kappa", "1/2", "--n", "2", "--quad-order", "22",
               "--tolerance", "1e-6"],
    "kernel": ["kernel", "--d", "3", "--kappa", "3/2", "--n", "4", "--x", "0.1,-0.5,0.3",
               "--ell", "2", "--delta", "1.25"],
    "bessel": ["bessel", "--d", "3", "--kappa", "1/2", "--y", "0.3,-0.2,0.1",
               "--path", "coset", "--argument", "real", "--tolerance", "1e-7"],
    "lebesgue": ["lebesgue", "--d", "2", "--kappa", "1", "--n-max", "3", "--delta", "1,1.5",
                 "--quad-order", "20", "--ell", "2"],
    "bounds-estimate": ["bounds", "--d", "2", "--kappa", "1/2", "--check", "estimate",
                        "--n", "4,8", "--seed", "7", "--alpha", "1.2", "--beta", "0.9",
                        "--ell", "2"],
    "bounds-knd": ["bounds", "--d", "2", "--kappa", "1", "--check", "knd", "--n", "8",
                   "--alpha", "0.5", "--beta", "0.25", "--delta", "3"],
}
BAD_CONFIG_VALUES = [("hbasis", "--n", "x"), ("bessel", "--path", "nope"),
                     ("bessel", "--argument", "sideways"), ("bounds-estimate", "--check", "nope")]


@pytest.mark.parametrize("run, flag, value", [
    *[(run, flag, value) for run, argv in CONFIG_RUNS.items()
      for flag, value in zip(argv[1::2], argv[2::2])],
    *[(run, "--out", "out.json") for run in CONFIG_RUNS],
    *BAD_CONFIG_VALUES,
])
def test_config_value_reads_as_its_flag(tmp_path, run, flag, value):
    # one option moves from the command line to the file: stdout, stderr,
    # exit code and --out bytes stay, and a bad value is refused either way
    argv = CONFIG_RUNS[run]
    at = argv.index(flag) if flag in argv else len(argv)
    rest = argv[:at] + argv[at + 2:]
    out_path = tmp_path / "out.json"
    text = str(out_path) if flag == "--out" else value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {text}\n", encoding="utf-8")
    results = []
    for source in ([f"{flag}={text}"], ["--config", str(cfg)]):
        result = run_cli(rest + source)
        written = out_path.read_bytes() if out_path.is_file() else None
        out_path.unlink(missing_ok=True)
        results.append((*result, written))
    by_flag, by_file = results
    assert by_file == by_flag
    if (run, flag, value) in BAD_CONFIG_VALUES:
        assert by_file[:2] == (2, "")
    else:
        assert by_file[0] == 0 and by_file[2] == ""
        assert (by_file[1] == "") == (flag == "--out")


def test_commands_run_with_scipy_unimportable():
    # the package's own Gauss-Jacobi rule and Bessel J stand in for scipy's:
    # with every scipy import refused, each subcommand still exits 0
    argvs = [
        ["bessel", "--d", "2", "--kappa", "1/2", "--y", "0.3,-0.4", "--path", "all"],
        ["bessel", "--d", "3", "--kappa", "1", "--y", "0.4,0.1,-0.3", "--path", "all"],
        ["kernel", "--d", "2", "--kappa", "1", "--n", "3", "--x", "0.6,0.8", "--delta", "1.5"],
        ["hbasis", "--d", "3", "--kappa", "1/2", "--n", "2"],
        ["hbasis", "--d", "4", "--kappa", "1", "--n", "2"],
        ["lebesgue", "--d", "3", "--kappa", "1/2", "--n-max", "4", "--delta", "1"],
        ["verify", "--d", "3", "--kappa", "1", "--max-degree", "4"],
        ["bounds", "--d", "3", "--kappa", "1", "--check", "knd"],
    ]
    code = f"""
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is not available")

sys.meta_path.insert(0, RefuseScipy())
from dunklsym import cli
codes = [cli.main(argv) for argv in {argvs!r}]
print("exit codes", codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"exit codes {[0] * len(argvs)} []", out.stderr


def test_commands_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 10 ms of a fresh
    # process; no command reaches it
    argvs = [
        ["verify", "--d", "4", "--kappa", "1/2", "--max-degree", "6"],
        ["hbasis", "--d", "4", "--kappa", "1", "--n", "2"],
        ["hbasis", "--d", "3", "--kappa", "1/2", "--n", "2"],
        ["kernel", "--d", "3", "--kappa", "1", "--n", "3", "--x", "0.6,0.8,0"],
        ["bessel", "--d", "3", "--kappa", "1", "--y", "0.4,0.1,-0.3", "--path", "all"],
        ["lebesgue", "--d", "3", "--kappa", "1/2", "--n-max", "4", "--delta", "1"],
        ["lebesgue", "--d", "3", "--kappa", "1", "--n-max", "4", "--delta", "1"],
        ["bounds", "--d", "3", "--kappa", "1", "--check", "knd", "--n", "8"],
        ["bounds", "--d", "2", "--kappa", "1", "--check", "estimate", "--n", "8,16"],
    ]
    code = f"""
import contextlib, io, sys
from dunklsym import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {argvs!r}]
print("exit codes", codes, "numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"exit codes {[0] * len(argvs)} False", out.stderr
