"""Command-line interface: exit codes, output formats, determinism.

Every invocation goes through cli.main(argv) in-process.  Output is
captured with redirect_stdout/redirect_stderr rather than capsys so the
tests behave the same whether or not pytest's capture is active.
"""

import contextlib
import io
import json
import types

import numpy as np
import pytest

from dunklsym import cli, intertwine
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
        raise AssertionError("a rule was built for a refused route")

    monkeypatch.setattr(cli, "build_rule", no_rule)
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
        assert "unknown path 'nope'" in err


def test_bessel_coset_path_alone():
    rc, payload = run_json(
        ["bessel", "--d", "3", "--kappa", "1", "--y", "0.4,0.1,-0.3",
         "--path", "coset"])
    assert rc == 0
    assert list(payload["paths"]) == ["coset"]
    assert payload["pairwise_deviations"] == {}


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
    assert float(header["z2d_equal_multiplicity_threshold"]) == 0.0
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
    ["--quad-order", "2"],   # sphere order below 4
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
