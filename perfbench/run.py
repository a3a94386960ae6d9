"""Benchmark of the dunklsym package: four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout (the package is imported from src/).
Every pass runs in a fresh process (perfbench/passes.py), so program caches
start cold as they do for a CLI user, and one pass runs at a time.  A run
first starts the pass process a few times for set-up only, then starts
passes while the next one, as long as the last, would end within --seconds
of the run's start, and at least four.  The pass count thus varies with the
host's speed; the pass mixes are built so that the op percentiles fall inside
one cost tier whatever the count.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1
alternates untraced and traced passes and reports per-layer metrics from the
traced ones (perfbench/tracer.py), with the tracing overhead against the
untraced passes.  The last line of standard output is the result object;
the lines before it give the environment, the workload's properties and
how the tail percentile was taken.  The full record and the spans of the
last traced pass are written under .perfbench-out/.

--smoke runs every workload at toy size through the same passes, checks
and traced run, in seconds, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from passes import WORKLOADS  # noqa: E402
from tracer import LAYERS, per_layer_metrics  # noqa: E402

PASSES_PY = os.path.join(HERE, "passes.py")
OUT_DIR = ".perfbench-out"
RUN_LIMIT_S = 170.0
SETUP_PROBES = 4
MIN_PASSES = 4
END_TO_END = {
    "setup_s": "s", "time_to_solution_s": "s", "first_result_s": "s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB",
    "success_share": "share", "accuracy_digits": "digits",
}
# digits are capped where the worst residual is below double precision
RESIDUAL_FLOOR = 1e-17


class BenchError(RuntimeError):
    """A pass process could not run or report; the run has no result."""


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "share"
    if name.endswith("ns_per_entry"):
        return "ns"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def spawn(root: str, workload: str, seed: int, smoke: bool, deadline: float,
          setup_only: bool = False, spans: str | None = None) -> dict:
    """Run one pass process and return its report, with setup_s added."""
    argv = [sys.executable, PASSES_PY, workload, str(seed)]
    argv += ["--smoke"] * smoke + ["--setup-only"] * setup_only
    if spans:
        argv += ["--trace", spans]
    env = dict(os.environ)
    env.pop("DUNKLSYM_WORKERS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded the run's time limit")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - t0
    return report


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, with its
    label.  With fewer than twenty samples that percentile would not lie
    above the median, so the upper quartile stands in for it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0], "p100 of 1"
    if n < 20:
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], f"p75 of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n}"


def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spans_path = os.path.join(root, OUT_DIR, f"spans-{workload}-seed{seed}.json")
    setups = []
    for _ in range(1 if smoke else SETUP_PROBES):
        setups.append(spawn(root, workload, seed, smoke, deadline, setup_only=True)["setup_s"])
    plain: list[dict] = []
    traced: list[dict] = []
    absent: list[str] = []
    last_s = 0.0
    while True:
        done = len(plain) + len(traced)
        if smoke:
            if done == 1 + trace:
                break
        elif done >= MIN_PASSES and time.monotonic() - start + last_s > seconds:
            break
        traced_pass = trace and done % 2 == 1
        t0 = time.monotonic()
        if traced_pass and os.path.exists(spans_path):
            os.remove(spans_path)
        report = spawn(root, workload, seed, smoke, deadline,
                       spans=spans_path if traced_pass else None)
        setups.append(report["setup_s"])
        last_s = time.monotonic() - t0
        if traced_pass:
            traced.append(report)
            if report["ok"]:
                with open(spans_path, encoding="utf-8") as fh:
                    record = json.load(fh)
                report["layers"] = per_layer_metrics(record["spans"])
                absent = record["absent"]
        else:
            plain.append(report)

    every = plain + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    good = [r for r in plain if r["ok"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    details = {"workload": workload, "seed": seed, "passes": len(plain),
               "traced_passes": len(traced), "setup_s": setups,
               "pass_s": [r["time_to_solution_s"] for r in every],
               "properties": every[0]["properties"],
               "failures": [f for r in every for f in r["failures"]][:20]}
    if trace:
        metrics = {}
        good_traced = [r for r in traced if r["ok"]]
        if good and good_traced:
            for name in good_traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in good_traced)
            traced_s = statistics.median(r["time_to_solution_s"] for r in good_traced)
            plain_s = statistics.median(r["time_to_solution_s"] for r in good)
            metrics["trace.pass_s"] = traced_s
            metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
        result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
        details["absent"] = absent
        details["layers"] = {module: {"functions": fns, "moves": moves, "on": on}
                             for module, (fns, moves, on) in LAYERS.items()}
        return {"result": result, "details": details}

    metrics = {"setup_s": statistics.median(setups)}
    if good:
        ops = [v for r in good for v in r["ops_ms"]]
        op_tail, label = tail(ops)
        worst = max(max(r["residual"] for r in good), RESIDUAL_FLOOR)
        metrics.update({
            "time_to_solution_s": statistics.median(r["time_to_solution_s"] for r in good),
            "first_result_s": statistics.median(r["first_result_s"] for r in good),
            "op_p50_ms": statistics.median(ops),
            "op_tail_ms": op_tail,
            "cpu_s": statistics.median(r["cpu_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "success_share": (attempted - failed) / attempted,
            "accuracy_digits": -math.log10(worst),
        })
        details["op_tail"] = label
        details["worst_residual"] = worst
    result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return {"result": result, "details": details}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(root, ".git", ref))
    if direct:
        return direct
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "default") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "caches": caches, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads, "commit": git_commit(root),
            "seed": seed}


def report(root: str, outcome: dict, trace: bool, seed: int) -> None:
    details = outcome["details"]
    details["environment"] = environment(root, seed)
    for name, m in outcome["result"]["metrics"].items():
        print(f"{details['workload']:<18} {name:<48} {m['value']:.6g} {m['unit']}")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR,
                        f"{details['workload']}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(outcome, fh, indent=1)
    print(json.dumps(details))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, traced and untraced")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dunklsym", "__init__.py")):
        print(f"perfbench: no src/dunklsym package under {root}; "
              "run from the root of a dunklsym checkout", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    try:
        if args.smoke:
            ok = True
            for workload in WORKLOADS:
                for trace in (False, True):
                    outcome = run(root, workload, args.seed, 0.0, trace, smoke=True)
                    report(root, outcome, trace, args.seed)
                    ok = ok and outcome["result"]["correct"]
            print(json.dumps({"smoke": True, "correct": ok}))
            return 0 if ok else 1
        outcome = run(root, args.workload, args.seed, args.seconds, bool(args.trace),
                      smoke=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(root, outcome, bool(args.trace), args.seed)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
