"""Span tracer for the dunklsym package, installed from outside the package.

`Tracer.install()` wraps every public function of each package module and
rebinds the wrapper wherever the package holds a reference to the original
(modules import each other's functions by name, so patching one module
attribute is not enough).  Each call becomes a span: name, start, end,
parent, root (the span of the outermost call, which identifies the request)
and a few size counters.  Spans stay in memory until `write()`.

The per-layer report is fixed by `LAYERS` below: for each module, the
functions whose self time, call and error counts are reported, the sizes
recorded for them, and the end-to-end metrics each layer should move.  A
function that no longer exists is reported as absent with zero values
instead of failing the run, so a later refactor of the package does not
break the benchmark.

Run as a script, this file traces one CLI invocation in its own process:
    python3 perfbench/tracer.py SPANS.json lebesgue --d 3 ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

PACKAGE = "dunklsym"

# module -> (functions reported, end-to-end metrics the layer should move,
# workloads it is on).  Sizes per function are in SIZES.
LAYERS = {
    "summability": (("lebesgue_sweep", "critical_sweep", "cesaro_kernel_axis"),
                    ("time_to_solution_s", "first_result_s", "peak_rss_mb"),
                    ("sweep-pushforward", "sweep-tensor-cli", "point-calls")),
    "simplexquad": (("build_rule", "integrate"),
                    ("op_tail_ms", "op_p50_ms", "time_to_solution_s"),
                    ("point-calls", "sweep-tensor-cli")),
    "harmonics": (("build_sphere_rule", "hharmonic_basis", "hweight", "repro_kernel_axis"),
                  ("time_to_solution_s",),
                  ("exact-algebra", "sweep-tensor-cli", "sweep-pushforward", "point-calls")),
    "polycore": (("dunkl_apply", "dunkl_laplacian"),
                 ("time_to_solution_s",),
                 ("exact-algebra",)),
    "intertwine": (("vk_monomial_exact", "verify_intertwining"),
                   ("time_to_solution_s",),
                   ("exact-algebra",)),
    "orthopoly": (("jacobi_all", "cesaro_kernel_endpoint", "cesaro_weights", "kernel_normalizer"),
                  ("op_p50_ms", "time_to_solution_s"),
                  ("point-calls", "sweep-pushforward", "sweep-tensor-cli")),
    "bessel": (("bessel_k", "bessel_recursive", "dunkl_exp_axis", "classical_bessel_j"),
               ("op_p50_ms",),
               ("point-calls",)),
    "cli": (("main",),
            ("op_p50_ms", "first_result_s"),
            ("point-calls", "sweep-tensor-cli")),
}


def _bound_args(signature, args, kwargs) -> dict:
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


# qualified name -> (argument names kept as the span's key, sizes taken from
# the bound arguments and the result).  Keys give the distinct-work ratio of
# the rule builders.
SIZES = {
    "simplexquad.build_rule": (("d", "kappa", "per_axis_order"),
                               lambda a, r: {"nodes": len(r)}),
    "simplexquad.integrate": ((), lambda a, r: {"nodes": len(a["rule"])}),
    "harmonics.build_sphere_rule": (("d", "order", "kappa_hint"),
                                    lambda a, r: {"nodes": len(r)}),
    "harmonics.hharmonic_basis": ((), lambda a, r: {"dim": len(r)}),
    "polycore.dunkl_apply": ((), lambda a, r: {"terms_out": len(r.terms)}),
    "intertwine.vk_monomial_exact": ((), lambda a, r: {"terms_out": len(r.terms)}),
    "intertwine.verify_intertwining": ((), lambda a, r: {"checks": int(r["checks"])}),
    "orthopoly.jacobi_all": ((), lambda a, r: {"values": int(r.size)}),
    "summability.lebesgue_sweep": (("n_max",), None),
}


class _CountingStream:
    """Forwards writes to a text stream and counts the characters."""

    def __init__(self, inner):
        self._inner = inner
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return self._inner.write(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        originals = {}
        for module_name in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(module_name)
                continue
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{module_name}.{name}", obj))
        for qualified in reported_functions():
            module_name, name = qualified.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None or not inspect.isfunction(getattr(module, name, None)):
                self.absent.append(qualified)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE
                                      or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualified: str, fn):
        key_names, sizer = SIZES.get(qualified, ((), None))
        signature = inspect.signature(fn) if qualified in SIZES else None
        counts_stdout = qualified == "cli.main"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            bound = _bound_args(signature, args, kwargs) if signature else {}
            with tracer._lock:
                sid = len(tracer.spans)
                span = {"id": sid, "name": qualified,
                        "parent": stack[-1]["id"] if stack else None,
                        "root": stack[-1]["root"] if stack else sid,
                        "start": time.monotonic(), "end": None, "error": False}
                tracer.spans.append(span)
            if key_names:
                span["key"] = [repr(bound.get(k)) for k in key_names]
            counter = None
            if counts_stdout:
                counter = _CountingStream(sys.stdout)
                sys.stdout = counter
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.monotonic()
                stack.pop()
                if counter is not None:
                    sys.stdout = counter._inner
                    span["bytes_out"] = counter.count
            if sizer is not None:
                try:
                    span.update(sizer(bound, result))
                except (AttributeError, TypeError, KeyError, ValueError):
                    pass
            return result

        return functools.update_wrapper(traced, fn)

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def reported_functions() -> list[str]:
    return [f"{module}.{fn}" for module, (fns, _, _) in LAYERS.items() for fn in fns]


def _self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span["id"], [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Reported per-layer values of one traced pass."""
    selfs = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def total(name: str, field: str) -> float:
        return float(sum(spans[i].get(field, 0) for i in by_name.get(name, [])))

    out: dict[str, float] = {}
    for qualified in reported_functions():
        idx = by_name.get(qualified, [])
        out[f"{qualified}.self_s"] = float(sum(selfs[i] for i in idx))
        out[f"{qualified}.calls"] = float(len(idx))
        out[f"{qualified}.errors"] = float(sum(spans[i]["error"] for i in idx))
    for module in LAYERS:
        out[f"{module}.self_s"] = float(sum(
            selfs[i] for i, span in enumerate(spans)
            if span["name"].split(".")[0] == module))

    for qualified in ("simplexquad.build_rule", "harmonics.build_sphere_rule"):
        idx = by_name.get(qualified, [])
        out[f"{qualified}.nodes"] = total(qualified, "nodes")
        keys = {tuple(spans[i].get("key", [i])) for i in idx}
        out[f"{qualified}.distinct_share"] = len(keys) / len(idx) if idx else 0.0
    out["simplexquad.integrate.nodes"] = total("simplexquad.integrate", "nodes")
    out["harmonics.hharmonic_basis.dim"] = total("harmonics.hharmonic_basis", "dim")
    out["polycore.dunkl_apply.terms_out"] = total("polycore.dunkl_apply", "terms_out")
    out["intertwine.vk_monomial_exact.terms_out"] = total(
        "intertwine.vk_monomial_exact", "terms_out")
    out["intertwine.verify_intertwining.checks"] = total(
        "intertwine.verify_intertwining", "checks")
    out["orthopoly.jacobi_all.values"] = total("orthopoly.jacobi_all", "values")
    out["cli.main.bytes_out"] = total("cli.main", "bytes_out")

    # moment-table entries: sphere nodes of every rule a sweep builds,
    # times the n_max + 1 degrees the table holds
    entries = 0.0
    sphere_nodes: dict[int, float] = {}
    for i in by_name.get("harmonics.build_sphere_rule", []):
        parent = spans[i]["parent"]
        sphere_nodes[parent] = sphere_nodes.get(parent, 0.0) + spans[i].get("nodes", 0)
    for i in by_name.get("summability.lebesgue_sweep", []):
        key = spans[i].get("key")
        n_max = int(key[0]) if key and key[0].isdigit() else 0
        entries += sphere_nodes.get(spans[i]["id"], 0.0) * (n_max + 1)
    out["summability.table_entries"] = entries
    sweep_self = out["summability.lebesgue_sweep.self_s"]
    out["summability.lebesgue_sweep.ns_per_entry"] = (
        sweep_self * 1e9 / entries if entries else 0.0)
    return out


def main(argv: list[str]) -> int:
    """Trace one CLI invocation: argv = [spans path, cli arguments...]."""
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
