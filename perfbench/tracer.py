#!/usr/bin/env python3
"""Run one overflow-lab CLI command with each layer's public functions timed.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json ARGV...

Nothing under ``src/`` is edited: before ``cli.main`` runs, every public
function of the layer modules (and ``DiskMap.num_den_at``) is replaced, in
every ``overflow_lab.*`` namespace that holds it, by a wrapper that records a
span.  The integrand callables handed to ``circle_mean`` and
``torus_pair_log_integral`` are wrapped too; their time counts toward the
layer that called the rule, and the lengths of successive torus callbacks
give each ladder level's (n, m), so pairs and per-level kernel time are
measured from outside.  Spans are aggregated in memory and written to
TRACE.json when the command ends; the report on stdout is unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "maps", "series", "quadrature", "potential", "overflow",
          "arithmetic", "lattice", "diffeo")

#: Hooks the per-layer metrics read; a missing one is reported, never zeroed.
REQUIRED = (
    "cli.main", "cli.canonical_json", "cli.report_csv",
    "maps.parse_map", "maps.DiskMap.num_den_at",
    "series.compose", "series.compositional_inverse",
    "quadrature.circle_mean", "quadrature.torus_pair_log_integral", "quadrature.nevanlinna_T",
    "overflow.overflow_to_C", "overflow.overflow_to_P1",
    "overflow.overflow_definitional_oracle", "overflow.polynomial_asymptotics",
    "arithmetic.build_morphism", "arithmetic.self_intersection_direct_oracle",
    "arithmetic.grelem_construct",
    "lattice.leading_principal_minors", "lattice.solve_exact", "lattice.equilibrium_divisor",
    "diffeo.measure_bound_mc", "diffeo.jacobian_check",
)

METHODS = {"maps": ("DiskMap.num_den_at",)}


class Recorder:
    """Span stack with on-the-fly aggregation: per span name and per layer."""

    def __init__(self):
        self.stack = []                      # [name, layer, t0, child_time]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)
        self.torus = []

    def push(self, name: str, layer: str) -> None:
        self.stack.append([name, layer, time.perf_counter(), 0.0])

    def pop(self) -> float:
        name, layer, t0, child = self.stack.pop()
        dur = time.perf_counter() - t0
        agg = self.spans[name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        self.layer_self[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        return dur

    def caller(self):
        """(name, layer) of the span that called the innermost open span."""
        return tuple(self.stack[-2][:2]) if len(self.stack) > 1 else ("top", "cli")


def _spanned(rec: Recorder, name: str, layer: str, fn, call=None):
    """Wrap fn in a span; ``call(fn, args, kwargs)`` replaces the plain call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.push(name, layer)
        try:
            return call(fn, args, kwargs) if call else fn(*args, **kwargs)
        finally:
            rec.pop()

    return wrapper


def _callback(rec: Recorder, fn, on_call):
    """Wrap an integrand handed to the open quadrature span.

    The integrand's span belongs to the layer that called the rule.
    """
    name, layer = rec.caller()
    cb_name = f"{name}:callback"

    def wrapped(ts):
        on_call(cb_name, ts)
        rec.push(cb_name, layer)
        try:
            return fn(ts)
        finally:
            rec.pop()

    return wrapped


def _is_no_convergence(exc: BaseException) -> bool:
    return any(cls.__name__ == "NoConvergence" for cls in type(exc).__mro__)


def _digest(values) -> bytes:
    h = hashlib.sha1()
    for arr in values if isinstance(values, tuple) else (values,):
        h.update(b"None" if arr is None else memoryview(arr.tobytes()))
    return h.digest()


def _circle_call(rec: Recorder):
    def call(fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)

        def count(cb_name, ts):
            rec.counts["circle.nodes"] += len(ts)
            rec.counts[f"{cb_name}.nodes"] += len(ts)

        bound.arguments["values"] = _callback(rec, bound.arguments["values"], count)
        try:
            return fn(*bound.args, **bound.kwargs)
        except Exception as exc:
            if _is_no_convergence(exc):
                rec.counts["circle.noconv"] += 1
            raise

    return call


def _torus_call(rec: Recorder):
    def call(fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        settings = repr(bound.arguments.get("settings"))
        events = []        # (t_start, t_end, length) per boundary call
        key = hashlib.sha1(settings.encode())
        inner = bound.arguments["boundary"]

        def boundary(ts):
            t0 = time.perf_counter()
            out = inner(ts)
            if len(events) < 2:
                key.update(_digest(out))
            events.append((t0, time.perf_counter(), len(ts)))
            return out

        bound.arguments["boundary"] = _callback(rec, boundary, lambda *_: None)
        try:
            return fn(*bound.args, **bound.kwargs)
        except Exception as exc:
            if _is_no_convergence(exc):
                rec.counts["torus.noconv"] += 1
            raise
        finally:
            t_end = time.perf_counter()
            levels = []
            for k in range(0, len(events) - 1, 2):
                n, m = events[k][2], events[k + 1][2]
                stop = events[k + 2][0] if k + 2 < len(events) else t_end
                levels.append([n, m, stop - events[k + 1][1]])
            rec.torus.append({"levels": levels, "key": key.hexdigest()})

    return call


def _oracle_call(rec: Recorder):
    def call(fn, args, kwargs):
        report = fn(*args, **kwargs)
        rec.counts["oracle.tangent"] += bool(getattr(report, "boundary_tangency", False))
        return report

    return call


def _num_den_call(rec: Recorder):
    def call(fn, args, kwargs):
        z = args[1] if len(args) > 1 else kwargs["z"]
        rec.counts["num_den_at.points"] += getattr(z, "size", 1)
        return fn(*args, **kwargs)

    return call


def _measure_call(rec: Recorder):
    def call(fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        report = fn(*args, **kwargs)
        reps = (a["e"] * abs(a["a"])) ** a["n"]
        rec.counts["measure_mc.tests"] += a["samples"] * reps
        return report

    return call


SPECIAL = {
    "quadrature.circle_mean": _circle_call,
    "quadrature.torus_pair_log_integral": _torus_call,
    "overflow.overflow_definitional_oracle": _oracle_call,
    "maps.DiskMap.num_den_at": _num_den_call,
    "diffeo.measure_bound_mc": _measure_call,
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(rec: Recorder) -> list:
    """Wrap the layers' public functions; return the REQUIRED hooks not found."""
    modules = {layer: importlib.import_module(f"overflow_lab.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items()
                  if m is not None and (n == "overflow_lab" or n.startswith("overflow_lab."))]
    found = set()
    for layer, module in modules.items():
        for attr, fn in list(_public_functions(module)):
            name = f"{layer}.{attr}"
            special = SPECIAL.get(name)
            wrapper = _spanned(rec, name, layer, fn, special(rec) if special else None)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
            found.add(name)
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                continue
            name = f"{layer}.{path}"
            special = SPECIAL.get(name)
            setattr(cls, meth, _spanned(rec, name, layer, fn, special(rec) if special else None))
            found.add(name)
    return sorted(set(REQUIRED) - found)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    missing = install(rec)
    from overflow_lab import cli

    t_main = time.monotonic()
    rc = 1
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        t_end = time.monotonic()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({
                "t_main": t_main, "t_end": t_end, "rc": rc, "missing": missing,
                "spans": rec.spans, "layers": rec.layer_self,
                "counts": rec.counts, "torus": rec.torus,
            }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
