"""Per-layer metrics from the traces of one command list.

Each metric names the hooks it reads (see ``tracer.REQUIRED``).  If a hook
is missing from the program, the metric is reported absent, never as zero.
Times are totals over the traced command list; a layer's self time is its
spans minus their child spans, and integrand callbacks count toward the
layer that called the quadrature rule.  Rates whose work is zero on a
workload read 0, and ``unique_frac`` reads 1 when no torus integral runs.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS

TORUS = "quadrature.torus_pair_log_integral"
CIRCLE = "quadrature.circle_mean"
ORACLE = "overflow.overflow_definitional_oracle"
INNER_SIZES = (2048, 8192, 32768)


class Traces:
    """Sums of the tracer records of every command, plus the parent's timings."""

    def __init__(self, traced: list, untraced: list):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.layers = defaultdict(float)
        self.counts = defaultdict(float)
        self.levels = []          # [n, m, kernel_s] over all torus calls
        self.torus_calls = 0
        self.torus_unique = 0
        self.missing = set()
        self.startup_s = 0.0
        for res in traced:
            tr = res.trace
            if tr is None:
                continue
            self.missing.update(tr["missing"])
            self.startup_s += tr["t_main"] - res.t_spawn
            for name, (calls, incl, self_s) in tr["spans"].items():
                agg = self.spans[name]
                agg[0] += calls
                agg[1] += incl
                agg[2] += self_s
            for layer, s in tr["layers"].items():
                self.layers[layer] += s
            for key, v in tr["counts"].items():
                self.counts[key] += v
            self.torus_calls += len(tr["torus"])
            self.torus_unique += len({t["key"] for t in tr["torus"]})
            for t in tr["torus"]:
                self.levels += t["levels"]
        self.traced_wall = sum(r.wall for r in traced)
        self.untraced_wall = sum(r.wall for r in untraced)
        self.rusage = [r.rusage for r in untraced if r.rusage is not None]

    def calls(self, name):
        return self.spans[name][0]

    def incl(self, name):
        return self.spans[name][1]

    def self_s(self, name):
        return self.spans[name][2]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _pairs(t: Traces, m=None) -> float:
    return float(sum(n * mm for n, mm, _ in t.levels if m is None or mm == m))


def _kernel_s(t: Traces, m) -> float:
    return sum(s for _, mm, s in t.levels if mm == m)


def _oracle_integrand_s(t: Traces) -> float:
    return t.incl(f"{ORACLE}:callback")


def _metrics():
    """(name, unit, hooks, value function) for every per-layer metric."""
    out = [
        ("quadrature.torus.self_s", "s", [TORUS], lambda t: t.self_s(TORUS)),
        ("quadrature.torus.mpairs_per_s", "Mpairs/s", [TORUS],
         lambda t: _rate(_pairs(t) / 1e6, t.self_s(TORUS))),
    ]
    for m in INNER_SIZES:
        out.append((f"quadrature.torus.mpairs_per_s.m{m}", "Mpairs/s", [TORUS],
                    lambda t, m=m: _rate(_pairs(t, m) / 1e6, _kernel_s(t, m))))
    out += [
        ("quadrature.torus.pairs", "count", [TORUS], _pairs),
        ("quadrature.torus.levels", "count", [TORUS], lambda t: len(t.levels)),
        ("quadrature.torus.calls", "count", [TORUS], lambda t: t.torus_calls),
        ("quadrature.torus.unique_frac", "ratio", [TORUS],
         lambda t: t.torus_unique / t.torus_calls if t.torus_calls else 1.0),
        ("quadrature.torus.main_share", "ratio", [TORUS, "cli.main"],
         lambda t: _rate(t.self_s(TORUS), t.incl("cli.main"))),
        ("quadrature.torus.noconv", "count", [TORUS], lambda t: t.counts["torus.noconv"]),
        ("quadrature.circle.noconv", "count", [CIRCLE], lambda t: t.counts["circle.noconv"]),
        ("quadrature.circle.calls", "count", [CIRCLE], lambda t: t.calls(CIRCLE)),
        ("quadrature.circle.nodes", "count", [CIRCLE], lambda t: t.counts["circle.nodes"]),
        ("quadrature.circle.self_s", "s", [CIRCLE], lambda t: t.self_s(CIRCLE)),
        ("quadrature.nevanlinna.calls", "count", ["quadrature.nevanlinna_T"],
         lambda t: t.calls("quadrature.nevanlinna_T")),
        ("quadrature.nevanlinna.s", "s", ["quadrature.nevanlinna_T"],
         lambda t: t.incl("quadrature.nevanlinna_T")),
        ("overflow.oracle.calls", "count", [ORACLE], lambda t: t.calls(ORACLE)),
        ("overflow.oracle.integrand_s", "s", [ORACLE, CIRCLE], _oracle_integrand_s),
        ("overflow.oracle.nodes_per_s", "1/s", [ORACLE, CIRCLE],
         lambda t: _rate(t.counts[f"{ORACLE}:callback.nodes"], _oracle_integrand_s(t))),
        ("overflow.oracle.tangency_frac", "ratio", [ORACLE],
         lambda t: _rate(t.counts["oracle.tangent"], t.calls(ORACLE))),
        ("overflow.to_c.s", "s", ["overflow.overflow_to_C"],
         lambda t: t.incl("overflow.overflow_to_C")),
        ("overflow.to_p1.s", "s", ["overflow.overflow_to_P1"],
         lambda t: t.incl("overflow.overflow_to_P1")),
        ("overflow.asymptotics.calls", "count", ["overflow.polynomial_asymptotics"],
         lambda t: t.calls("overflow.polynomial_asymptotics")),
        ("arithmetic.direct_oracle.s", "s", ["arithmetic.self_intersection_direct_oracle"],
         lambda t: t.incl("arithmetic.self_intersection_direct_oracle")),
        ("arithmetic.build_morphism.s", "s", ["arithmetic.build_morphism"],
         lambda t: t.incl("arithmetic.build_morphism")),
        ("arithmetic.grelem.self_s", "s", ["arithmetic.grelem_construct"],
         lambda t: t.self_s("arithmetic.grelem_construct")),
        ("maps.num_den_at.points", "count", ["maps.DiskMap.num_den_at"],
         lambda t: t.counts["num_den_at.points"]),
        ("maps.num_den_at.s", "s", ["maps.DiskMap.num_den_at"],
         lambda t: t.incl("maps.DiskMap.num_den_at")),
        ("maps.parse_map.s", "s", ["maps.parse_map"], lambda t: t.incl("maps.parse_map")),
        ("series.compose.calls", "count", ["series.compose"], lambda t: t.calls("series.compose")),
        ("series.compose.s", "s", ["series.compose"], lambda t: t.incl("series.compose")),
        ("series.inverse.calls", "count", ["series.compositional_inverse"],
         lambda t: t.calls("series.compositional_inverse")),
        ("series.inverse.s", "s", ["series.compositional_inverse"],
         lambda t: t.incl("series.compositional_inverse")),
        ("lattice.minors.s", "s", ["lattice.leading_principal_minors"],
         lambda t: t.incl("lattice.leading_principal_minors")),
        ("lattice.solve.s", "s", ["lattice.solve_exact"], lambda t: t.incl("lattice.solve_exact")),
        ("lattice.equilibrium.s", "s", ["lattice.equilibrium_divisor"],
         lambda t: t.incl("lattice.equilibrium_divisor")),
        ("diffeo.measure_mc.s", "s", ["diffeo.measure_bound_mc"],
         lambda t: t.incl("diffeo.measure_bound_mc")),
        ("diffeo.measure_mc.tests", "count", ["diffeo.measure_bound_mc"],
         lambda t: t.counts["measure_mc.tests"]),
        ("diffeo.measure_mc.tests_per_s", "1/s", ["diffeo.measure_bound_mc"],
         lambda t: _rate(t.counts["measure_mc.tests"], t.incl("diffeo.measure_bound_mc"))),
        ("diffeo.jacobian.s", "s", ["diffeo.jacobian_check"],
         lambda t: t.incl("diffeo.jacobian_check")),
        ("cli.startup_s", "s", ["cli.main"], lambda t: t.startup_s),
        ("cli.serialize.s", "s", ["cli.canonical_json", "cli.report_csv"], _serialize_s),
        ("cli.other_s", "s", ["cli.main", "cli.canonical_json", "cli.report_csv"],
         lambda t: t.layers["cli"] - _serialize_s(t)),
    ]
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", [], lambda t, layer=layer: t.layers[layer]))
    out += [
        ("os.user_s", "s", [], lambda t: sum(r["user_s"] for r in t.rusage)),
        ("os.sys_s", "s", [], lambda t: sum(r["sys_s"] for r in t.rusage)),
        ("os.minor_faults", "count", [], lambda t: sum(r["minflt"] for r in t.rusage)),
        ("os.peak_rss_mb", "MB", [], lambda t: max((r["maxrss_mb"] for r in t.rusage), default=0.0)),
        ("trace.wall_s", "s", [], lambda t: t.traced_wall),
        ("trace.main_s", "s", ["cli.main"], lambda t: t.incl("cli.main")),
        ("trace.overhead_frac", "ratio", [],
         lambda t: _rate(t.traced_wall - t.untraced_wall, t.untraced_wall)),
    ]
    return out


def _serialize_s(t: Traces) -> float:
    return t.incl("cli.canonical_json") + t.incl("cli.report_csv")


METRICS = _metrics()


def per_layer(traces: Traces):
    """(metrics, absent): {name: {"value", "unit"}} and the names left out."""
    metrics, absent = {}, []
    for name, unit, hooks, fn in METRICS:
        if any(h in traces.missing for h in hooks):
            absent.append(name)
            continue
        metrics[name] = {"value": float(fn(traces)), "unit": unit}
    return metrics, absent
