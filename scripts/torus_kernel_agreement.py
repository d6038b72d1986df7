#!/usr/bin/env python3
"""Agreement of the torus kernel's Graeffe inner sums with the direct sum.

For each map and radius the explicit route's torus integral runs once as the
CLI runs it, on P at radius r^K for a map P(z^K)
(``overflow._power_reduction``), timed in process, counting the outer rows
summed from their roots (``quadrature._root_sums``: every row of a level
where a row fails the reciprocal check) and those handed to the direct
kernel (``quadrature._log_cross_sum``: rows whose roots fail their checks,
and every row of a level whose rows cost Graeffe at least their m pairs),
and the seconds spent in each.  Then every ladder level up to the accepted
grid is evaluated again by both kernels on the same lattices, and the
largest gap between the two levels is printed.

Sets: ``pool``, the maps and radii of perfbench's ``excess-c`` pool;
``adversarial``, rotation orders, large radii, clustered fibers, high degree,
a degree-64 map on a coarse lattice and two rational maps, one of them with
the value 1e12 at 0.

    python3 scripts/torus_kernel_agreement.py --set all
    python3 scripts/torus_kernel_agreement.py --set pool --config 64,1e-5,9
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from overflow_lab import overflow, quadrature  # noqa: E402
from overflow_lab.errors import NoConvergence  # noqa: E402
from overflow_lab.maps import parse_map  # noqa: E402
from overflow_lab.quadrature import QuadratureSettings  # noqa: E402

POOL = ROOT / "perfbench" / "pools" / "excess-c.json"

#: (map, radius, (base_grid, tol, max_depth) or None for the defaults)
ADVERSARIAL = [
    ("3-z-3*z^2-z^3-z^4+3*z^5", 1.787, None),
    ("z^8", 1.5, None),
    ("7*z^8-z^4+2", 3.0, None),
    ("-2*z^8+z^4-3", 40.0, None),
    ("2-2*z+2*z^4-z^6-z^8", 1.871, None),
    ("2*z^4+3*z", 100.0, None),
    ("2*z^4+3*z", 1000.0, (64, 1e-6, 9)),
    ("1+z-2*z^3+z^7-3*z^11+2*z^16", 10.0, (64, 1e-5, 9)),
    ("2-z+3*z^2-z^5+z^8", 100.0, None),
    ("(2+z^2)/(3*z^2+z-(1/2))", 0.8, None),
    ("1+z^5+3*z^15", 0.97, (64, 1e-8, 12)),
    ("2+z-z^33+z^64", 1.01, (2, 1e-5, 10)),
    ("(3*10^12+(10^12+3)*z)/(3+z)", 1.0, None),
]


def pool_cases():
    entries = json.loads(POOL.read_text())["entries"]
    return [(e["map"], e["radius"], None) for e in entries]


def _lattices(alpha, r, n):
    """The outer and inner lattice values of the torus level on n outer nodes."""
    m = n * quadrature._INNER_REFINE
    out = []
    for ts in (quadrature._midpoints(n), quadrature._midpoints(m, 0.25)):
        out += alpha.num_den_at(r * np.exp(2j * np.pi * ts))
    return out


def _counted(name, tally):
    """quadrature.<name> wrapped to add its rows and seconds to ``tally``."""
    kernel = getattr(quadrature, name)

    def counted(rows, *args):
        tally[0] += rows.shape[-1]
        start = time.perf_counter()
        try:
            return kernel(rows, *args)
        finally:
            tally[1] += time.perf_counter() - start

    return counted


def check(expr, r, config):
    """One case: accepted grid, largest level gap, the rows summed from
    roots and by the direct kernel, and the seconds in all and in each."""
    alpha, _, r = overflow._power_reduction(parse_map(expr), r)
    settings = QuadratureSettings(*config) if config else quadrature.DEFAULT_SETTINGS
    direct, roots = quadrature._log_cross_sum, quadrature._root_sums
    redone, rooted = [0, 0.0], [0, 0.0]

    def boundary(ts):
        return alpha.num_den_at(r * np.exp(2j * np.pi * ts))

    quadrature._log_cross_sum = _counted("_log_cross_sum", redone)
    quadrature._root_sums = _counted("_root_sums", rooted)
    start = time.perf_counter()
    try:
        _, cert = quadrature.torus_pair_log_integral(boundary, settings)
        grid = cert.grid
    except NoConvergence:
        grid = None
    finally:
        seconds = time.perf_counter() - start
        quadrature._log_cross_sum, quadrature._root_sums = direct, roots
    last = grid or settings.base_grid * 2**settings.max_depth
    gap, rows, n = 0.0, 0, settings.base_grid
    while n <= last:
        p1, q1, p2, q2 = _lattices(alpha, r, n)
        scale = 0.5 / (n * len(p2))
        fast = quadrature._graeffe_cross_sum(p1, q1, p2, q2, "agreement")
        gap = max(gap, abs(fast - direct(p1, q1, p2, q2, "agreement")) * scale)
        rows += n
        n *= 2
    return {"map": expr, "radius": r, "grid": grid, "gap": gap,
            "fallback_rows": redone[0], "root_rows": rooted[0], "rows": rows,
            "seconds": seconds, "direct_s": redone[1], "root_s": rooted[1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", choices=["pool", "adversarial", "all"], default="all")
    parser.add_argument("--config", help="base_grid,tol,max_depth for every case "
                        "(default: the pool at the defaults, each adversarial case at its own)")
    parser.add_argument("--limit", type=int, help="only the first LIMIT cases of each set")
    args = parser.parse_args()
    config = None
    if args.config:
        grid, tol, depth = args.config.split(",")
        config = (int(grid), float(tol), int(depth))
    sets = {"pool": pool_cases(), "adversarial": ADVERSARIAL}
    names = list(sets) if args.set == "all" else [args.set]
    totals = dict.fromkeys(["fallback_rows", "root_rows", "rows", "seconds", "direct_s",
                            "root_s"], 0)
    worst = 0.0
    for name in names:
        for expr, r, own in sets[name][: args.limit]:
            res = check(expr, r, config or own)
            worst = max(worst, res["gap"])
            for key in totals:
                totals[key] += res[key]
            print(f"{name:11s} {expr:32s} r={r:<8g} grid={res['grid']!s:6s} "
                  f"gap={res['gap']:.2e} fallback={res['fallback_rows']}/{res['rows']} "
                  f"roots={res['root_rows']} {res['seconds']:.3f}s "
                  f"direct {res['direct_s']:.3f}s roots {res['root_s']:.3f}s")
    for key in ("seconds", "direct_s", "root_s"):
        totals[key] = round(totals[key], 3)
    print(json.dumps({"largest_gap": worst, **totals}))
    return 0 if math.isfinite(worst) else 1


if __name__ == "__main__":
    raise SystemExit(main())
