#!/usr/bin/env python3
"""Excess-versus-radius sweeps for a few reference polynomials.

Writes plot-ready CSV (columns x, value, method) per map plus a fitted
slope/intercept summary, reproducing the large-radius asymptotics
(d - e) log r - log|a_e / a_d|.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from overflow_lab.cli import canonical_json, report_csv  # noqa: E402
from overflow_lab.maps import parse_map  # noqa: E402
from overflow_lab.overflow import overflow_to_C, polynomial_asymptotics  # noqa: E402
from overflow_lab.quadrature import QuadratureSettings  # noqa: E402

DEFAULT_MAPS = ["z^3+z", "2*z^4+3*z", "z^5-z^2"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--maps", nargs="*", default=DEFAULT_MAPS)
    parser.add_argument("--radii", default="10,31.6,100,316,1000")
    parser.add_argument("--out-dir", default="asymptotics-out")
    parser.add_argument("--tol", type=float, default=1e-5)
    args = parser.parse_args()

    radii = [float(x) for x in args.radii.split(",")]
    settings = QuadratureSettings(base_grid=64, tol=args.tol, max_depth=9)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = []
    for expr in args.maps:
        alpha = parse_map(expr)
        values = [overflow_to_C(alpha, r, settings).value for r in radii]
        rows = [(r, v, "explicit") for r, v in zip(radii, values)]
        stem = expr.replace("*", "").replace("/", "_").replace("^", "")
        (out_dir / f"excess_{stem}.csv").write_text(report_csv(rows))
        fit = polynomial_asymptotics(radii, values)
        summary.append({"map": expr, "fit": fit})
        print(f"{expr}: slope {fit.slope:.5f}, intercept {fit.intercept:+.5f}")

    (out_dir / "summary.json").write_text(canonical_json({"sweeps": summary}))
    print(f"wrote {len(summary)} sweeps to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
