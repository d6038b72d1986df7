#!/usr/bin/env python3
"""Write the definitional oracle's reference table, tests/data/oracle_reference.json.

    python3 scripts/make_oracle_reference.py --src EXPORT/src [--out FILE]

EXPORT is a clean export of the source tree whose oracle is taken as the
reference (``git archive <commit> | tar -x -C EXPORT``).  Each entry is that
oracle's value at grid 64, tol 1e-11, depth 16, next to its reports at the
default settings, at criterion 7's (grid 64, tol 1e-5, depth 9) and at the
``oracle-tight`` workload's (grid 64, tol 1e-8, depth 11), so an
overclaim of the reference tree itself shows as a default report whose
distance from the reference exceeds its ``achieved``.  The maps are the 48
``excess-c`` pool entries, the four ``oracle_degree*`` goldens, the
``selfint_A1`` golden (its direct oracle runs the oracle on the golden's map,
psi = [0, 1/2] adding no term to it, at the surface radius), the five
crossing maps of the oracle prototype and one map whose fiber sum has a log
spike on the circle.  Tests read only the JSON; nothing here runs in the
suite.
"""

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REFERENCE = {"grid": 64, "tol": 1e-11, "depth": 16}
SETTINGS = {
    "defaults": None,
    "criterion_7": {"grid": 64, "tol": 1e-5, "depth": 9},
    "oracle_tight": {"grid": 64, "tol": 1e-8, "depth": 11},
}

#: Crossing maps of the kink-corrected prototype, with their radii.
PROTOTYPE = [("z^4-3*z^2+z", 1.7), ("z^3+z", 10.0), ("1+2*z-z^3", 1.3),
             ("2-2*z+2*z^4-z^6-z^8", 1.871), ("3-z-3*z^2+z^3-2*z^5", 90.5)]

#: A map one of whose fiber roots passes through 0 on the boundary: the
#: fiber of z^2 + z over the boundary point -1 holds 0.
SPIKE = [("z^2+z", 1.0)]


def entries():
    """(source, map, radius) for every map the table covers, pool order kept."""
    pool = json.loads((ROOT / "perfbench" / "pools" / "excess-c.json").read_text())
    for entry in pool["entries"]:
        yield "excess-c", entry["map"], float(entry["radius"])
    for path in sorted((ROOT / "tests" / "golden").glob("oracle_degree*.json")):
        golden = json.loads(path.read_text())
        (report,) = golden["result"]["reports"]
        yield path.stem, golden["inputs"]["map"], float(report["radius"])
    golden = json.loads((ROOT / "tests" / "golden" / "selfint_A1.json").read_text())
    yield "selfint_A1", golden["inputs"]["map"], float(golden["inputs"]["radius"])
    for expr, radius in PROTOTYPE:
        yield "prototype", expr, radius
    for expr, radius in SPIKE:
        yield "spike", expr, radius


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", required=True, help="src/ directory of the reference tree")
    parser.add_argument("--out", default=str(ROOT / "tests" / "data" / "oracle_reference.json"))
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    overflow = importlib.import_module("overflow_lab.overflow")
    quadrature = importlib.import_module("overflow_lab.quadrature")
    maps = importlib.import_module("overflow_lab.maps")

    def settings(cfg):
        if cfg is None:
            return quadrature.DEFAULT_SETTINGS
        return quadrature.QuadratureSettings(cfg["grid"], cfg["tol"], cfg["depth"])

    def report(alpha, radius, cfg):
        try:
            rep = overflow.overflow_definitional_oracle(alpha, radius, settings(cfg))
        except Exception as exc:  # the table records a refusal as it is
            return {"error": type(exc).__name__}
        cert = rep.certificate
        return {"value": rep.value, "achieved": cert.achieved, "grid": cert.grid,
                "boundary_tangency": bool(rep.boundary_tangency)}

    table = []
    for source, expr, radius in entries():
        alpha = maps.parse_map(expr)
        t0 = time.perf_counter()
        row = {"source": source, "map": expr, "radius": radius,
               "reference": report(alpha, radius, REFERENCE)}
        for name, cfg in SETTINGS.items():
            row[name] = report(alpha, radius, cfg)
        table.append(row)
        print(f"{source:16s} {expr:40s} r={radius:<8g} {row['reference']} "
              f"{time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
    out = {"reference_settings": REFERENCE,
           "settings": {k: v or {"grid": 256, "tol": 1e-6, "depth": 6} for k, v in SETTINGS.items()},
           "entries": table}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
