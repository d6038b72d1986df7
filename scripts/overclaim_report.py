#!/usr/bin/env python3
"""Overclaims of both excess routes against the oracle reference table.

Runs the explicit route (``overflow_to_C``) and the definitional oracle
again on the ``excess-c`` entries of ``tests/data/oracle_reference.json``,
at each of the table's settings, and counts the reports whose distance from
the table's reference value exceeds their own ``achieved``, and their
``tol``, by more than 1e-10, the table's own error allowance.  Every report
is counted, those flagged for boundary tangency included.  A route that
raises counts as ``failed``.

    python3 scripts/overclaim_report.py
    python3 scripts/overclaim_report.py --settings defaults --limit 2

One line per route and setting; the last line is the JSON summary.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from overflow_lab.errors import OverflowLabError  # noqa: E402
from overflow_lab.maps import parse_map  # noqa: E402
from overflow_lab.overflow import overflow_definitional_oracle, overflow_to_C  # noqa: E402
from overflow_lab.quadrature import QuadratureSettings  # noqa: E402

TABLE = ROOT / "tests" / "data" / "oracle_reference.json"

#: How closely the table's tol-1e-11 ladder values are trusted.
REFERENCE_ERROR = 1e-10

ROUTES = {"explicit": overflow_to_C, "oracle": overflow_definitional_oracle}


def count(route, entries, settings):
    """The overclaim counts of one route at one setting."""
    out = {"over_achieved": 0, "over_tol": 0, "failed": 0, "entries": len(entries)}
    for entry in entries:
        try:
            got = route(parse_map(entry["map"]), entry["radius"], settings)
        except OverflowLabError:
            out["failed"] += 1
            continue
        error = abs(got.value - entry["reference"]["value"])
        out["over_achieved"] += error > got.certificate.achieved + REFERENCE_ERROR
        out["over_tol"] += error > settings.tol + REFERENCE_ERROR
    return out


def main() -> int:
    table = json.loads(TABLE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--settings", nargs="+", choices=list(table["settings"]),
                        default=list(table["settings"]), help="the table's settings to run")
    parser.add_argument("--limit", type=int, help="only the first LIMIT entries")
    args = parser.parse_args()
    entries = [e for e in table["entries"] if e["source"] == "excess-c"][: args.limit]
    summary = {}
    for name in args.settings:
        cfg = table["settings"][name]
        settings = QuadratureSettings(cfg["grid"], cfg["tol"], cfg["depth"])
        summary[name] = {}
        for route_name, route in ROUTES.items():
            start = time.perf_counter()
            counts = summary[name][route_name] = count(route, entries, settings)
            print(f"{name:13s} {route_name:9s} over_achieved={counts['over_achieved']} "
                  f"over_tol={counts['over_tol']} failed={counts['failed']} "
                  f"of {counts['entries']} "
                  f"{time.perf_counter() - start:.1f}s")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
