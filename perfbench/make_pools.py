#!/usr/bin/env python3
"""Regenerate the candidate pools that ``excess-c`` and ``oracle-tight`` draw from.

Candidates come from a fixed random stream (see ``workloads.py`` for the
distributions) and are run once in-process to record their cost, which
``workloads.strata`` uses to give every run the same mix of cheap and
expensive commands.  The pools are committed; regenerate them only together
with a new recorded baseline, from the checkout root:

    PYTHONPATH=src python3 perfbench/make_pools.py --pool excess-c --size 48

``excess-c`` keeps candidates whose explicit ladder is accepted at 4096 x 32768
or below (deeper ladders cost 15 s or more per command); ``oracle-tight``
keeps every candidate that ends within MAX_COST_S, including those that end
in NoConvergence, and records the outcome.  The caps keep one command from
dominating a run.  ``invariants`` keeps groups of commands of each type in
INVARIANTS_SIZES, timed in fresh interpreters as the benchmark runs them;
the rational three-radius P1 sweeps, which exit 2 today, stay in.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

MAX_COST_S = 5.0


def classify_excess_c(cand: dict) -> dict | None:
    from overflow_lab import overflow
    from overflow_lab.errors import NoConvergence
    from overflow_lab.maps import parse_map
    from overflow_lab.quadrature import QuadratureSettings

    alpha = parse_map(cand["map"])
    capped = QuadratureSettings(max_depth=4)  # same ladder as the defaults, cut at 4096
    t0 = time.perf_counter()
    try:
        rep = overflow.overflow_to_C(alpha, cand["radius"], capped)
    except NoConvergence:
        return None
    overflow.overflow_definitional_oracle(alpha, cand["radius"])
    return {**cand, "cost_s": round(time.perf_counter() - t0, 3),
            "outcome": f"grid {rep.certificate.grid}"}


def classify_oracle_tight(cand: dict) -> dict | None:
    from overflow_lab import overflow
    from overflow_lab.errors import OverflowLabError
    from overflow_lab.maps import parse_map
    from overflow_lab.quadrature import QuadratureSettings

    cfg = workloads.TIGHT_CONFIG
    settings = QuadratureSettings(base_grid=cfg["grid"], tol=cfg["tol"], max_depth=cfg["depth"])
    alpha = parse_map(cand["map"])
    t0 = time.perf_counter()
    try:
        rep = overflow.overflow_definitional_oracle(alpha, cand["radius"], settings)
        outcome = f"grid {rep.certificate.grid}"
    except OverflowLabError as exc:
        outcome = type(exc).__name__
    cost = time.perf_counter() - t0
    return {**cand, "cost_s": round(cost, 3), "outcome": outcome} if cost <= MAX_COST_S else None


def classify_invariants(cand: dict) -> dict:
    """Run the group's commands as the benchmark does and record their wall time."""
    import run

    workdir = run.ROOT / run.WORK / "pool"
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "sweep.json"
    config.write_text(json.dumps(workloads.SWEEP_CONFIG))
    cost, rcs = 0.0, []
    for _, argv in cand["cmds"]:
        argv = [a.replace("{config}", str(config.relative_to(run.ROOT))) for a in argv]
        rc, _, wall, _, _ = run.spawn([sys.executable, "-c", run.CLI_CODE, *argv],
                                      run.child_env(), workdir, time.monotonic() + 300)
        cost += wall
        rcs.append(rc)
    return {**cand, "cost_s": round(cost, 3), "outcome": f"exit {rcs}"}


POOLS = {
    "excess-c": (workloads.excess_c_candidate, classify_excess_c),
    "oracle-tight": (workloads.oracle_tight_candidate, classify_oracle_tight),
    "invariants": (None, classify_invariants),
}

#: Pool entries per invariants group type.
INVARIANTS_SIZES = {"morphism": 24, "p1-in": 12, "p1-out": 12, "sweep-c": 12, "sweep-p1": 12}


def _candidates(pool: str, rng: random.Random):
    if pool != "invariants":
        make = POOLS[pool][0]
        while True:
            yield make(rng)
    for kind, size in INVARIANTS_SIZES.items():
        for _ in range(size):
            yield workloads.invariants_candidate(rng, kind)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=sorted(POOLS), required=True)
    parser.add_argument("--size", type=int, default=48,
                        help="entries to keep (the invariants pool has fixed sizes per type)")
    args = parser.parse_args()

    classify = POOLS[args.pool][1]
    size = sum(INVARIANTS_SIZES.values()) if args.pool == "invariants" else args.size
    rng = random.Random(f"pool:{args.pool}")
    entries, drawn, seen = [], 0, set()
    for cand in _candidates(args.pool, rng):
        if len(entries) >= size:
            break
        drawn += 1
        key = json.dumps(cand, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        got = classify(cand)
        print(f"{drawn:4d} {key[:100]}: "
              f"{got['outcome'] + ' ' + str(got['cost_s']) + ' s' if got else 'excluded'}",
              flush=True)
        if got is not None:
            entries.append(got)
    out = workloads.POOL_DIR / f"{args.pool}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"pool": args.pool, "candidates_drawn": drawn,
                               "entries": entries}, indent=1) + "\n")
    print(f"wrote {out} ({len(entries)} of {drawn} candidates)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
