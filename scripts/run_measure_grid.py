#!/usr/bin/env python3
"""Monte-Carlo sweep of the orbit-box frequency against its counting bounds.

Each grid cell samples the fundamental cube, tests whether some domain
representative lands in the shrinking coefficient box, and prints the
estimate next to the published bound and the sharper product-form bound.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from overflow_lab.cli import canonical_json  # noqa: E402
from overflow_lab.diffeo import measure_bound_mc  # noqa: E402

GRID = [
    (1, 1, 2.0, 1.0, 3),
    (1, 1, 1.5, 1.0, 3),
    (1, 2, 2.0, 1.0, 2),
    (2, 1, 1.5, 1.0, 2),
    (2, 1, 2.0, 0.5, 2),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20240809)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--out", default="measure-grid.json")
    args = parser.parse_args()

    cells = []
    for e, a, rho, box, n in GRID:
        got = measure_bound_mc(
            e, a, rho, box, n, samples=args.samples, seed=args.seed,
            shards=args.shards,
        )
        cells.append({"e": e, "a": a, "rho": rho, "box_radius": box, "n": n,
                      "report": got})
        status = "ok" if got.estimate <= got.paper_bound + 3 * got.stderr else "VIOLATED"
        flag = " (uninformative)" if got.uninformative else ""
        print(f"e={e} a={a} rho={rho} R={box} n={n}: estimate {got.estimate:.5f} "
              f"vs bound {got.paper_bound:.5f} [{status}]{flag}")

    Path(args.out).write_text(canonical_json({"grid": cells, "seed": args.seed,
                                              "samples": args.samples,
                                              "shards": args.shards}))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
