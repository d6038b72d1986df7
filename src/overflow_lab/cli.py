"""Batch front end: parse inputs, dispatch to the modules, emit reports.

Reports are byte-stable: keys are emitted sorted, floats with 17 significant
digits (enough to round-trip exactly), rationals as "p/q" strings.  Exit
codes: 0 success, 2 domain errors (bad inputs, violated preconditions),
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import arithmetic, diffeo, lattice, overflow
from .errors import ConfigError, DomainError, NumericalError, OverflowLabError
from .maps import parse_map
from .quadrature import QuadratureSettings
from .series import TruncatedSeries, parse_series_literal


# -- canonical serialization ---------------------------------------------------

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise DomainError("non-finite value in a report")
    return format(x, ".17g")


def _canonical(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return _canonical(obj) + "\n"


def report_csv(rows, columns=("x", "value", "method")) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            cells.append(_format_float(cell) if isinstance(cell, float) else str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- configuration ---------------------------------------------------------------

_CONFIG_KEYS = {"grid", "tol", "depth"}


def load_settings(path: Optional[str]) -> QuadratureSettings:
    if path is None:
        return QuadratureSettings()
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return QuadratureSettings(
            base_grid=int(data.get("grid", QuadratureSettings.base_grid)),
            tol=float(data.get("tol", QuadratureSettings.tol)),
            max_depth=int(data.get("depth", QuadratureSettings.max_depth)),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def _settings_dict(settings: QuadratureSettings) -> dict:
    return {
        "grid": settings.base_grid,
        "tol": settings.tol,
        "depth": settings.max_depth,
    }


def _parse_psi(text: str) -> TruncatedSeries:
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"series literal is not a JSON array: {exc}") from None
    if not isinstance(items, list):
        raise ConfigError("series literal must be a JSON array")
    return parse_series_literal(items)


def _parse_radii(text: str):
    try:
        radii = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad radius list {text!r}: {exc}") from None
    for r in radii:
        if not (math.isfinite(r) and r > 0):
            raise ConfigError(f"radius must be positive and finite, got {r!r}")
    return radii


# -- subcommand handlers ----------------------------------------------------------

def _cmd_overflow(args) -> str:
    settings = load_settings(args.config)
    alpha = parse_map(args.map)
    radii = _parse_radii(args.radius)
    if not radii:
        raise ConfigError("need at least one radius")

    per_radius = []
    for r in radii:
        entry = {"radius": r}
        if args.method in ("explicit", "both"):
            if args.target == "C":
                entry["explicit"] = overflow.overflow_to_C(alpha, r, settings).as_dict()
            else:
                entry["explicit"] = overflow.overflow_to_P1(alpha, r, settings).as_dict()
        if args.method in ("oracle", "both"):
            if args.target != "C":
                raise DomainError("the definitional oracle handles target C only")
            entry["oracle"] = overflow.overflow_definitional_oracle(
                alpha, r, settings
            ).as_dict()
        if args.method == "both" and args.target == "C":
            entry["residual"] = abs(
                entry["explicit"]["value"] - entry["oracle"]["value"]
            )
        per_radius.append(entry)

    if args.format == "csv":
        rows = []
        for entry in per_radius:
            for method in ("explicit", "oracle"):
                if method in entry:
                    rows.append((entry["radius"], entry[method]["value"], method))
        return report_csv(rows)

    result = {"reports": per_radius}
    if len(radii) >= 3 and args.method in ("explicit", "both"):
        values = [entry["explicit"]["value"] for entry in per_radius]
        fit = overflow.polynomial_asymptotics(radii, values)
        result["asymptotic_fit"] = fit.as_dict()
    return canonical_json(
        {
            "command": "overflow",
            "inputs": {"map": args.map, "target": args.target, "method": args.method},
            "settings": _settings_dict(settings),
            "result": result,
        }
    )


def _build_morphism(args) -> "arithmetic.MorphismToLine":
    psi = _parse_psi(args.psi)
    desc = arithmetic.SurfaceDescriptor(float(args.radius), psi)
    alpha = parse_map(args.map)
    return arithmetic.build_morphism(desc, alpha, args.order)


def _cmd_selfint(args) -> str:
    settings = load_settings(args.config)
    m = _build_morphism(args)
    if args.target == "A1":
        result = arithmetic.self_intersection_A1(m, settings).as_dict()
        result["direct_oracle"] = arithmetic.self_intersection_direct_oracle(m, settings)
    else:
        result = arithmetic.self_intersection_P1(m, settings).as_dict()
    return canonical_json(
        {
            "command": "selfint",
            "inputs": {
                "psi": args.psi,
                "map": args.map,
                "radius": float(args.radius),
                "order": args.order,
                "target": args.target,
            },
            "settings": _settings_dict(settings),
            "result": result,
        }
    )


def _cmd_dinv(args) -> str:
    settings = load_settings(args.config)
    m = _build_morphism(args)
    value = arithmetic.D_invariant(m, settings, target=args.target)
    return canonical_json(
        {
            "command": "dinv",
            "inputs": {
                "psi": args.psi,
                "map": args.map,
                "radius": float(args.radius),
                "order": args.order,
                "target": args.target,
            },
            "settings": _settings_dict(settings),
            "result": {
                "value": value,
                "ramification_index": m.ramification,
                "normal_degree": m.surface.normal_degree,
            },
        }
    )


def _cmd_holonomy(args) -> str:
    settings = load_settings(args.config)
    m = _build_morphism(args)
    got = arithmetic.holonomy_degree_bound(m, settings)
    return canonical_json(
        {
            "command": "holonomy-bound",
            "inputs": {
                "psi": args.psi,
                "map": args.map,
                "radius": float(args.radius),
                "order": args.order,
            },
            "settings": _settings_dict(settings),
            "result": got.as_dict(),
        }
    )


def _cmd_dimbound(args) -> str:
    if args.variant == "C":
        if args.d is None:
            raise ConfigError("variant C needs --d")
        value = arithmetic.dim_bound_C(args.n, args.d)
        inputs = {"variant": "C", "n": args.n, "d": args.d}
    else:
        if args.cd is None or args.mu is None:
            raise ConfigError("variant CNB needs --cd and --mu")
        value = arithmetic.dim_bound_CNB(args.n, Fraction(args.cd), args.mu)
        inputs = {"variant": "CNB", "n": args.n, "cd": args.cd, "mu": args.mu}
    return canonical_json(
        {"command": "dimbound", "inputs": inputs, "result": {"value": value}}
    )


def _cmd_grelem(args) -> str:
    psi = _parse_psi(args.psi)
    got = arithmetic.grelem_construct(psi, args.e, args.order)
    return canonical_json(
        {
            "command": "grelem",
            "inputs": {"psi": args.psi, "e": args.e, "order": args.order},
            "result": got.as_dict(),
        }
    )


def _load_lattice(path: str) -> "lattice.IntersectionLattice":
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"lattice file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"lattice file is not valid JSON: {exc}") from None
    required = {"labels", "matrix", "c", "cc"}
    if not isinstance(data, dict) or set(data) != required:
        raise ConfigError(f"lattice JSON must have exactly the keys {sorted(required)}")
    try:
        return lattice.IntersectionLattice(
            tuple(data["labels"]),
            tuple(tuple(Fraction(x) for x in row) for row in data["matrix"]),
            tuple(Fraction(x) for x in data["c"]),
            Fraction(data["cc"]),
        )
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(f"bad lattice entry: {exc}") from None


def _cmd_equilibrium(args) -> str:
    lat = _load_lattice(args.lattice)
    eq = lattice.equilibrium_divisor(lat)
    cnb = lattice.is_CNB(lat, eq.coefficients)
    return canonical_json(
        {
            "command": "equilibrium",
            "inputs": {"lattice": args.lattice, "labels": list(lat.labels)},
            "result": {"equilibrium": eq.as_dict(), "cnb": cnb.as_dict()},
        }
    )


def _cmd_blowup_chain(args) -> str:
    lat = lattice.blowup_chain_fixture(args.n, Fraction(args.cc))
    eq = lattice.equilibrium_divisor(lat)
    cnb = lattice.is_CNB(lat, eq.coefficients)
    return canonical_json(
        {
            "command": "blowup-chain",
            "inputs": {"n": args.n, "cc": args.cc},
            "result": {
                "labels": list(lat.labels),
                "equilibrium": eq.as_dict(),
                "cnb": cnb.as_dict(),
            },
        }
    )


def _cmd_sample_diffeo(args) -> str:
    sample = diffeo.haar_sample(args.level, args.seed)
    return canonical_json(
        {
            "command": "sample-diffeo",
            "inputs": {"level": args.level, "seed": args.seed},
            "result": {"coefficients": [float(c) for c in sample.coeffs]},
        }
    )


def _cmd_jacobian_check(args) -> str:
    rng = np.random.default_rng(args.seed)
    phi = diffeo.OrbitElement(
        args.e, args.a, tuple(float(x) for x in rng.normal(size=args.level))
    )
    g = diffeo.TruncatedDiffeo(tuple(float(x) for x in rng.uniform(size=args.level)))
    got = diffeo.jacobian_check(args.e, args.a, args.level, phi, g, args.step)
    return canonical_json(
        {
            "command": "jacobian-check",
            "inputs": {
                "e": args.e,
                "a": args.a,
                "level": args.level,
                "seed": args.seed,
                "step": args.step,
            },
            "result": got.as_dict(),
        }
    )


def _cmd_measure_mc(args) -> str:
    got = diffeo.measure_bound_mc(
        args.e, args.a, args.rho, args.box_radius, args.level,
        samples=args.samples, seed=args.seed, shards=args.shards,
    )
    return canonical_json(
        {
            "command": "measure-mc",
            "inputs": {
                "e": args.e,
                "a": args.a,
                "rho": args.rho,
                "box_radius": args.box_radius,
                "level": args.level,
            },
            "result": got.as_dict(),
        }
    )


# -- argument parsing --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors raise ConfigError, so they exit 2 with a JSON body like
    every other bad input; ``--help`` still prints and exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="overflow-lab",
        description="Cross-validated capacitary, overflow, and intersection invariants",
    )
    parser.add_argument("--output", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overflow", help="Archimedean excess of a disk map")
    p.add_argument("--map", required=True, help='expression in z, e.g. "z^3+z"')
    p.add_argument("--radius", required=True, help="radius or comma list of radii")
    p.add_argument("--target", choices=["C", "P1"], default="C")
    p.add_argument("--method", choices=["explicit", "oracle", "both"], default="explicit")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--config", help="quadrature settings JSON (grid, tol, depth)")
    p.set_defaults(handler=_cmd_overflow)

    def morphism_args(q):
        q.add_argument("--psi", required=True, help='series literal, e.g. \'["0","1/3"]\'')
        q.add_argument("--map", required=True)
        q.add_argument("--radius", default="1", help="disk radius (default 1)")
        q.add_argument("--order", type=int, default=24)
        q.add_argument("--config")

    p = sub.add_parser("selfint", help="self-intersection of the pushed divisor")
    morphism_args(p)
    p.add_argument("--target", choices=["A1", "P1"], default="A1")
    p.set_defaults(handler=_cmd_selfint)

    p = sub.add_parser("dinv", help="capacity-normalized self-intersection")
    morphism_args(p)
    p.add_argument("--target", choices=["A1", "P1"], default="A1")
    p.set_defaults(handler=_cmd_dinv)

    p = sub.add_parser("holonomy-bound", help="degree bound on the function field")
    morphism_args(p)
    p.set_defaults(handler=_cmd_holonomy)

    p = sub.add_parser("dimbound", help="section-count bounds")
    p.add_argument("--variant", choices=["C", "CNB"], default="C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--cd", help="rational component degree, e.g. 3/2")
    p.add_argument("--mu", type=int)
    p.set_defaults(handler=_cmd_dimbound)

    p = sub.add_parser("grelem", help="integer series with decaying composition")
    p.add_argument("--psi", required=True)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--order", type=int, default=24)
    p.set_defaults(handler=_cmd_grelem)

    p = sub.add_parser("equilibrium", help="equilibrium divisor of a lattice file")
    p.add_argument("--lattice", required=True, help="JSON: labels, matrix, c, cc")
    p.set_defaults(handler=_cmd_equilibrium)

    p = sub.add_parser("blowup-chain", help="chain fixture and its equilibrium")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cc", default="0", help="section self-intersection (rational)")
    p.set_defaults(handler=_cmd_blowup_chain)

    p = sub.add_parser("sample-diffeo", help="seeded fundamental-domain sample")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_sample_diffeo)

    p = sub.add_parser("jacobian-check", help="finite-difference orbit Jacobian")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_jacobian_check)

    p = sub.add_parser("measure-mc", help="orbit-box Monte Carlo vs counting bound")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--box-radius", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=4)
    p.set_defaults(handler=_cmd_measure_mc)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.handler(args)
    except NumericalError as exc:
        sys.stdout.write(canonical_json(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}
        ))
        return 3
    except OverflowLabError as exc:
        sys.stdout.write(canonical_json(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}
        ))
        return 2
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
