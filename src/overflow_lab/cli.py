"""Batch front end: parse inputs, dispatch to the modules, emit reports.

Reports are byte-stable: keys are emitted sorted, floats with 17 significant
digits (enough to round-trip exactly), rationals as "p/q" strings.  This
module alone lays out reports.  Each handler returns its inputs and result
(or the finished text of a CSV report), and ``main`` frames every report once
as {command, inputs, settings, result}: for exactly the subcommands that
declare --config it loads the quadrature settings into ``args.settings``
before the handler runs, and echoes them.  A result record
(a dataclass) serializes as the object of its fields by name, a truncated
series as its coefficient list, and the handlers build the few layouts that
differ from a record's fields.  Exit codes: 0 success, 2 domain errors (bad
inputs and option values, violated preconditions, a number too long to
print), 3 numerical non-convergence.  The console command (``entrypoint``)
runs with the cyclic garbage collector off and leaves by ``os._exit`` once
both streams are flushed; ``main`` does neither.

Each handler imports the layers it uses, so a command loads only its own
modules: ``equilibrium`` and ``blowup-chain`` never load numpy, and
``overflow`` never loads ``arithmetic``, ``lattice`` or ``diffeo``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import ConfigError, DomainError, NumericalError, OverflowLabError
from .series import TruncatedSeries, parse_series_literal


# -- canonical serialization ---------------------------------------------------

#: Python's limit on the digits of an integer converted to or from a string,
#: and the least term past it (built once: a lattice file has many entries)
_MAX_DIGITS = 4300
_MAX_TERM = 10**_MAX_DIGITS


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
    if isinstance(obj, (int, Fraction)):
        try:
            text = str(obj)
        except ValueError:  # a term past Python's digit limit
            raise DomainError(
                f"a value in the report has more than {_MAX_DIGITS} digits"
            ) from None
        return text if isinstance(obj, int) else json.dumps(text)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, TruncatedSeries):
        return _canonical(obj.coeffs)
    # a dataclass record, found without importing dataclasses (start-up cost)
    if hasattr(type(obj), "__dataclass_fields__"):
        return _canonical(_fields(obj))
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__dataclass_fields__}


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


def load_settings(path: Optional[str]) -> "QuadratureSettings":
    from .quadrature import QuadratureSettings

    if path is None:
        return QuadratureSettings()
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer past
        # Python's digit limit, or arrays nested past the recursion limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    grid = data.get("grid", QuadratureSettings.base_grid)
    tol = data.get("tol", QuadratureSettings.tol)
    depth = data.get("depth", QuadratureSettings.max_depth)
    # exact types: JSON true and false load as bool, a subclass of int
    for key, value in (("grid", grid), ("depth", depth)):
        if type(value) is not int:
            raise ConfigError(f"bad config value: {key} must be an integer, got {value!r}")
    try:
        finite = type(tol) in (int, float) and math.isfinite(tol)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"bad config value: tol must be a finite number, got {tol!r}")
    try:
        return QuadratureSettings(base_grid=grid, tol=float(tol), max_depth=depth)
    except DomainError as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def _parse_psi(text: str) -> TruncatedSeries:
    try:
        items = json.loads(text)
    except (ValueError, RecursionError) as exc:  # as in load_settings
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


def _rational(text: str) -> Fraction:
    """A rational literal (3/2, -1, 0.25, 1e3) whose terms a report can print."""
    try:
        # Fraction expands an exponent as 10**exponent, for minutes if it is long
        if abs(int(text.lower().partition("e")[2] or "0")) <= _MAX_DIGITS:
            value = Fraction(text)
            if max(abs(value.numerator), value.denominator) < _MAX_TERM:
                return value
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(
        f"not a rational number with terms of at most {_MAX_DIGITS} digits: {text!r}"
    )


def _seed(text: str) -> int:
    """A nonnegative integer, the seeds numpy's generators accept."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


# -- subcommand handlers ----------------------------------------------------------

#: Rounding allowed in a residual, in ulps of the larger value or of 1: each
#: route's value is a sum of logarithms of order one or more, and carries a
#: rounding error of a couple of their ulps that no certificate counts.
_RESIDUAL_ULPS = 4


def _cmd_overflow(args):
    from . import overflow
    from .maps import parse_map

    settings = args.settings
    alpha = parse_map(args.map)
    radii = _parse_radii(args.radius)
    if not radii:
        raise ConfigError("need at least one radius")

    per_radius = []
    for r in radii:
        entry = {"radius": r}
        if args.method in ("explicit", "both"):
            if args.target == "C":
                entry["explicit"] = overflow.overflow_to_C(alpha, r, settings)
            else:
                entry["explicit"] = overflow.overflow_to_P1(alpha, r, settings)
        if args.method in ("oracle", "both"):
            if args.target != "C":
                raise DomainError("the definitional oracle handles target C only")
            entry["oracle"] = overflow.overflow_definitional_oracle(alpha, r, settings)
        if args.method == "both" and args.target == "C":
            explicit, oracle = entry["explicit"], entry["oracle"]
            entry["residual"] = abs(explicit.value - oracle.value)
            # whether the two certificates, and the rounding of the two
            # values, account for the gap between the routes
            scale = max(1.0, abs(explicit.value), abs(oracle.value))
            rounding = _RESIDUAL_ULPS * math.ulp(scale)
            entry["residual_within_achieved"] = entry["residual"] <= (
                explicit.certificate.achieved + oracle.certificate.achieved + rounding)
        per_radius.append(entry)

    if args.format == "csv":
        rows = []
        for entry in per_radius:
            for method in ("explicit", "oracle"):
                if method in entry:
                    rows.append((entry["radius"], entry[method].value, method))
        return report_csv(rows)

    result = {"reports": per_radius}
    if len(radii) >= 3 and args.method in ("explicit", "both"):
        values = [entry["explicit"].value for entry in per_radius]
        result["asymptotic_fit"] = overflow.polynomial_asymptotics(radii, values)
    return {"map": args.map, "target": args.target, "method": args.method}, result


def _build_morphism(args) -> "arithmetic.MorphismToLine":
    from . import arithmetic
    from .maps import parse_map

    psi = _parse_psi(args.psi)
    desc = arithmetic.SurfaceDescriptor(args.radius, psi)
    alpha = parse_map(args.map)
    return arithmetic.build_morphism(desc, alpha, args.order)


def _morphism_inputs(args) -> dict:
    return {"psi": args.psi, "map": args.map, "radius": args.radius, "order": args.order}


def _cmd_selfint(args):
    from . import arithmetic

    m = _build_morphism(args)
    if args.target == "A1":
        a1 = arithmetic.self_intersection_A1(m, args.settings)
        result = {
            "value": a1.value,
            "parts": {
                "normal": a1.normal_part,
                "finite_excess": a1.finite_excess,
                "archimedean_excess": a1.archimedean_excess,
            },
            "doubled_corollary_value": a1.doubled_corollary_value,
            "doubled_corollary_status": "disputed",
            "direct_oracle": arithmetic.self_intersection_direct_oracle(m, args.settings),
        }
    else:
        p1 = arithmetic.self_intersection_P1(m, args.settings)
        result = {
            "value": p1.value,
            "parts": {
                "height": p1.height_part,
                "characteristic": p1.characteristic_part,
                "kernel": p1.kernel_part,
            },
            "upper_bound": p1.upper_bound,
        }
    return dict(_morphism_inputs(args), target=args.target), result


def _cmd_dinv(args):
    from . import arithmetic

    m = _build_morphism(args)
    value = arithmetic.D_invariant(m, args.settings, target=args.target)
    return dict(_morphism_inputs(args), target=args.target), {
        "value": value,
        "ramification_index": m.ramification,
        "normal_degree": m.surface.normal_degree,
    }


def _cmd_holonomy(args):
    from . import arithmetic

    m = _build_morphism(args)
    return _morphism_inputs(args), arithmetic.holonomy_degree_bound(m, args.settings)


def _cmd_dimbound(args):
    from . import arithmetic

    if args.variant == "C":
        if args.d is None:
            raise ConfigError("variant C needs --d")
        value = arithmetic.dim_bound_C(args.n, args.d)
        inputs = {"variant": "C", "n": args.n, "d": args.d}
    else:
        if args.cd is None or args.mu is None:
            raise ConfigError("variant CNB needs --cd and --mu")
        value = arithmetic.dim_bound_CNB(args.n, args.cd, args.mu)
        inputs = {"variant": "CNB", "n": args.n, "cd": args.cd, "mu": args.mu}
    return inputs, {"value": value}


def _cmd_grelem(args):
    from . import arithmetic

    psi = _parse_psi(args.psi)
    result = _fields(arithmetic.grelem_construct(psi, args.e, args.order))
    result["lambda"] = result.pop("lam")
    return {"psi": args.psi, "e": args.e, "order": args.order}, result


def _load_lattice(path: str) -> "lattice.IntersectionLattice":
    from . import lattice

    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"lattice file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # as in load_settings
        raise ConfigError(f"lattice file is not valid JSON: {exc}") from None
    required = {"labels", "matrix", "c", "cc"}
    if not isinstance(data, dict) or set(data) != required:
        raise ConfigError(f"lattice JSON must have exactly the keys {sorted(required)}")

    def entry(x) -> Fraction:
        if isinstance(x, bool):  # JSON true and false load as bool, a subclass of int
            raise ConfigError(f"bad lattice entry: {json.dumps(x)} is not a number")
        if not isinstance(x, str):
            return Fraction(x)
        try:  # most entries are integer literals: int() skips Fraction's regex
            value = int(x)
        except ValueError:
            return _rational(x)
        # int() keeps to the term bound unless the interpreter's digit limit is raised
        return Fraction(value) if abs(value) < _MAX_TERM else _rational(x)

    try:
        return lattice.IntersectionLattice(
            tuple(data["labels"]),
            tuple(tuple(entry(x) for x in row) for row in data["matrix"]),
            tuple(entry(x) for x in data["c"]),
            entry(data["cc"]),
        )
    except (ValueError, ZeroDivisionError, TypeError, OverflowError,
            argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad lattice entry: {exc}") from None


def _cmd_equilibrium(args):
    from . import lattice

    lat = _load_lattice(args.lattice)
    eq = lattice.equilibrium_divisor(lat)
    cnb = lattice.is_CNB(lat, eq.coefficients)
    inputs = {"lattice": args.lattice, "labels": list(lat.labels)}
    return inputs, {"equilibrium": eq, "cnb": cnb}


def _cmd_blowup_chain(args):
    from . import lattice

    lat = lattice.blowup_chain_fixture(args.n, args.cc)
    eq = lattice.equilibrium_divisor(lat)
    cnb = lattice.is_CNB(lat, eq.coefficients)
    return {"n": args.n, "cc": args.cc}, {
        "labels": list(lat.labels),
        "equilibrium": eq,
        "cnb": cnb,
    }


def _cmd_sample_diffeo(args):
    from . import diffeo

    sample = diffeo.haar_sample(args.level, args.seed)
    return {"level": args.level, "seed": args.seed}, {
        "coefficients": [float(c) for c in sample.coeffs]
    }


def _cmd_jacobian_check(args):
    from . import diffeo

    got = diffeo.sampled_jacobian_check(args.e, args.a, args.level, args.seed, args.step)
    inputs = {"e": args.e, "a": args.a, "level": args.level, "seed": args.seed,
              "step": args.step}
    return inputs, got


def _cmd_measure_mc(args):
    from . import diffeo

    got = diffeo.measure_bound_mc(
        args.e, args.a, args.rho, args.box_radius, args.level,
        samples=args.samples, seed=args.seed, shards=args.shards,
    )
    inputs = {"e": args.e, "a": args.a, "rho": args.rho, "box_radius": args.box_radius,
              "level": args.level}
    return inputs, got


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
        q.add_argument("--radius", type=float, default=1.0, help="disk radius (default 1)")
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
    p.add_argument("--cd", type=_rational, help="rational component degree, e.g. 3/2")
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
    p.add_argument("--cc", type=_rational, default="0",
                   help="section self-intersection (rational)")
    p.set_defaults(handler=_cmd_blowup_chain)

    p = sub.add_parser("sample-diffeo", help="seeded fundamental-domain sample")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(handler=_cmd_sample_diffeo)

    p = sub.add_parser("jacobian-check", help="finite-difference orbit Jacobian")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_jacobian_check)

    p = sub.add_parser("measure-mc", help="orbit-box Monte Carlo vs counting bound")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--box-radius", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--shards", type=int, default=4)
    p.set_defaults(handler=_cmd_measure_mc)

    return parser


def _report(args) -> str:
    """Run the subcommand and frame its inputs and result as one report."""
    report = {"command": args.command}
    if "config" in args:
        args.settings = settings = load_settings(args.config)
        report["settings"] = {"grid": settings.base_grid, "tol": settings.tol,
                              "depth": settings.max_depth}
    out = args.handler(args)
    if isinstance(out, str):
        return out
    report["inputs"], report["result"] = out
    return canonical_json(report)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = _report(args)
        if args.output:
            try:
                Path(args.output).write_text(text)
            except OSError as exc:
                raise ConfigError(
                    f"cannot write the report to {args.output}: {exc.strerror or exc}"
                ) from None
            text = ""
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
    sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    """Run ``main`` as the console command: one report, then the process ends.

    A command's own work is a small part of its process's time, so the
    process skips two fixed costs that buy it nothing.  The
    cyclic collector is off while ``main`` runs: reference counting frees
    every array and Fraction, and the collector's passes only rescan numpy's
    import graph.  After ``main`` returns, both streams are flushed and the
    process leaves by ``os._exit``, without tearing its modules down; the
    package starts no thread and registers no ``atexit`` handler, so that
    teardown does nothing it needs.  A flush that fails (a reader that closed
    the pipe) falls back to ``sys.exit``, and whatever escapes ``main``
    (``--help``'s SystemExit, KeyboardInterrupt, a bug's traceback) leaves
    the usual way.  ``main`` itself does neither, for callers in a process
    that goes on.
    """
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
