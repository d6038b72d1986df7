"""Checks on each command's report.

``check(cmd, rc, stdout)`` returns a ``Verdict``.  A command *fails* on a
nonzero exit, on empty or invalid output, or on a failed check.  A failure
is also *wrong* unless it is an error the CLI contract allows: exit 2 or 3
with a ``{"error": ...}`` body (a domain error or an honest NoConvergence).
Wrong outputs make the run's ``correct`` false; allowed errors only count
as failures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

NONNEG_SLACK = 1e-5      # overflow.REPORT_NONNEGATIVITY_SLACK
ORACLE_AGREE = 1e-4      # acceptance criterion 2
SELFINT_AGREE = 1e-3     # acceptance criterion 7
JACOBIAN_REL = 1e-5


@dataclass
class Verdict:
    ok: bool
    wrong: bool = False
    reason: str = ""
    gap: Optional[float] = None     # disagreement between two routes


class CheckFailed(Exception):
    pass


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _finite(x) -> float:
    _need(isinstance(x, (int, float)) and math.isfinite(x), f"non-finite value {x!r}")
    return float(x)


def _excess(rep: dict, tol: Optional[float] = None) -> float:
    value = _finite(rep["value"])
    _need(value >= -NONNEG_SLACK, f"negative excess {value}")
    cert = rep.get("certificate")
    _need(cert is not None, "missing certificate")
    if tol is not None:
        _need(cert["tol"] == tol, "settings not echoed")
    _need(cert["achieved"] <= cert["tol"], "certificate achieved exceeds tol")
    return value


def _overflow_both(out: dict, expect: dict) -> Optional[float]:
    gap = None
    for entry in out["result"]["reports"]:
        ex, orc = _excess(entry["explicit"]), _excess(entry["oracle"])
        diff = abs(ex - orc)
        _need(entry["residual"] == diff, "residual is not |explicit - oracle|")
        if not entry["oracle"]["boundary_tangency"]:
            _need(diff <= ORACLE_AGREE, f"explicit vs oracle differ by {diff:.3g}")
            gap = max(gap or 0.0, diff)
    return gap


def _overflow_oracle(out: dict, expect: dict) -> None:
    for entry in out["result"]["reports"]:
        _excess(entry["oracle"], expect.get("tol"))


def _overflow_p1(out: dict, expect: dict) -> None:
    for entry in out["result"]["reports"]:
        _excess(entry["explicit"])


def _overflow_sweep(out: dict, expect: dict) -> None:
    reports = out["result"]["reports"]
    _need(len(reports) >= 3, "sweep lost radii")
    values = [_excess(e["explicit"]) for e in reports]
    fit = out["result"]["asymptotic_fit"]
    _need(fit["values"] == values, "asymptotic fit does not use the reported values")
    _need(fit["radii"] == [e["radius"] for e in reports], "fit radii differ")


def _selfint_a1(out: dict, expect: dict) -> float:
    res = out["result"]
    parts = res["parts"]
    total = parts["normal"] + parts["finite_excess"] + parts["archimedean_excess"]
    _need(abs(total - res["value"]) <= 1e-12 * max(1.0, abs(total)), "parts do not add up")
    gap = abs(_finite(res["value"]) - _finite(res["direct_oracle"]))
    _need(gap <= SELFINT_AGREE, f"decomposition vs direct differ by {gap:.3g}")
    return gap


def _selfint_p1(out: dict, expect: dict) -> None:
    res = out["result"]
    _need(_finite(res["parts"]["kernel"]) >= -NONNEG_SLACK, "negative kernel part")
    _need(res["value"] <= res["upper_bound"] + NONNEG_SLACK, "value above its upper bound")


def _dinv(out: dict, expect: dict) -> None:
    res = out["result"]
    slack = NONNEG_SLACK / res["normal_degree"]
    _need(_finite(res["value"]) >= res["ramification_index"] - slack, "D below e")


def _holonomy(out: dict, expect: dict) -> None:
    res = out["result"]
    _need(res["degree_bound"] == math.floor(_finite(res["d_invariant"]) + 1e-12),
          "degree bound is not floor(D)")
    _need(res["d_invariant"] >= 1 - NONNEG_SLACK, "D below 1")


def _grelem(out: dict, expect: dict) -> None:
    res = out["result"]
    e, order = out["inputs"]["e"], out["inputs"]["order"]
    alpha = [Fraction(x) for x in res["alpha_hat"]]
    composed = [Fraction(x) for x in res["composed"]]
    lam = Fraction(res["lambda"])
    _need(all(a.denominator == 1 for a in alpha), "alpha_hat not integral")
    _need(alpha[:e] == [0] * e and alpha[e] == 1, "alpha_hat does not start with X^e")
    _need(res["certificate_checked"] == order, "certificate order")
    for n in range(e + 1, order + 1):
        _need(abs(composed[n]) <= Fraction(1, 2) / abs(lam) ** n,
              f"composed coefficient {n} breaks the decay bound")


def _lattice_solution(lat: dict, eq: dict) -> None:
    matrix = [[Fraction(x) for x in row] for row in lat["matrix"]]
    c = [Fraction(x) for x in lat["c"]]
    v = [Fraction(x) for x in eq["coefficients"]]
    for row, ci in zip(matrix, c):
        _need(sum(a * b for a, b in zip(row, v)) == -ci, "M v != -c")
    _need(eq["effective"] is True and all(x >= 0 for x in v), "equilibrium not effective")
    _need(Fraction(eq["dd"]) == Fraction(lat["cc"]) + sum(a * b for a, b in zip(c, v)),
          "dd != cc + c.v")


def _equilibrium(out: dict, expect: dict) -> None:
    _lattice_solution(expect["lattice"], out["result"]["equilibrium"])


def _blowup_chain(out: dict, expect: dict) -> None:
    n, cc = out["inputs"]["n"], Fraction(out["inputs"]["cc"])
    eq = out["result"]["equilibrium"]
    _need([Fraction(x) for x in eq["coefficients"]] == [Fraction(n - i) for i in range(n)],
          "chain coefficients are not (n, ..., 1)")
    _need(Fraction(eq["dd"]) == cc + n, "chain dd != cc + n")


def _measure_mc(out: dict, expect: dict) -> None:
    res = out["result"]
    if not res["uninformative"]:
        _need(res["estimate"] <= res["paper_bound"] + 3 * res["stderr"],
              "Monte-Carlo estimate above the counting bound")


def _jacobian(out: dict, expect: dict) -> None:
    _need(_finite(out["result"]["relative_error"]) <= JACOBIAN_REL, "Jacobian off (e a)^n")


CHECKS = {
    "overflow-both": _overflow_both,
    "overflow-oracle": _overflow_oracle,
    "overflow-p1": _overflow_p1,
    "overflow-sweep": _overflow_sweep,
    "selfint-A1": _selfint_a1,
    "selfint-P1": _selfint_p1,
    "dinv": _dinv,
    "holonomy": _holonomy,
    "grelem": _grelem,
    "equilibrium": _equilibrium,
    "blowup-chain": _blowup_chain,
    "measure-mc": _measure_mc,
    "jacobian": _jacobian,
}


def check(cmd, rc: int, stdout: str) -> Verdict:
    if not stdout.strip():
        return Verdict(False, True, f"exit {rc} with empty stdout")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return Verdict(False, True, f"exit {rc} with invalid JSON")
    if rc != 0:
        allowed = rc in (2, 3) and isinstance(out, dict) and set(out) == {"error"}
        return Verdict(False, not allowed, f"exit {rc}: {json.dumps(out)[:160]}")
    try:
        _need(out.get("command") == cmd.argv[0], "report names another command")
        gap = CHECKS[cmd.kind](out, cmd.expect)
    except CheckFailed as exc:
        return Verdict(False, True, str(exc))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return Verdict(False, True, f"malformed report: {type(exc).__name__}: {exc}")
    return Verdict(True, gap=gap)
