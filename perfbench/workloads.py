"""Seeded command lists for the four benchmark workloads.

A workload is a list of rounds; every round has the same mix of command
types, so the work in a run hardly depends on the seed.  ``excess-c``,
``oracle-tight`` and ``invariants`` draw their inputs from committed pools
(``pools/*.json``, written by ``make_pools.py``) that record each
candidate's cost at the commit that measured it.  A run takes a stratified
sample of each type's pool: one entry from each of n equal cost strata,
where n is the number of entries of that type the run needs.  ``exact``
generates its inputs directly, with the parameters that set the cost
(order, e, size, span, level) fixed per round and the rest random.

The number of rounds is ``--seconds`` divided by the round's nominal cost,
so a run does the same work on every machine and repeats its counters
exactly for a given (seed, seconds).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

POOL_DIR = Path(__file__).resolve().parent / "pools"

#: Quadrature settings written to ``--config`` files.
SWEEP_CONFIG = {"grid": 64, "tol": 1e-5, "depth": 9}  # acceptance criterion 7
TIGHT_CONFIG = {"grid": 64, "tol": 1e-8, "depth": 11}

#: Nominal seconds per round on a 2-core x86 box at the pools' commit
#: (interpreter start included); only used to turn --seconds into rounds.
ROUND_NOMINAL_S = {"excess-c": 9.5, "invariants": 10.0, "oracle-tight": 20.0, "exact": 9.0}

WORKLOADS = tuple(ROUND_NOMINAL_S)

#: Untraced passes over the command list of a ``--trace 0`` run; ``wall_s``
#: sums each command's median over the passes.  ``exact`` runs many short
#: commands, mostly interpreter start, which bursts of load on a shared
#: machine stretch one at a time.
PASSES = {"exact": 5}


@dataclass
class Command:
    """One CLI invocation and what its report is checked against."""

    kind: str                       # selects the check in checks.py
    argv: list
    expect: dict = field(default_factory=dict)


# -- expression helpers -----------------------------------------------------

def poly_expr(coeffs) -> str:
    """Expression for sum coeffs[k] z^k (increasing degree, integer coefficients)."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            zpow = "z" if k == 1 else f"z^{k}"
            body = zpow if mag == 1 else f"{mag}*{zpow}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    head_sign, head = terms[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in terms[1:]:
        text += sign + body
    return text


def random_poly(rng: random.Random, degree: int, const: bool = True) -> list:
    """Small integer coefficients, nonzero leading term, nonconstant."""
    while True:
        coeffs = [rng.randint(-3, 3) if const else 0]
        coeffs += [rng.randint(-3, 3) for _ in range(degree - 1)]
        coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
        if any(coeffs[1:]):
            return coeffs


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.4g}")


# -- pool candidates (make_pools.py classifies them) ------------------------

def excess_c_candidate(rng: random.Random) -> dict:
    coeffs = random_poly(rng, rng.randint(1, 5))
    return {"map": poly_expr(coeffs), "radius": log_uniform(rng, 0.5, 100.0)}


def oracle_tight_candidate(rng: random.Random) -> dict:
    coeffs = random_poly(rng, rng.randint(2, 8))
    return {"map": poly_expr(coeffs), "radius": log_uniform(rng, 0.5, 3.0)}


def load_pool(name: str) -> list:
    return json.loads((POOL_DIR / f"{name}.json").read_text())["entries"]


def strata(entries: list, k: int) -> list:
    """Split entries, sorted by cost, into k nearly equal contiguous groups."""
    ranked = sorted(entries, key=lambda e: (e["cost_s"], json.dumps(e, sort_keys=True)))
    bounds = [round(i * len(ranked) / k) for i in range(k + 1)]
    return [ranked[bounds[i]:bounds[i + 1]] for i in range(k)]


def stratified(rng: random.Random, entries: list, n: int) -> list:
    """n entries, one from each of n cost strata (in passes if n > len(entries))."""
    out = []
    while len(out) < n:
        k = min(n - len(out), len(entries))
        out += [rng.choice(group) for group in strata(entries, k)]
    rng.shuffle(out)
    return out


def _pool_rounds(rng: random.Random, pool: list, type_of, per_round: dict,
                 rounds: int) -> list:
    """Rounds of pool entries with per_round[t] entries of each type t = type_of(entry).

    The entries of each type are one stratified sample over the whole run.
    """
    picks = {t: stratified(rng, [e for e in pool if type_of(e) == t], n * rounds)
             for t, n in per_round.items()}
    out = []
    for r in range(rounds):
        entries = [e for t, n in per_round.items() for e in picks[t][r * n:(r + 1) * n]]
        rng.shuffle(entries)
        out.append(entries)
    return out


# -- workload builders ------------------------------------------------------

def _excess_c(rng, rounds, files):
    pool = load_pool("excess-c")
    per_round = {grid: 2 for grid in sorted({e["outcome"] for e in pool})}
    return [[Command("overflow-both", [
                "overflow", f"--map={p['map']}", "--radius", repr(p["radius"]),
                "--target", "C", "--method", "both"])
             for p in rnd]
            for rnd in _pool_rounds(rng, pool, lambda e: e["outcome"], per_round, rounds)]


def _oracle_tight(rng, rounds, files):
    config = files.add("tight.json", json.dumps(TIGHT_CONFIG))
    pool = load_pool("oracle-tight")
    return [[Command("overflow-oracle", [
                "overflow", f"--map={p['map']}", "--radius", repr(p["radius"]),
                "--method", "oracle", "--config", config], {"tol": TIGHT_CONFIG["tol"]})
             for p in rnd]
            for rnd in _pool_rounds(rng, pool, lambda e: "all", {"all": 12}, rounds)]


def _rational_expr(rng: random.Random, r: float, pole_inside: bool) -> str:
    """(num)/(q1 z + q0) with its pole inside or outside the disk of radius r."""
    while True:
        num = random_poly(rng, rng.randint(1, 2))
        q1 = rng.choice([1, 2, 3])
        modulus = rng.uniform(0.3, 0.8) * r if pole_inside else rng.uniform(1.5, 3.0) * r
        q0 = Fraction(q1 * modulus).limit_denominator(4) * rng.choice([-1, 1])
        if q0 == 0 or (abs(q0 / q1) < r) != pole_inside:
            continue
        den = [q0, q1]
        # reject num proportional to den (a constant map)
        if len(num) == 2 and num[0] * den[1] == num[1] * den[0]:
            continue
        q0_text = str(abs(q0))
        den_text = f"{q1}*z" if q1 != 1 else "z"
        den_text += ("+" if q0 > 0 else "-") + (f"({q0_text})" if "/" in q0_text else q0_text)
        return f"({poly_expr(num)})/({den_text})"


def _sorted_radii(rng: random.Random, lo: float, hi: float, count: int) -> list:
    while True:
        radii = sorted(log_uniform(rng, lo, hi) for _ in range(count))
        if all(b > a for a, b in zip(radii, radii[1:])):
            return radii


INVARIANT_TYPES = {"morphism": 3, "p1-in": 1, "p1-out": 1, "sweep-c": 2, "sweep-p1": 2}


def invariants_candidate(rng: random.Random, kind: str) -> dict:
    """A group of commands sharing one input; ``{config}`` marks the settings file."""
    cfg = ["--config", "{config}"]
    if kind == "morphism":
        rho = rng.choice([2, 3, 5])
        coeffs = [0] + [rng.randint(-3, 3) * rho**k for k in range(1, rng.randint(1, 5) + 1)]
        if not any(coeffs[1:]):
            coeffs[1] = rho
        base = ["--psi", json.dumps(["0", f"1/{rho}"]), f"--map={poly_expr(coeffs)}",
                "--order", "12", *cfg]
        cmds = [
            ["selfint-A1", ["selfint", *base, "--target", "A1"]],
            ["selfint-P1", ["selfint", *base, "--target", "P1"]],
            ["dinv", ["dinv", *base, "--target", "A1"]],
            ["dinv", ["dinv", *base, "--target", "P1"]],
            ["holonomy", ["holonomy-bound", *base]],
        ]
    elif kind in ("p1-in", "p1-out"):
        r = log_uniform(rng, 0.5, 2.0)
        cmds = [["overflow-p1", ["overflow", f"--map={_rational_expr(rng, r, kind == 'p1-in')}",
                                 "--radius", repr(r), "--target", "P1", *cfg]]]
    elif kind == "sweep-c":
        poly = poly_expr(random_poly(rng, rng.randint(1, 4)))
        radii = _sorted_radii(rng, 0.5, 3.0, 3)
        cmds = [["overflow-sweep", ["overflow", f"--map={poly}", "--radius",
                                    ",".join(map(repr, radii)), "--target", "C", *cfg]]]
    else:  # sweep-p1: a rational map swept over three radii at target P1
        radii = _sorted_radii(rng, 0.5, 2.0, 3)
        rational = _rational_expr(rng, radii[0], rng.random() < 0.5)
        cmds = [["overflow-sweep", ["overflow", f"--map={rational}", "--radius",
                                    ",".join(map(repr, radii)), "--target", "P1", *cfg]]]
    return {"type": kind, "cmds": cmds}


def _invariants(rng, rounds, files):
    config = files.add("sweep.json", json.dumps(SWEEP_CONFIG))
    pool = load_pool("invariants")
    out = []
    for rnd in _pool_rounds(rng, pool, lambda e: e["type"], INVARIANT_TYPES, rounds):
        cmds = [Command(kind, [a.replace("{config}", config) for a in argv])
                for entry in rnd for kind, argv in entry["cmds"]]
        rng.shuffle(cmds)
        out.append(cmds)
    return out


def lattice_json(rng: random.Random, size: int) -> dict:
    """Negative definite, nonnegative off-diagonal: the equilibrium is effective.

    Off-diagonal intersection numbers are 0 or 1 (a chain plus random extra
    meetings); each diagonal entry is minus its row sum minus 1..3, so the
    matrix is strictly diagonally dominant and negative definite, and
    -M^{-1} is entrywise nonnegative.
    """
    m = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        m[i][i + 1] = m[i + 1][i] = 1
    for _ in range(size // 2):
        i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if i != j:
            m[i][j] = m[j][i] = 1
    for i in range(size):
        m[i][i] = -(sum(m[i]) + rng.randint(1, 3))
    c = [1] + [rng.choice([0, 0, 1]) for _ in range(size - 1)]
    return {
        "labels": [f"W{i}" for i in range(size)],
        "matrix": [[str(x) for x in row] for row in m],
        "c": [str(x) for x in c],
        "cc": str(rng.randint(-3, 2)),
    }


#: (order, |psi'(0)|, e) of the four grelem commands in a round.
GRELEM_SLOTS = ((24, "2", 2), (32, "3", 1), (40, "3/2", 2), (48, "2", 1))
#: (e, |a|, level) of the measure-mc commands: the cost grows with e and with
#: (e |a|)^level, the number of domain representatives.
MEASURE_SLOTS = ((1, 1, 3), (1, 3, 3), (2, 3, 3), (2, 2, 2))
#: (e, a, level) of the jacobian-check commands.
JACOBIAN_SLOTS = ((1, 2, 3), (2, 1, 4), (3, 2, 5), (2, 3, 6))


def _exact(rng, rounds, files):
    """Every round has the same cost-setting parameters; the seed draws the rest."""
    out = []
    for rnd in range(rounds):
        cmds = []
        for order, lam, e in GRELEM_SLOTS:
            psi = ["0", rng.choice(["", "-"]) + lam] + [str(rng.randint(-2, 2)) for _ in range(2)]
            cmds.append(Command("grelem", ["grelem", "--psi", json.dumps(psi),
                                           "--e", str(e), "--order", str(order)]))
        for size in (10, 25, 40, 50):
            lat = lattice_json(rng, size)
            path = files.add(f"lattice-{rnd}-{size}.json", json.dumps(lat))
            cmds.append(Command("equilibrium", ["equilibrium", "--lattice", path], {"lattice": lat}))
        for n in (rng.randint(18, 22), rng.randint(38, 42)):
            cmds.append(Command("blowup-chain", ["blowup-chain", "--n", str(n),
                                                 "--cc", str(rng.randint(-3, 2))]))
        for e, a, level in MEASURE_SLOTS:
            cmds.append(Command("measure-mc", [
                "measure-mc", "--e", str(e), "--a", str(a * rng.choice([-1, 1])),
                "--rho", rng.choice(["1.5", "2", "3"]), "--box-radius", rng.choice(["0.5", "1"]),
                "--level", str(level), "--seed", str(rng.randint(0, 10**6)),
            ]))
        for e, a, level in JACOBIAN_SLOTS:
            cmds.append(Command("jacobian", [
                "jacobian-check", "--e", str(e), "--a", str(a),
                "--level", str(level), "--seed", str(rng.randint(0, 10**6)),
            ]))
        rng.shuffle(cmds)
        out.append(cmds)
    return out


_BUILDERS = {
    "excess-c": _excess_c,
    "invariants": _invariants,
    "oracle-tight": _oracle_tight,
    "exact": _exact,
}


class InputFiles:
    """Input files a command list refers to, by path relative to the checkout."""

    def __init__(self, rel_dir: str):
        self.rel_dir = rel_dir
        self.contents = {}

    def add(self, name: str, text: str) -> str:
        path = f"{self.rel_dir}/{name}"
        self.contents[path] = text
        return path

    def write(self, root: Path) -> None:
        for path, text in self.contents.items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)


def rounds_for(workload: str, seconds: float, passes: int = 1) -> int:
    return max(1, round(seconds / (passes * ROUND_NOMINAL_S[workload])))


def build(workload: str, seed: int, rounds: int, rel_dir: str):
    """(commands, files) for a workload; the same arguments give the same lists."""
    rng = random.Random(f"{workload}:{seed}")
    files = InputFiles(rel_dir)
    per_round = _BUILDERS[workload](rng, rounds, files)
    return [cmd for rnd in per_round for cmd in rnd], files
