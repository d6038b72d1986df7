"""Exact rational intersection lattices and their equilibrium divisors.

All arithmetic is exact: matrices are cleared to integers and eliminated
fraction-free (Bareiss) in one pass that yields both the leading principal
minors and, with the right-hand side appended, the solution.  Pairings of a
divisor against the lattice sum integer numerators over one common
denominator, so only their results are Fractions.  Negative
definiteness (alternating leading principal minors), equilibrium solutions
and the comparison identities all hold as equalities of rationals, never up
to rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import CandidateNotCNB, DomainError, NotNegativeDefinite


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _to_fraction_matrix(rows: Sequence[Sequence]) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(map(_fraction, row)) for row in rows)


def _numerators(xs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators of rationals over their least common denominator."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


@dataclass(frozen=True)
class IntersectionLattice:
    """Labeled symmetric pairing of vertical components against a section.

    ``matrix`` holds the pairwise component intersections, ``c`` the section
    against each component, ``cc`` the section self-intersection.
    """

    labels: Tuple[str, ...]
    matrix: Tuple[Tuple[Fraction, ...], ...]
    c: Tuple[Fraction, ...]
    cc: Fraction

    def __post_init__(self):
        m = len(self.labels)
        object.__setattr__(self, "matrix", _to_fraction_matrix(self.matrix))
        object.__setattr__(self, "c", tuple(map(_fraction, self.c)))
        object.__setattr__(self, "cc", _fraction(self.cc))
        if len(self.matrix) != m or any(len(row) != m for row in self.matrix):
            raise DomainError("matrix shape does not match the labels")
        if len(self.c) != m:
            raise DomainError("section vector length does not match the labels")
        for i in range(m):
            for j in range(i + 1, m):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise DomainError(f"matrix not symmetric at ({i}, {j})")

    @property
    def size(self) -> int:
        return len(self.labels)


def _bareiss(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction] = ()):
    """Fraction-free elimination of [M | rhs] without pivoting (Bareiss).

    Denominators are cleared first (scale s), so the elimination runs over
    integers and divides exactly; the pivot of step k is the size-(k+1)
    leading principal minor of s*M.  Stops at the first zero pivot, since no
    later step is defined without pivoting.  Returns the eliminated rows, the
    pivots and s (Bareiss, Math. Comp. 22, 1968).
    """
    rows = [list(row) + ([rhs[i]] if rhs else []) for i, row in enumerate(matrix)]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    width = len(a[0]) if a else 0
    pivots: List[int] = []
    prev = 1
    for k in range(len(a)):
        pivot = a[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        top = a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
            row[k] = 0
        prev = pivot
    return a, pivots, scale


def leading_principal_minors(matrix: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Leading principal minors up to and including the first zero one.

    They are the Bareiss pivots divided by the scale that cleared the
    denominators; a zero minor ends the list, which already decides
    definiteness.
    """
    _, pivots, scale = _bareiss(matrix)
    return [Fraction(p, scale ** (k + 1)) for k, p in enumerate(pivots)]


def is_negative_definite(lattice: IntersectionLattice) -> bool:
    """Leading principal minors alternate in sign, starting negative."""
    minors = leading_principal_minors(lattice.matrix)
    for k, minor in enumerate(minors):
        if (-1) ** (k + 1) * minor <= 0:
            return False
    return True


def solve_exact(matrix: Sequence[Sequence[Fraction]],
                rhs: Sequence[Fraction]) -> List[Fraction]:
    """Exact solve of a rational system whose leading principal minors are nonzero.

    One Bareiss pass on [M | rhs], then back substitution in integers: with
    d the last pivot, det(s*M), Cramer's rule makes d*x integral, so every
    division is exact.  Raises DomainError when a leading minor vanishes.
    """
    m = len(rhs)
    a, pivots, _ = _bareiss(matrix, rhs)
    if 0 in pivots:
        raise DomainError("a leading principal minor vanishes")
    det = pivots[-1] if pivots else 1
    y = [0] * m
    for i in range(m - 1, -1, -1):
        row = a[i]
        acc = det * row[m] - sum(row[j] * y[j] for j in range(i + 1, m))
        y[i] = acc // row[i]
    return [Fraction(v, det) for v in y]


# -- equilibrium divisors ------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumDivisor:
    coefficients: Tuple[Fraction, ...]
    dd: Fraction
    effective: bool


def equilibrium_divisor(lattice: IntersectionLattice) -> EquilibriumDivisor:
    """The unique vertical correction v with (C + V) . W = 0 for all W.

    Solved exactly; against a negative definite pairing with the section
    meeting the support, the solution is effective and the corrected
    self-intersection is cc + c . v.
    """
    if not is_negative_definite(lattice):
        raise NotNegativeDefinite("intersection matrix must be negative definite")
    if lattice.size == 0:
        return EquilibriumDivisor((), lattice.cc, True)
    v = solve_exact(lattice.matrix, [-x for x in lattice.c])
    dd = lattice.cc + sum(ci * vi for ci, vi in zip(lattice.c, v))
    return EquilibriumDivisor(tuple(v), dd, all(x >= 0 for x in v))


@dataclass(frozen=True)
class CNBReport:
    holds: bool
    dd: Fraction
    component_degrees: Tuple[Fraction, ...]


def _pairing(lattice: IntersectionLattice, v: Sequence[Fraction]):
    """M v and v . M v, summed on the integer numerators of v and M."""
    if len(v) != lattice.size:
        raise DomainError("coefficient vector length mismatch")
    vn, dv = _numerators(v)
    mn, dm = _numerators([x for row in lattice.matrix for x in row])
    m = lattice.size
    mv = [sum(map(operator.mul, mn[i * m : (i + 1) * m], vn)) for i in range(m)]
    den = dm * dv
    return [Fraction(x, den) for x in mv], Fraction(sum(map(operator.mul, vn, mv)), den * dv)


def divisor_self_intersection(lattice: IntersectionLattice,
                              v: Sequence[Fraction]) -> Fraction:
    v = [Fraction(x) for x in v]
    _, quad = _pairing(lattice, v)
    lin = sum(ci * vi for ci, vi in zip(lattice.c, v))
    return lattice.cc + 2 * lin + quad


def is_CNB(lattice: IntersectionLattice, v: Sequence[Fraction]) -> CNBReport:
    """Nef-and-big test for C + sum(v_i W_i): componentwise degrees plus bigness.

    For the equilibrium coefficients the component degrees vanish and the
    test reduces to positivity of the self-intersection, returned as witness.
    """
    v = [Fraction(x) for x in v]
    if len(v) != lattice.size:
        raise DomainError("coefficient vector length mismatch")
    if any(x < 0 for x in v):
        raise DomainError("candidate coefficients must be nonnegative")
    mv, quad = _pairing(lattice, v)
    component = tuple(ci + x for ci, x in zip(lattice.c, mv))
    lin = sum(ci * vi for ci, vi in zip(lattice.c, v))
    section_degree = lattice.cc + lin
    dd = lattice.cc + 2 * lin + quad
    holds = all(x >= 0 for x in component) and section_degree >= 0 and dd > 0
    return CNBReport(holds=holds, dd=dd, component_degrees=component)


# -- blow-up chain fixtures ----------------------------------------------------

def blowup_chain_fixture(n: int, cc) -> IntersectionLattice:
    """Chain of a proper transform and n-1 middle exceptional curves.

    The section meets only the proper transform; the equilibrium coefficients
    come out (n, n-1, ..., 1) with corrected self-intersection cc + n.
    """
    if n < 1:
        raise DomainError("chain length must be >= 1")
    labels = ["Xt"] + [f"E{i}" for i in range(1, n)]
    matrix = [[Fraction(0)] * n for _ in range(n)]
    matrix[0][0] = Fraction(-1)
    for i in range(1, n):
        matrix[i][i] = Fraction(-2)
    for i in range(n - 1):
        matrix[i][i + 1] = matrix[i + 1][i] = Fraction(1)
    c = [Fraction(1)] + [Fraction(0)] * (n - 1)
    return IntersectionLattice(tuple(labels), tuple(map(tuple, matrix)), tuple(c), Fraction(cc))


# -- extremality comparison ----------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    coefficient_gap: Tuple[Fraction, ...]   # equilibrium minus candidate
    coefficient_dominates: bool
    section_gap: Fraction                   # C.D - C.Dtilde
    dd_gap: Fraction                        # D.D - Dtilde.Dtilde
    quadratic_identity_holds: bool          # dd_gap == -(gap . M . gap)
    equality: bool


def denough_compare(lattice: IntersectionLattice,
                    v_eq: Sequence[Fraction],
                    v_candidate: Sequence[Fraction]) -> ComparisonReport:
    """Compare the equilibrium divisor with a nef-and-big candidate.

    The candidate must pass the componentwise checks; then the equilibrium
    dominates coefficientwise, meets the section at least as positively, and
    its self-intersection exceeds the candidate's by the exact amount
    -(delta . M . delta).
    """
    v_eq = [Fraction(x) for x in v_eq]
    v_cand = [Fraction(x) for x in v_candidate]
    report = is_CNB(lattice, v_cand)
    if not report.holds:
        raise CandidateNotCNB("candidate fails the nef-and-big checks")
    delta = [a - b for a, b in zip(v_eq, v_cand)]
    dd_eq = divisor_self_intersection(lattice, v_eq)
    dd_cand = report.dd
    _, quad = _pairing(lattice, delta)
    section_eq = lattice.cc + sum(ci * vi for ci, vi in zip(lattice.c, v_eq))
    section_cand = lattice.cc + sum(ci * vi for ci, vi in zip(lattice.c, v_cand))
    return ComparisonReport(
        coefficient_gap=tuple(delta),
        coefficient_dominates=all(x >= 0 for x in delta),
        section_gap=section_eq - section_cand,
        dd_gap=dd_eq - dd_cand,
        quadratic_identity_holds=(dd_eq - dd_cand) == -quad,
        equality=all(x == 0 for x in delta),
    )
