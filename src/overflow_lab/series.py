"""Truncated formal power series over the rationals.

A series is a finite vector of Fraction coefficients c_0..c_N, understood
modulo X^{N+1}.  Arithmetic is exact, so every zero test is an equality.
Values are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AllZero, DomainError, NonzeroConstantTerm, NotInvertible, ParseError


def _normalize(coeffs: Iterable) -> tuple:
    out = []
    for c in coeffs:
        if isinstance(c, int):
            c = Fraction(c)
        elif not isinstance(c, Fraction):
            raise DomainError(f"unsupported coefficient type {type(c).__name__}")
        out.append(c)
    return tuple(out)


class TruncatedSeries:
    """Formal power series truncated at a fixed order.

    Coefficients are Fractions; ints are converted and any other type is a
    DomainError.  Equality is coefficientwise up to the common order,
    matching how the truncated ring is used: two series that agree as far as
    both are known count as equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = _normalize(coeffs)
        if not coeffs:
            raise DomainError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        raise IndexError(k)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise DomainError("order must be nonnegative")
        coeffs = list(self.coeffs[: order + 1])
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return TruncatedSeries(coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(n + 1))

    __hash__ = None  # mutable-style equality

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(self.coeffs[: n + 1]):
            if ci == 0:
                continue
            for j in range(0, n + 1 - i):
                out[i + j] += ci * other.coeffs[j]
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial at a number z.

        Exact for a rational z; for a float or complex z each coefficient is
        converted to z's type as it enters, so the arithmetic is z's.
        """
        coeffs = self.coeffs
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * z + c
        return acc


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of f(g(X)) modulo X^{N+1}, N the common order.

    Requires g(0) = 0, otherwise the truncated composition is not defined.
    """
    if g.coeffs[0] != 0:
        raise NonzeroConstantTerm(f"inner series has constant term {g.coeffs[0]}")
    n = min(f.order, g.order)
    a, b = f.truncate(n), g.truncate(n)
    # Horner in g: result = (..(f_N * g + f_{N-1}) * g + ...) + f_0
    acc = TruncatedSeries([a.coeffs[n]]).truncate(n)
    for k in range(n - 1, -1, -1):
        acc = acc * b
        acc = TruncatedSeries(
            [acc.coeffs[0] + a.coeffs[k]] + list(acc.coeffs[1:])
        )
    return acc


def compositional_inverse(g: TruncatedSeries) -> TruncatedSeries:
    """The series h with h(g(X)) = X mod X^{N+1}.

    Solved term by term: the coefficient of X^k in h(g) is triangular in the
    unknowns with diagonal entry g_1^k, so the solve stays exact.
    """
    if g.coeffs[0] != 0:
        raise NonzeroConstantTerm(f"series has constant term {g.coeffs[0]}")
    if g.order < 1 or g.coeffs[1] == 0:
        raise NotInvertible("linear coefficient vanishes")
    n = g.order
    # g_pows[j] = g^j truncated at order n
    g_pows = [TruncatedSeries([1]).truncate(n)]
    for _ in range(n):
        g_pows.append(g_pows[-1] * g)
    h = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        acc = Fraction(1 if k == 1 else 0)
        for j in range(1, k):
            acc -= h[j] * g_pows[j].coeffs[k]
        h[k] = acc / g_pows[k].coeffs[k]
    return TruncatedSeries(h)


def valuation_and_leading(s: TruncatedSeries, drop_constant: bool = False):
    """Smallest index e >= 1 with nonzero coefficient, and that coefficient.

    Without ``drop_constant`` the constant term must vanish; with it, a_0 is
    ignored.  Raises AllZero when the series is constant to its order.
    """
    if not drop_constant and s.coeffs[0] != 0:
        raise DomainError(
            "series has a constant term; pass drop_constant to ignore it"
        )
    for e in range(1, s.order + 1):
        if s.coeffs[e] != 0:
            return e, s.coeffs[e]
    raise AllZero(f"no nonzero coefficient up to order {s.order}")


def parse_series_literal(items: Sequence) -> TruncatedSeries:
    """Series from a list of literals; order inferred from the length.

    Items are ints or exact rational strings ("3/7", "-2").  A float literal,
    a JSON number with a fraction or exponent or a string containing '.',
    'e' or 'E', is a ParseError at its position: coefficients are exact.  So
    is a boolean, although Python counts it as an int.
    """
    coeffs = []
    for pos, item in enumerate(items):
        if isinstance(item, (int, Fraction)) and not isinstance(item, bool):
            coeffs.append(Fraction(item))
            continue
        if not isinstance(item, str):
            raise ParseError(f"literal {item!r} is not an exact rational", pos)
        text = item.strip()
        if any(ch in text for ch in ".eE"):
            raise ParseError(f"literal {text!r} is not an exact rational", pos)
        try:
            coeffs.append(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient literal {text!r}: {exc}", pos) from None
    if not coeffs:
        raise ParseError("empty series literal", 0)
    return TruncatedSeries(coeffs)
