"""Truncated formal power series over the rationals.

A series holds its coefficients c_0..c_N, understood modulo X^{N+1}, as a
tuple of Fractions.  Products, composition and inversion run on integer
numerators over one common denominator and build Fractions only for their
result, so the O(N^2) multiply-adds of a product need no gcd each.
Arithmetic is exact, so every zero test is an equality.  Values are
immutable and safe to share between threads.
"""

from __future__ import annotations

import math
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


def _numerators(coeffs: Sequence[Fraction]):
    """Integer numerators of the coefficients over their least common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _product(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of two integer coefficient lists.

    Both lists reach X^n.  A zero coefficient of a, and every coefficient of
    b below its valuation, is a known zero term and is never multiplied.
    """
    v = next((j for j in range(n + 1) if b[j]), n + 1)
    b = b[v : n + 1]
    out = [0] * (n + 1)
    for i in range(n + 1 - v):
        if a[i]:
            ai, lo = a[i], i + v
            out[lo:] = [o + ai * bj for o, bj in zip(out[lo:], b)]
    return out


def _from_numerators(nums: list, den: int) -> "TruncatedSeries":
    return TruncatedSeries([Fraction(x, den) for x in nums])


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
        a, da = _numerators(self.coeffs[: n + 1])
        b, db = _numerators(other.coeffs[: n + 1])
        return _from_numerators(_product(a, b, n), da * db)

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
    a, da = _numerators(f.coeffs[: n + 1])
    b, db = _numerators(g.coeffs[: n + 1])
    # Horner in g: result = (..(f_N * g + f_{N-1}) * g + ...) + f_0, on
    # numerators: once f_k is added, acc / (da * scale) is the partial result
    acc = [a[n]] + [0] * n
    scale = 1
    for k in range(n - 1, -1, -1):
        acc = _product(acc, b, n)
        scale *= db
        acc[0] += a[k] * scale
    return _from_numerators(acc, da * scale)


def compositional_inverse(g: TruncatedSeries) -> TruncatedSeries:
    """The series h with h(g(X)) = X mod X^{N+1}.

    Solved term by term: the coefficient of X^k in h(g) is triangular in the
    unknowns with diagonal entry g_1^k, so the solve stays exact.  It runs on
    G = d g, d the common denominator of g, whose inverse y has
    h_k = d^k y_k.  By Lagrange inversion G_1^(2k-1) y_k is an integer Y_k,
    so the solve divides integers exactly and builds Fractions only for h.
    """
    if g.coeffs[0] != 0:
        raise NonzeroConstantTerm(f"series has constant term {g.coeffs[0]}")
    if g.order < 1 or g.coeffs[1] == 0:
        raise NotInvertible("linear coefficient vanishes")
    n = g.order
    b, d = _numerators(g.coeffs)
    # g_pows[j] = G^j truncated at order n; its diagonal entry G_1^j is known
    g_pows = [None, b]
    for _ in range(2, n):
        g_pows.append(_product(g_pows[-1], b, n))
    g1_pows = [1]
    for _ in range(2 * n - 1):
        g1_pows.append(g1_pows[-1] * b[1])
    # sum_j y_j [X^k] G^j = [k == 1], times G_1^(2k-2), in the Y_j
    y = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        acc = sum(y[j] * g_pows[j][k] * g1_pows[2 * (k - j) - 1] for j in range(1, k))
        y[k] = -acc // g1_pows[k - 1]
    h = [Fraction(0)]
    d_pow = 1
    for k in range(1, n + 1):
        d_pow *= d
        h.append(Fraction(d_pow * y[k], g1_pows[2 * k - 1]))
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
