"""Analytic self-maps of disks given as polynomials or ratios of polynomials.

Coefficients are kept exact (Fraction) when possible so that ramification
data and jets stay exact; numeric work converts to complex arrays on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import ConstantMap, DomainError, ParseError, PoleAtOrigin
from .series import DEFAULT_ZERO_TOL

Number = (int, float, complex, Fraction)


def _trim(coeffs: Sequence) -> tuple:
    """Drop trailing zero coefficients (exact test for exact types)."""
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _poly_add(a, b, sign=1):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        ca = a[k] if k < len(a) else 0
        cb = b[k] if k < len(b) else 0
        out.append(ca + sign * cb)
    return _trim(out)


class _Gaussian:
    """Exact Gaussian rational re + i im (Fraction parts), the field over
    which common factors are cancelled, complex coefficients included."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        self.re, self.im = re, im

    @classmethod
    def exact(cls, c) -> "_Gaussian":
        """The exact value of an int, Fraction, float or complex (each float
        part converts exactly); a non-finite part raises."""
        if isinstance(c, complex):
            return cls(Fraction(c.real), Fraction(c.imag))
        return cls(Fraction(c))

    def number(self):
        """A Fraction when real, else the nearest complex float."""
        return self.re if self.im == 0 else complex(float(self.re), float(self.im))

    def __sub__(self, other: "_Gaussian") -> "_Gaussian":
        return _Gaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "_Gaussian") -> "_Gaussian":
        return _Gaussian(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "_Gaussian") -> "_Gaussian":
        norm = other.re * other.re + other.im * other.im
        return _Gaussian((self.re * other.re + self.im * other.im) / norm,
                         (self.im * other.re - self.re * other.im) / norm)

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, _Gaussian) else _Gaussian.exact(other)
        return self.re == other.re and self.im == other.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)


def _poly_divmod(a, b):
    """Exact quotient and remainder of polynomials over the Gaussian
    rationals (increasing degree)."""
    rem, quot = list(a), [_Gaussian(Fraction(0))] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        quot[k] = rem[k + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            rem[k + j] -= quot[k] * bj
    return _trim(quot), _trim(rem[: max(1, len(b) - 1)])


def _monic(p):
    """p scaled to leading coefficient 1 (the zero polynomial as given), which
    keeps Euclid's remainders from swelling."""
    return tuple(c / p[-1] for c in p) if p[-1] else p


def _cancel_common_factor(num, den):
    """(num, den) divided by their monic gcd, found by Euclid over the
    Gaussian rationals.  Real coefficients come back as exact Fractions even
    when the gcd is 1, so the structural arithmetic on them (is_constant,
    jet) never mixes an exact product beyond the float range with a float.
    Pairs with non-finite coefficients are returned as given."""
    try:
        a, b = tuple(map(_Gaussian.exact, num)), tuple(map(_Gaussian.exact, den))
    except (TypeError, ValueError, OverflowError):
        return num, den
    gcd, rem = a, _monic(b)
    while any(rem):
        gcd, rem = rem, _monic(_poly_divmod(gcd, rem)[1])
    return tuple(tuple(c.number() for c in _poly_divmod(p, gcd)[0]) for p in (a, b))


def _is_real(c) -> bool:
    if isinstance(c, complex):
        return c.imag == 0.0
    return True


@dataclass(frozen=True)
class DiskMap:
    """A map z -> num(z)/den(z), analytic on the closed disk of interest.

    ``num`` and ``den`` are coprime coefficient tuples in increasing degree (an
    exact common factor of the inputs is divided out).  The denominator must
    not vanish at 0; a constant denominator of 1 encodes a polynomial map.
    """

    num: tuple
    den: tuple = (1,)

    def __post_init__(self):
        num, den = _trim(self.num), _trim(self.den)
        if all(c == 0 for c in den):
            raise DomainError("zero denominator")
        if len(den) > 1:
            num, den = _cancel_common_factor(num, den)
        if len(den) == 1 and den[0] != 1:
            num = tuple(c / den[0] for c in num)
            den = (1,)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if self.den[0] == 0:
            raise PoleAtOrigin("denominator vanishes at 0")

    # -- structure --------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    @property
    def real_coefficients(self) -> bool:
        return all(_is_real(c) for c in self.num + self.den)

    def is_constant(self, zero_tol: float = DEFAULT_ZERO_TOL) -> bool:
        # num/den constant iff num*den' - num'*den = 0
        w = _poly_add(
            _poly_mul(_poly_deriv(self.num), self.den),
            _poly_mul(self.num, _poly_deriv(self.den)),
            sign=-1,
        )
        return all(_near_zero(c, zero_tol) for c in w)

    def value_at_zero(self):
        return self.num[0] / self.den[0]

    # -- ramification data at 0 -------------------------------------------

    def ramification_index(self, zero_tol: float = DEFAULT_ZERO_TOL) -> int:
        """Order of vanishing of (alpha - alpha(0)) at 0."""
        e, _ = self._jet_data(zero_tol)
        return e

    def jet(self, zero_tol: float = DEFAULT_ZERO_TOL):
        """The leading Taylor coefficient alpha^{(e)}(0)/e! as a number."""
        _, a = self._jet_data(zero_tol)
        return a

    def _jet_data(self, zero_tol: float) -> Tuple[int, complex]:
        if self.is_constant(zero_tol):
            raise ConstantMap("map is constant")
        # numerator of alpha - alpha(0): p - (p0/q0) q, scaled by q0 to stay exact
        p, q = self.num, self.den
        scaled = _poly_add(
            tuple(c * q[0] for c in p), tuple(c * p[0] for c in q), sign=-1
        )
        for e in range(1, len(scaled)):
            if not _near_zero(scaled[e], zero_tol):
                # [z^e](n/q) with n = scaled/q0:
                a = scaled[e] / q[0] ** 2
                return e, a
        raise ConstantMap("map is constant to machine precision")

    # -- evaluation --------------------------------------------------------

    def num_den_at(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(num(z), den(z)) as complex arrays; pole-safe homogeneous data."""
        z = np.asarray(z, dtype=complex)
        p = np.polyval([complex(c) for c in reversed(self.num)], z)
        q = np.polyval([complex(c) for c in reversed(self.den)], z)
        return p, q

    def __call__(self, z):
        p, q = self.num_den_at(np.asarray(z, dtype=complex))
        return p / q

    def derivative_num_den_at(self, z: np.ndarray):
        """(p'q - pq', q^2)(z): homogeneous data of the derivative."""
        z = np.asarray(z, dtype=complex)
        w = _poly_add(
            _poly_mul(_poly_deriv(self.num), self.den),
            _poly_mul(self.num, _poly_deriv(self.den)),
            sign=-1,
        )
        wn = np.polyval([complex(c) for c in reversed(w)], z)
        q = np.polyval([complex(c) for c in reversed(self.den)], z)
        return wn, q * q

    def scaled(self, factor) -> "DiskMap":
        """The map z -> alpha(factor * z)."""
        fac = factor if isinstance(factor, (int, Fraction)) else float(factor)
        num = tuple(c * fac**k for k, c in enumerate(self.num))
        den = tuple(c * fac**k for k, c in enumerate(self.den))
        return DiskMap(num, den)


def _poly_deriv(p):
    if len(p) == 1:
        return (0,)
    return tuple(k * c for k, c in enumerate(p) if k >= 1)


def _near_zero(c, tol: float) -> bool:
    if isinstance(c, (Fraction, int)):
        return c == 0
    return abs(c) <= tol


# -- tiny expression parser ----------------------------------------------
#
# Grammar:  expr   := term (('+'|'-') term)*
#           term   := factor (('*'|'/') factor)*
#           factor := ('-'|'+') factor | atom ('^' uint)*
#           atom   := number | 'z' | '(' expr ')'
# Values are (num, den) polynomial pairs; integer literals stay exact.

#: Highest degree the parser expands: a product or power that would pass it
#: (or an exponent above it) is a ParseError before any coefficient is formed.
MAX_DEGREE = 64


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self):
        value = self.expr()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() and self.peek() in "+-":
            op = self.take()
            rhs = self.term()
            value = _rf_add(value, rhs, 1 if op == "+" else -1, self)
        return value

    def term(self):
        value = self.factor()
        while self.peek() and self.peek() in "*/":
            op = self.take()
            rhs = self.factor()
            value = _rf_mul(value, rhs, self) if op == "*" else _rf_div(value, rhs, self)
        return value

    def factor(self):
        ch = self.peek()
        if ch and ch in "+-":
            self.take()
            value = self.factor()
            return value if ch == "+" else _rf_neg(value)
        value = self.atom()
        while self.peek() == "^":
            self.take()
            value = _rf_pow(value, self.uint(), self)
        return value

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.take()
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return value
        if ch == "z":
            self.take()
            return ((0, 1), (1,))
        if ch.isdigit() or ch == ".":
            return (self.number(), (1,))
        self.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")

    def number(self):
        start = self.pos
        seen_dot = seen_exp = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot and not seen_exp:
                seen_dot = True
                self.pos += 1
            elif ch in "eE" and not seen_exp and self.pos > start:
                nxt = self.text[self.pos + 1 : self.pos + 2]
                if nxt.isdigit() or nxt in "+-":
                    seen_exp = True
                    self.pos += 2 if nxt in "+-" else 1
                else:
                    break
            else:
                break
        text = self.text[start : self.pos]
        try:
            return (float(text),) if (seen_dot or seen_exp) else (Fraction(text),)
        except ValueError:
            self.pos = start
            self.error(f"bad number {text!r}")

    def uint(self):
        start = self.pos
        if not self.peek().isdigit():
            self.error("expected a nonnegative integer exponent")
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])


def _product(a, b, parser):
    degree = len(a) + len(b) - 2
    if degree > MAX_DEGREE:
        parser.error(f"product of degree {degree} exceeds the cap {MAX_DEGREE}")
    return _poly_mul(a, b)


def _rf_add(a, b, sign, parser):
    (an, ad), (bn, bd) = a, b
    num = _poly_add(_product(an, bd, parser), _product(bn, ad, parser), sign)
    return (num, _product(ad, bd, parser))


def _rf_mul(a, b, parser):
    return (_product(a[0], b[0], parser), _product(a[1], b[1], parser))


def _rf_neg(a):
    return (tuple(-c for c in a[0]), a[1])


def _rf_div(a, b, parser):
    if all(c == 0 for c in b[0]):
        parser.error("division by zero")
    return (_product(a[0], b[1], parser), _product(a[1], b[0], parser))


def _rf_pow(a, k, parser):
    if k > MAX_DEGREE:
        parser.error(f"exponent {k} exceeds the degree cap {MAX_DEGREE}")
    value = ((1,), (1,))
    for _ in range(k):
        value = _rf_mul(value, a, parser)
    return value


def parse_map(text: str) -> DiskMap:
    """DiskMap from an expression in z, e.g. "z^3+z" or "(z-2)/(z+2)".

    Every coefficient of the reduced map must be a finite float64 value:
    numeric work evaluates them as floats, and an exact integer beyond that
    range cannot even be combined with a float literal.
    """
    parser = _Parser(text)
    try:
        alpha = DiskMap(*parser.parse())
        finite = all(math.isfinite(float(c)) for c in alpha.num + alpha.den)
    except OverflowError:
        finite = False
    if not finite:
        parser.error("coefficient outside the float64 range")
    return alpha
