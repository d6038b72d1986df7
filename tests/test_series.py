from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overflow_lab.errors import (
    AllZero,
    DomainError,
    NonzeroConstantTerm,
    NotInvertible,
    ParseError,
)
from overflow_lab.series import (
    TruncatedSeries,
    compose,
    compositional_inverse,
    parse_series_literal,
    valuation_and_leading,
)


def S(*coeffs):
    return TruncatedSeries(list(coeffs))


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(order, c0_zero=True, c1_nonzero=False):
    def build(coeffs):
        cs = list(coeffs)
        if c0_zero:
            cs[0] = F(0)
        if c1_nonzero and cs[1] == 0:
            cs[1] = F(1)
        return TruncatedSeries(cs)

    return st.lists(
        small_fractions, min_size=order + 1, max_size=order + 1
    ).map(build)


class TestCompose:
    def test_identity_left(self):
        g = S(0, 2, 3, F(1, 2))
        assert compose(S(0, 1, 0, 0), g) == g

    def test_monomial_scaling(self):
        # X^2 composed with 2X -> 4X^2
        f = S(0, 0, 1)
        g = S(0, 2, 0)
        assert compose(f, g) == S(0, 0, 4)

    def test_hand_expansion(self):
        # (X - X^2) + (X - X^2)^2 mod X^4 = X - 2X^3
        f = S(0, 1, 1, 0)
        g = S(0, 1, -1, 0)
        assert compose(f, g) == S(0, 1, 0, -2)

    def test_requires_vanishing_constant(self):
        with pytest.raises(NonzeroConstantTerm):
            compose(S(0, 1), S(1, 1))

    def test_truncates_to_common_order(self):
        f = S(0, 1, 1, 1, 1, 1)
        g = S(0, 1, 1)
        assert compose(f, g).order == 2

    @given(
        f=series_strategy(5, c0_zero=False),
        g=series_strategy(5),
        h=series_strategy(5),
    )
    @settings(max_examples=60, deadline=None)
    def test_associative_up_to_truncation(self, f, g, h):
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        assert lhs == rhs


class TestInverse:
    def test_linear(self):
        h = compositional_inverse(S(0, F(5), 0))
        assert h == S(0, F(1, 5), 0)

    def test_quadratic_catalan_signs(self):
        g = S(0, 1, 1, 0, 0)
        assert compositional_inverse(g) == S(0, 1, -1, 2, -5)

    def test_rejects_zero_linear_term(self):
        with pytest.raises(NotInvertible):
            compositional_inverse(S(0, 0, 1))

    @given(g=series_strategy(8, c1_nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_two_sided_inverse_exact(self, g):
        h = compositional_inverse(g)
        assert compose(h, g) == S(0, 1, 0, 0, 0, 0, 0, 0, 0)
        assert compose(g, h) == S(0, 1, 0, 0, 0, 0, 0, 0, 0)

    def test_exact_at_order_32(self):
        g = TruncatedSeries([F(0), F(2, 3)] + [F(1, k + 3) for k in range(31)])
        h = compositional_inverse(g)
        assert compose(h, g) == S(0, 1, *[0] * 31)


class TestValuation:
    def test_basic(self):
        assert valuation_and_leading(S(0, 2, 3)) == (1, 2)

    def test_drop_constant(self):
        assert valuation_and_leading(S(5, 0, 0, 1), drop_constant=True) == (3, 1)

    def test_constant_term_rejected_without_flag(self):
        with pytest.raises(DomainError):
            valuation_and_leading(S(5, 0, 1))

    def test_all_zero(self):
        with pytest.raises(AllZero):
            valuation_and_leading(S(0, 0, 0))

    @given(
        s=series_strategy(6),
        u=st.sampled_from([F(-1), F(1), F(3), F(-7, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_invariance_of_valuation(self, s, u):
        try:
            e, _ = valuation_and_leading(s)
        except AllZero:
            with pytest.raises(AllZero):
                valuation_and_leading(u * s)
            return
        e2, a2 = valuation_and_leading(u * s)
        assert e2 == e
        assert a2 == u * s[e]


class TestBackendAndLiterals:
    def test_rational_arithmetic_exact(self):
        a = S(F(1, 3), F(2, 7))
        b = S(F(2, 3), F(5, 7))
        assert (a + b) == S(1, 1)
        assert (a * b).coeffs[0] == F(2, 9)

    def test_literal_rational(self):
        s = parse_series_literal(["0", "1", "3/7"])
        assert s.coeffs[2] == F(3, 7)

    def test_float_coefficient_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([0.5])

    @pytest.mark.parametrize("items, pos", [
        (["0", "0.5"], 1), (["1e3"], 0), (["0", "1", " 2E-1"], 2), (["0", 0.25], 1),
    ])
    def test_literal_float_is_parse_error(self, items, pos):
        with pytest.raises(ParseError) as err:
            parse_series_literal(items)
        assert err.value.position == pos

    @pytest.mark.parametrize("items, pos", [([0, True], 1), ([False], 0), (["1", 2, True], 2)])
    def test_literal_boolean_is_parse_error(self, items, pos):
        with pytest.raises(ParseError) as err:
            parse_series_literal(items)
        assert err.value.position == pos

    def test_literal_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_series_literal(["0", "x?y"])
        assert err.value.position == 1

    def test_equality_up_to_common_order(self):
        assert S(0, 1, 5) == S(0, 1)
        assert S(0, 1, 5) != S(0, 2)

    def test_immutability(self):
        s = S(0, 1)
        with pytest.raises(AttributeError):
            s.coeffs = (F(1),)


# -- the integer layer against plain Fraction arithmetic ----------------------

def _ref_mul(a, b):
    """Coefficients of a b mod X^(n+1), n the common order, one Fraction at a time."""
    n = min(len(a), len(b)) - 1
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _ref_compose(f, g):
    n = min(len(f), len(g)) - 1
    acc = [f[n]] + [F(0)] * n
    for k in range(n - 1, -1, -1):
        acc = _ref_mul(acc, g[: n + 1])
        acc[0] += f[k]
    return acc


def _ref_inverse(g):
    n = len(g) - 1
    pows = [[F(1)] + [F(0)] * n]
    for _ in range(n):
        pows.append(_ref_mul(pows[-1], g))
    h = [F(0)] * (n + 1)
    for k in range(1, n + 1):
        acc = F(1 if k == 1 else 0)
        for j in range(1, k):
            acc -= h[j] * pows[j][k]
        h[k] = acc / pows[k][k]
    return h


# zero coefficients often, denominators that share factors and that do not
mixed_fractions = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=36),
    st.builds(F, st.integers(-10**12, 10**12), st.sampled_from([1, 7, 9, 10**6, 2**40])),
)


def coeff_lists(min_size=1, max_size=12):
    """Coefficient lists, often with a run of leading zeros (a valuation)."""
    return st.builds(
        lambda zeros, tail: ([F(0)] * zeros + tail)[: max(max_size, min_size)],
        st.integers(0, 8), st.lists(mixed_fractions, min_size=min_size, max_size=max_size),
    )


class TestAgainstFractionReference:
    @given(a=coeff_lists(), b=coeff_lists())
    @settings(max_examples=100, deadline=None)
    def test_product(self, a, b):
        got = TruncatedSeries(a) * TruncatedSeries(b)
        assert list(got.coeffs) == _ref_mul(a, b)
        assert all(type(c) is F for c in got.coeffs)

    @given(f=coeff_lists(), g=coeff_lists())
    @settings(max_examples=100, deadline=None)
    def test_compose(self, f, g):
        g = [F(0)] + g[1:]
        got = compose(TruncatedSeries(f), TruncatedSeries(g))
        assert list(got.coeffs) == _ref_compose(f, g)
        assert all(type(c) is F for c in got.coeffs)

    @given(g=coeff_lists(min_size=2), lead=mixed_fractions.filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_compositional_inverse(self, g, lead):
        g = [F(0), lead] + g[2:]
        got = compositional_inverse(TruncatedSeries(g))
        assert list(got.coeffs) == _ref_inverse(g)
        assert all(type(c) is F for c in got.coeffs)

    @pytest.mark.parametrize("valuation", range(10))
    def test_product_at_every_valuation(self, valuation):
        a = [F(k - 4, k % 3 + 1) for k in range(10)]
        b = [F(0)] * valuation + [F(3, 7), F(0), F(-5, 2)] + [F(1)] * 7
        for x, y in ((a, b), (b, a), (b, b)):
            got = TruncatedSeries(x) * TruncatedSeries(y)
            assert list(got.coeffs) == _ref_mul(x, y)

    def test_inverse_with_a_large_prime_lead_at_order_24(self):
        # Lagrange inversion puts lead^(2k-1) in the denominator of h_k
        g = [F(0), F(-101, 6)] + [F((-1) ** k * k, k + 2) for k in range(2, 25)]
        assert list(compositional_inverse(TruncatedSeries(g)).coeffs) == _ref_inverse(g)
