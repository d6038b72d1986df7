from fractions import Fraction as F

import pytest

from overflow_lab.errors import ConstantMap, ParseError, PoleAtOrigin
from overflow_lab.maps import MAX_DEGREE, DiskMap, parse_map


class TestParser:
    def test_polynomial(self):
        m = parse_map("z^3+z")
        assert m.num == (F(0), F(1), F(0), F(1))
        assert m.is_polynomial

    def test_rational(self):
        m = parse_map("(z-2)/(z+2)")
        assert m.num == (F(-2), F(1))
        assert m.den == (F(2), F(1))

    def test_coefficients(self):
        m = parse_map("2*z^4+3*z")
        assert m.num == (F(0), F(3), F(0), F(0), F(2))

    def test_float_literal(self):
        m = parse_map("z^2 - z/10")
        assert m.num == (F(0), F(-1, 10), F(1))

    def test_unary_minus(self):
        m = parse_map("-z^2+1")
        assert m.num == (F(1), F(0), F(-1))

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_map("z^3 + $")
        assert err.value.position == 6

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_map("z+1 )")

    def test_pole_at_origin_rejected(self):
        with pytest.raises(PoleAtOrigin):
            parse_map("1/z")

    @pytest.mark.parametrize("text", [
        "z^100000", "(z+1)^2000", "2^100000", "z^33*z^32", "(z^2)^33", "1/(z^40*z^25+1)",
    ])
    def test_degree_cap(self, text):
        with pytest.raises(ParseError, match="cap"):
            parse_map(text)

    @pytest.mark.parametrize("text", [
        "1e400*z", "1e308*z*10", "9" * 400 + "*z", "9" * 400 + "*z+1.5",
        "(2e221*z^4+5e-175*z)/(9.83e-301*z)",
        # nonzero coefficients below the smallest normal float: exact, and subnormal
        "z/1{0}+z^2/1{1}".format("0" * 200, "0" * 400), "5e-324*z+z^2",
    ])
    def test_coefficient_outside_float_range(self, text):
        with pytest.raises(ParseError, match="float64 range"):
            parse_map(text)

    @pytest.mark.parametrize("text,degree", [("z^64", 64), ("(z^8)^8", 64), ("z^40+z^40", 40)])
    def test_degree_cap_is_inclusive(self, text, degree):
        assert parse_map(text).degree == degree <= MAX_DEGREE


class TestCommonFactor:
    def test_ratio_reduces_to_polynomial(self):
        m = parse_map("(z^2-1)/(z-1)")
        assert m.is_polynomial
        assert m.num == (F(1), F(1))

    def test_pole_cancelled_by_the_numerator(self):
        m = parse_map("(z^2+2*z)/z")
        assert m.is_polynomial
        assert m.num == (F(2), F(1))

    def test_remaining_ratio_is_coprime(self):
        # z (z^2 - 1) / (z (2 z + 1) / 2): the common factor z goes
        m = parse_map("(z^3-z)/(z^2+z/2)")
        assert (m.num, m.den) == ((-2, 0, 2), (1, 2))

    def test_float_coefficients_reduce_exactly(self):
        m = DiskMap((-0.5, 0.5), (-1.0, 1.0))
        assert m.is_polynomial and m.num == (F(1, 2),)

    def test_complex_common_factor_cancelled(self):
        m = DiskMap((1j, 1), (1j, 1))
        assert m.is_polynomial and m.num == (1,)

    def test_complex_ratio_reduces_over_gaussian_rationals(self):
        # (z + i)(2z + 1) / ((z + i)(z - 3))
        m = DiskMap((1j, 1 + 2j, 2), (-3j, -3 + 1j, 1))
        assert (m.num, m.den) == ((1, 2), (-3, 1))
        assert all(isinstance(c, F) for c in m.num + m.den)

    def test_complex_quotient_keeps_complex_coefficients(self):
        # (z + 1)(z - i/2) / ((z + 1)(z + 2)): the common factor is real
        m = DiskMap((-0.5j, 1 - 0.5j, 1), (2, 3, 1))
        assert (m.num, m.den) == ((-0.5j, 1), (2, 1))

    def test_coprime_complex_pair_kept(self):
        m = DiskMap((1.5j, 1), (2, 1j))
        assert m.num == (1.5j, 1) and m.den == (2, 1j)


class TestDiskMapStructure:
    def test_ramification_simple(self):
        assert parse_map("z^3+z").ramification_index() == 1

    def test_ramification_higher(self):
        m = parse_map("z^2+5")
        assert m.ramification_index() == 2
        assert m.jet() == 1

    def test_jet_scaling(self):
        m = parse_map("7*z^3")
        assert m.ramification_index() == 3
        assert m.jet() == 7

    def test_rational_jet(self):
        m = parse_map("(z-2)/(z+2)")
        # alpha(0) = -1, alpha'(0) = ((z+2) - (z-2))/(z+2)^2 at 0 = 1
        assert m.value_at_zero() == -1
        assert m.ramification_index() == 1
        assert m.jet() == 1

    def test_constant_detected(self):
        with pytest.raises(ConstantMap):
            parse_map("3").ramification_index()
        assert parse_map("(2*z+2)/(z+1)").is_constant()

    def test_scaled(self):
        m = parse_map("z^3+z").scaled(F(2))
        assert m.num == (F(0), F(2), F(0), F(8))

    def test_real_structure_flag(self):
        assert parse_map("z^2-z/10").real_coefficients
        assert DiskMap((0, 1j)).real_coefficients is False
