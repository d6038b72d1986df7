import math
from fractions import Fraction as F

import numpy as np
import pytest

from overflow_lab.arithmetic import (
    D_invariant,
    SurfaceDescriptor,
    arithmetic_excess,
    build_morphism,
    dim_bound_C,
    dim_bound_CNB,
    grelem_construct,
    holonomy_degree_bound,
    projective_height,
    self_intersection_A1,
    self_intersection_direct_oracle,
    self_intersection_P1,
)
from overflow_lab import overflow, quadrature
from overflow_lab.errors import DomainError, NotIntegral, NotPseudoconcave
from overflow_lab.maps import DiskMap, parse_map
from overflow_lab.overflow import overflow_definitional_oracle
from overflow_lab.quadrature import QuadratureSettings
from overflow_lab.series import TruncatedSeries, compose

FAST = QuadratureSettings(base_grid=64, tol=1e-6, max_depth=9)


def psi_over(r, order=12):
    return TruncatedSeries([F(0), F(1, r)] + [F(0)] * (order - 1))


def surface(r):
    return SurfaceDescriptor(1.0, psi_over(r))


class TestSurfaceDescriptor:
    def test_normal_degree(self):
        assert surface(3).normal_degree == pytest.approx(math.log(3))

    def test_pseudoconcavity(self):
        assert surface(3).pseudoconcave
        convex = SurfaceDescriptor(1.0, TruncatedSeries([F(0), F(2)]))
        assert not convex.pseudoconcave

    def test_radius_scales_degree(self):
        desc = SurfaceDescriptor(math.e, TruncatedSeries([F(0), F(1)]))
        assert desc.normal_degree == pytest.approx(1.0)


class TestBuildMorphism:
    def test_exact_cancellation(self):
        m = build_morphism(surface(3), parse_map("3*z"), 8)
        assert m.alpha_hat == TruncatedSeries([F(0), F(1)])
        assert m.ramification == 1

    def test_not_integral(self):
        with pytest.raises(NotIntegral) as err:
            build_morphism(surface(2), parse_map("z"), 8)
        assert err.value.index == 1

    def test_quadratic(self):
        m = build_morphism(surface(2), parse_map("4*z^2"), 8)
        assert m.alpha_hat == TruncatedSeries([F(0), F(0), F(1)])
        assert m.ramification == 2

    def test_nontrivial_psi(self):
        # 4 (X/2 + X^2/2)^2 = X^2 + 2 X^3 + X^4: integral despite fractional psi
        psi = TruncatedSeries([F(0), F(1, 2), F(1, 2)] + [F(0)] * 9)
        m = build_morphism(SurfaceDescriptor(1.0, psi), parse_map("4*z^2"), 10)
        assert m.ramification == 2
        assert m.alpha_hat == TruncatedSeries([F(0), F(0), F(1), F(2), F(1)])


class TestArithmeticExcess:
    def test_unit(self):
        assert arithmetic_excess(TruncatedSeries([F(0), F(1)])) == 0.0

    def test_two(self):
        s = TruncatedSeries([F(0), F(2), F(3)])
        assert arithmetic_excess(s) == pytest.approx(math.log(2))

    def test_constant_dropped(self):
        s = TruncatedSeries([F(5), F(0), F(0), F(1)])
        assert arithmetic_excess(s) == 0.0

    def test_unit_sign_invariance(self):
        s = TruncatedSeries([F(0), F(-7), F(2)])
        t = TruncatedSeries([F(0), F(7), F(-2)])
        assert arithmetic_excess(s) == arithmetic_excess(t)


class TestSelfIntersectionA1:
    @pytest.mark.parametrize("r,k", [(2, 1), (3, 1), (2, 3), (5, 2)])
    def test_power_family_closed_form(self, r, k):
        alpha = DiskMap((0,) * k + (F(r) ** k,))
        m = build_morphism(surface(r), alpha, 10)
        got = self_intersection_A1(m, FAST)
        assert got.normal_part == pytest.approx(k * math.log(r))
        assert got.finite_excess == 0.0
        assert got.archimedean_excess == pytest.approx(0.0, abs=1e-9)
        assert got.value == pytest.approx(k * math.log(r), abs=1e-9)
        assert got.doubled_corollary_value == pytest.approx(
            2 * got.value, abs=1e-6
        )

    def test_mixed_parts(self):
        m = build_morphism(surface(3), parse_map("6*z+9*z^2"), 10)
        got = self_intersection_A1(m, FAST)
        assert got.normal_part == pytest.approx(math.log(3))
        assert got.finite_excess == pytest.approx(math.log(2))
        assert got.archimedean_excess >= -1e-9
        assert got.value == pytest.approx(
            math.log(3) + math.log(2) + got.archimedean_excess
        )


class TestDirectOracle:
    def test_linear(self):
        m = build_morphism(surface(2), parse_map("2*z"), 8)
        got = self_intersection_direct_oracle(m, FAST)
        assert got == pytest.approx(math.log(2), abs=1e-6)

    @pytest.mark.parametrize("r,k", [(2, 2), (3, 3)])
    def test_powers(self, r, k):
        alpha = DiskMap((0,) * k + (F(r) ** k,))
        m = build_morphism(surface(r), alpha, 10)
        got = self_intersection_direct_oracle(m, FAST)
        assert got == pytest.approx(k * math.log(r), abs=1e-6)

    def test_cross_method_corpus(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 12:
            r = int(rng.choice([2, 3, 5]))
            degree = int(rng.integers(1, 5))
            coeffs = [F(0)] + [
                F(int(rng.integers(-3, 4))) * F(r) ** k
                for k in range(1, degree + 1)
            ]
            if all(c == 0 for c in coeffs[1:]):
                continue
            alpha = DiskMap(tuple(coeffs))
            m = build_morphism(surface(r), alpha, 12)
            count += 1
            decomposition = self_intersection_A1(m, FAST).value
            direct = self_intersection_direct_oracle(m, FAST)
            assert direct == pytest.approx(decomposition, abs=1e-3)

    def test_fibers_beyond_float_range_rejected(self):
        # fiber roots near -1e300 would overflow the root solver's residual scale
        big = 10 ** 100
        psi = TruncatedSeries([F(0), F(big)] + [F(0)] * 7)
        m = build_morphism(SurfaceDescriptor(1.0, psi), DiskMap((0, big, F(1, big ** 2))), 8)
        with pytest.raises(DomainError, match="fiber roots"):
            self_intersection_direct_oracle(m, FAST)


def kappa_reference(alpha, r, angles=8, s=1e-2):
    """The constant kappa of the direct image of log+(r/|zeta|) at alpha(0),
    as the shrinking-radius limit of its angular mean plus log s (np.roots
    fibers at s and s/2, combined by Richardson)."""
    coeffs = np.array([complex(c) for c in reversed(alpha.num)])
    q0 = complex(alpha.value_at_zero())

    def at(radius):
        total = 0.0
        for w in q0 + radius * np.exp(2j * np.pi * np.arange(angles) / angles):
            roots = np.roots(np.concatenate([coeffs[:-1], [coeffs[-1] - w]]))
            total += np.sum(np.maximum(math.log(r) - np.log(np.abs(roots)), 0.0))
        return total / angles + math.log(radius)

    weight = 2.0 ** angles
    return (weight * at(s / 2) - at(s)) / (weight - 1.0)


class TestKappaJensen:
    @pytest.mark.parametrize("expr,r", [
        ("2*z", 1.0), ("9*z^2", 1.0), ("z^3+z^4", 0.9), ("-2*z+12*z^2", 1.0),
        ("1+z^2-2*z^3", 1.5), ("z^2*(z-1/2)", 1.0),
    ])
    def test_closed_form_matches_limit(self, expr, r, monkeypatch):
        # with the boundary mean zeroed the oracle reports its term1 alone:
        # the sum of log(r/|eta|) over the nontrivial fiber roots over alpha(0)
        alpha = parse_map(expr)
        monkeypatch.setattr(overflow, "circle_mean", lambda *args, **kwargs: (0.0, None))
        term1 = overflow_definitional_oracle(alpha, r, FAST).value
        jet = abs(complex(alpha.jet()))
        closed = math.log(jet) + alpha.ramification_index() * math.log(r) + term1
        assert closed == pytest.approx(kappa_reference(alpha, r), abs=1e-12)


class TestSelfIntersectionP1:
    def test_identity_surface(self):
        desc = SurfaceDescriptor(1.0, TruncatedSeries([F(0), F(1)] + [F(0)] * 9))
        m = build_morphism(desc, parse_map("z"), 8)
        got = self_intersection_P1(m, FAST)
        assert got.height_part == 0.0
        assert got.characteristic_part == pytest.approx(math.log(2), abs=1e-9)
        assert got.kernel_part == pytest.approx(math.log(2), abs=1e-6)
        assert got.value == pytest.approx(0.0, abs=1e-6)
        assert got.value <= got.upper_bound + 1e-12

    def test_one_circle_mean_and_one_torus_integral(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        # arithmetic imports circle_mean from quadrature when it runs
        for module in (quadrature, overflow):
            monkeypatch.setattr(module, "circle_mean", spy("circle", module.circle_mean))
        monkeypatch.setattr(overflow, "torus_pair_log_integral",
                            spy("torus", overflow.torus_pair_log_integral))
        self_intersection_P1(build_morphism(surface(3), parse_map("6*z+9*z^2"), 10), FAST)
        assert sorted(calls) == ["circle", "torus"]

    def test_kernel_is_the_bound_slack(self):
        m = build_morphism(surface(3), parse_map("6*z+9*z^2"), 10)
        p1 = self_intersection_P1(m, FAST)
        check = overflow.nevanlinna_bound_check(m.alpha_an, 1.0, FAST)
        assert p1.kernel_part == check.slack
        assert p1.characteristic_part == check.characteristic
        assert p1.value == p1.upper_bound - check.slack

    def test_height_values(self):
        assert projective_height(F(3, 4)) == pytest.approx(math.log(5))
        assert projective_height(F(0)) == 0.0

    def test_matches_decomposition(self):
        # affine decomposition with P1 archimedean part equals the P1 route
        from overflow_lab.overflow import overflow_to_P1

        m = build_morphism(surface(3), parse_map("6*z+9*z^2"), 10)
        p1 = self_intersection_P1(m, FAST)
        alpha = DiskMap(tuple(float(c) for c in m.alpha_an.num))
        arch = overflow_to_P1(alpha, 1.0, FAST).value
        decomposition = (
            m.ramification * m.surface.normal_degree
            + arithmetic_excess(m.alpha_hat)
            + arch
        )
        assert p1.value == pytest.approx(decomposition, abs=1e-5)


class TestDInvariant:
    @pytest.mark.parametrize("r,k", [(2, 1), (2, 4), (3, 2)])
    def test_power_family(self, r, k):
        alpha = DiskMap((0,) * k + (F(r) ** k,))
        m = build_morphism(surface(r), alpha, 10)
        assert D_invariant(m, FAST) == pytest.approx(k, abs=1e-9)

    def test_lower_bound(self):
        m = build_morphism(surface(3), parse_map("6*z+9*z^2"), 10)
        assert D_invariant(m, FAST) >= m.ramification - 1e-9

    def test_requires_pseudoconcave(self):
        convex = SurfaceDescriptor(1.0, TruncatedSeries([F(0), F(2)] + [F(0)] * 9))
        m = build_morphism(convex, parse_map("2*z"), 8)
        with pytest.raises(NotPseudoconcave):
            D_invariant(m, FAST)


class TestHolonomyBound:
    def test_borel_identity(self):
        m = build_morphism(surface(2), parse_map("2*z"), 8)
        got = holonomy_degree_bound(m, FAST)
        assert got.degree_bound == 1
        assert got.cdt_bound > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_tightness(self, k):
        alpha = DiskMap((0,) * k + (F(2) ** k,))
        m = build_morphism(surface(2), alpha, 10)
        assert holonomy_degree_bound(m, FAST).degree_bound == k

    def test_pseudoconvex_rejected(self):
        convex = SurfaceDescriptor(1.0, TruncatedSeries([F(0), F(2)] + [F(0)] * 9))
        m = build_morphism(convex, parse_map("2*z"), 8)
        with pytest.raises(NotPseudoconcave):
            holonomy_degree_bound(m, FAST)


class TestDimBounds:
    def test_base_cases(self):
        assert dim_bound_C(0, 1) == 1
        assert dim_bound_C(0, 7) == 1
        assert dim_bound_C(-3, 2) == 0

    def test_small_value(self):
        assert dim_bound_C(2, 1) == 6  # 3 + 2 + 1

    def test_brute_force_oracle(self):
        for n in range(0, 40):
            for d in (1, 2, 5):
                brute = sum(
                    max(n + 1 - i * d, 0) for i in range(0, n + 2)
                )
                assert dim_bound_C(n, d) == brute

    def test_asymptotic_ratio(self):
        n = 10**5
        for d in (1, 2, 5):
            ratio = dim_bound_C(n, d) * 2 * d / n**2
            assert 0.95 <= ratio <= 1.05

    def test_cnb_base_cases(self):
        assert dim_bound_CNB(-1, F(2), 1) == 0
        assert dim_bound_CNB(0, F(2), 1) == 1
        assert dim_bound_CNB(3, F(2), 1) == 6  # terms 4 + 2

    def test_cnb_brute_force(self):
        for n in range(0, 30):
            for cd in (F(1), F(2), F(3, 2)):
                for mu in (1, 2, 3):
                    i_max = math.floor(F(n) / cd)
                    brute = sum(
                        max(1 + math.floor(F(n - i * cd) / mu), 0)
                        for i in range(0, i_max + 1)
                    )
                    assert dim_bound_CNB(n, cd, mu) == brute

    def test_cnb_asymptotic(self):
        n = 10**4
        got = dim_bound_CNB(n, F(2), 3)
        assert got * 2 * 3 * 2 / n**2 == pytest.approx(1.0, rel=0.01)

    @staticmethod
    def _c_loop(n, d):
        """The summation loops the closed forms replaced, kept as the reference."""
        total, i = 0, 0
        while n + 1 - i * d > 0:
            total += n + 1 - i * d
            i += 1
        return total

    @staticmethod
    def _cnb_loop(n, cd, mu):
        total = 0
        for i in range(max(math.floor(F(n) / cd) + 1, 0)):
            term = 1 + math.floor(F(n - i * cd) / mu)
            if term > 0:
                total += term
        return total

    def test_closed_forms_match_the_loops(self):
        for n in range(-2, 30):
            for d in range(1, 9):
                assert dim_bound_C(n, d) == self._c_loop(n, d), (n, d)
            for p in range(1, 9):
                for q in range(1, 7):
                    for mu in range(1, 5):
                        cd = F(p, q)
                        assert dim_bound_CNB(n, cd, mu) == self._cnb_loop(n, cd, mu), (n, cd, mu)

    def test_closed_forms_on_huge_inputs(self):
        # the loops would take about 3e9 and 1e11 steps; the CNB terms are 4
        # once, then 3, 2 and 1 for 1e9 indices each
        assert dim_bound_CNB(3, F(1, 10**9), 1) == 6 * 10**9 + 4
        n = 10**11
        assert dim_bound_C(n, 1) == (n + 1) * (n + 2) // 2


class TestGrelem:
    def test_linear_case(self):
        psi = TruncatedSeries([F(0), F(2)] + [F(0)] * 9)
        got = grelem_construct(psi, 1, 8)
        assert got.alpha_hat == TruncatedSeries([F(0), F(1)] + [F(0)] * 7)
        assert got.composed.coeffs[1] == F(1, 2)
        assert got.convergent
        # sup of |T/2| on the closed unit disk vs the geometric bound
        values = [
            abs(got.composed.evaluate(complex(math.cos(a), math.sin(a))))
            for a in np.linspace(0, 2 * math.pi, 64)
        ]
        assert max(values) <= got.sup_bound + 1e-6
        assert got.sup_bound == pytest.approx(0.75)

    def test_quadratic_psi_certificate(self):
        psi = TruncatedSeries([F(0), F(2), F(1)] + [F(0)] * 9)
        got = grelem_construct(psi, 1, 5)
        lam = F(2)
        for n in range(2, 6):
            assert abs(got.composed.coeffs[n]) <= F(1, 2) / lam**n

    def test_composition_consistency(self):
        # alpha_hat o psi^{-1} recomposed with psi returns alpha_hat
        psi = TruncatedSeries([F(0), F(3, 2), F(1, 3)] + [F(0)] * 10)
        got = grelem_construct(psi, 2, 9)
        back = compose(got.composed, psi.truncate(9))
        assert back == got.alpha_hat.truncate(9)

    def test_contracting_psi_flagged(self):
        psi = TruncatedSeries([F(0), F(1, 2), F(1, 5)] + [F(0)] * 9)
        got = grelem_construct(psi, 1, 6)
        assert not got.convergent
        assert got.sup_bound is None

    def test_random_certificates(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            lam = F(int(rng.choice([3, -3, 2, -2]))) / F(int(rng.choice([1, 2])))
            if abs(lam) == 1:
                continue
            coeffs = [F(0), lam] + [
                F(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                for _ in range(10)
            ]
            psi = TruncatedSeries(coeffs)
            got = grelem_construct(psi, int(rng.integers(1, 4)), 11)
            assert got.certificate_checked == 11
