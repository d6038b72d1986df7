from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overflow_lab.errors import CandidateNotCNB, DomainError, NotNegativeDefinite
from overflow_lab.lattice import (
    IntersectionLattice,
    blowup_chain_fixture,
    denough_compare,
    divisor_self_intersection,
    equilibrium_divisor,
    is_CNB,
    is_negative_definite,
    leading_principal_minors,
    solve_exact,
)


def random_chain_lattice(rng, size):
    """Negative definite chain: -(A^T A) - positive diagonal, A bidiagonal."""
    a = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        a[i][i] = F(int(rng.integers(1, 4)))
        if i + 1 < size:
            a[i][i + 1] = F(int(rng.integers(-2, 3)))
    m = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            m[i][j] = -sum(a[k][i] * a[k][j] for k in range(size))
    for i in range(size):
        m[i][i] -= F(int(rng.integers(1, 3)))
    c = [F(int(rng.integers(0, 4))) for _ in range(size)]
    cc = F(int(rng.integers(-3, 4)))
    labels = tuple(f"W{i}" for i in range(size))
    return IntersectionLattice(labels, tuple(map(tuple, m)), tuple(c), cc)


class TestStructure:
    def test_symmetry_enforced(self):
        with pytest.raises(DomainError):
            IntersectionLattice(
                ("a", "b"), ((F(-1), F(1)), (F(0), F(-2))), (F(1), F(0)), F(0)
            )

    def test_minors_of_chain(self):
        lat = blowup_chain_fixture(3, 0)
        assert leading_principal_minors(lat.matrix) == [F(-1), F(1), F(-1)]

    def test_negative_definite(self):
        assert is_negative_definite(blowup_chain_fixture(5, 0))
        indefinite = IntersectionLattice(
            ("a",), ((F(1),),), (F(0),), F(0)
        )
        assert not is_negative_definite(indefinite)

    def test_minors_stop_at_first_zero(self):
        # the hyperbolic plane: nonsingular, but its first leading minor is 0
        swap = ((F(0), F(1)), (F(1), F(0)))
        assert leading_principal_minors(swap) == [0]
        lat = IntersectionLattice(("a", "b"), swap, (F(1), F(0)), F(0))
        assert not is_negative_definite(lat)
        with pytest.raises(DomainError):
            solve_exact(swap, (F(1), F(0)))

    def test_minors_match_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            size = int(rng.integers(1, 6))
            lat = random_chain_lattice(rng, size)
            minors = leading_principal_minors(lat.matrix)
            dense = np.array([[float(x) for x in row] for row in lat.matrix])
            for k in range(size):
                ref = np.linalg.det(dense[: k + 1, : k + 1])
                assert float(minors[k]) == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestEquilibrium:
    def test_single_component(self):
        lat = IntersectionLattice(("a",), ((F(-1),),), (F(1),), F(0))
        eq = equilibrium_divisor(lat)
        assert eq.coefficients == (F(1),)
        assert eq.dd == F(1)

    def test_empty_lattice(self):
        lat = IntersectionLattice((), (), (), F(7))
        eq = equilibrium_divisor(lat)
        assert eq.coefficients == ()
        assert eq.dd == F(7)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 50])
    def test_blowup_chain_closed_form(self, n):
        lat = blowup_chain_fixture(n, 0)
        eq = equilibrium_divisor(lat)
        assert eq.coefficients == tuple(F(n - i) for i in range(n))
        assert eq.dd == F(n)
        assert eq.effective

    def test_blowup_with_cc(self):
        eq = equilibrium_divisor(blowup_chain_fixture(5, -2))
        assert eq.dd == F(3)

    def test_not_negative_definite_rejected(self):
        lat = IntersectionLattice(("a",), ((F(1),),), (F(1),), F(0))
        with pytest.raises(NotNegativeDefinite):
            equilibrium_divisor(lat)

    def test_random_lattices_solve_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            size = int(rng.integers(1, 7))
            lat = random_chain_lattice(rng, size)
            assert is_negative_definite(lat)
            eq = equilibrium_divisor(lat)
            for i in range(size):
                residual = lat.c[i] + sum(
                    lat.matrix[i][j] * eq.coefficients[j] for j in range(size)
                )
                assert residual == 0
            assert eq.dd == lat.cc + sum(
                ci * vi for ci, vi in zip(lat.c, eq.coefficients)
            )


class TestCNB:
    def test_blowup_positive(self):
        lat = blowup_chain_fixture(2, 0)
        eq = equilibrium_divisor(lat)
        report = is_CNB(lat, eq.coefficients)
        assert report.holds and report.dd == F(2)
        assert all(x == 0 for x in report.component_degrees)

    def test_negative_selfint_fails(self):
        lat = blowup_chain_fixture(2, -3)
        eq = equilibrium_divisor(lat)
        assert eq.dd == F(-1)
        assert not is_CNB(lat, eq.coefficients).holds

    def test_recovers_with_longer_chain(self):
        lat = blowup_chain_fixture(4, -3)
        eq = equilibrium_divisor(lat)
        assert eq.dd == F(1)
        assert is_CNB(lat, eq.coefficients).holds


class TestComparison:
    def test_reflexive_equality(self):
        lat = blowup_chain_fixture(3, 0)
        eq = equilibrium_divisor(lat)
        report = denough_compare(lat, eq.coefficients, eq.coefficients)
        assert report.equality
        assert report.dd_gap == 0
        assert report.quadratic_identity_holds

    def test_strict_candidate(self):
        lat = blowup_chain_fixture(2, 2)
        eq = equilibrium_divisor(lat)
        report = denough_compare(lat, eq.coefficients, (F(1), F(0)))
        assert report.coefficient_gap == (F(1), F(1))
        assert report.coefficient_dominates
        assert report.dd_gap > 0
        assert report.quadratic_identity_holds
        assert not report.equality

    def test_rejects_non_cnb_candidate(self):
        lat = blowup_chain_fixture(2, 0)
        eq = equilibrium_divisor(lat)
        with pytest.raises(CandidateNotCNB):
            denough_compare(lat, eq.coefficients, (F(3), F(0)))

    def test_gap_identity_random(self):
        rng = np.random.default_rng(13)
        found = 0
        while found < 25:
            size = int(rng.integers(1, 6))
            lat = random_chain_lattice(rng, size)
            eq = equilibrium_divisor(lat)
            if not eq.effective:
                continue
            # shrink the equilibrium a little to build a candidate
            cand = [v * F(int(rng.integers(0, 5)), 4) for v in eq.coefficients]
            try:
                report = denough_compare(lat, eq.coefficients, cand)
            except CandidateNotCNB:
                continue
            found += 1
            assert report.quadratic_identity_holds
            assert report.dd_gap >= 0
            assert report.coefficient_dominates
            assert report.section_gap >= 0


def test_solve_exact_simple():
    sol = solve_exact(((F(2), F(1)), (F(1), F(3))), (F(5), F(10)))
    assert sol == [F(1), F(3)]
    # denominators in the matrix and the right-hand side
    sol = solve_exact(((F(1, 2), F(1, 3)), (F(1, 3), F(-1, 4))), (F(1, 5), F(2, 7)))
    assert sol == [F(366, 595), F(-192, 595)]


def test_divisor_self_intersection_quadratic():
    lat = blowup_chain_fixture(2, 1)
    assert divisor_self_intersection(lat, (F(0), F(0))) == F(1)
    assert divisor_self_intersection(lat, (F(2), F(1))) == F(3)


# -- integer pairings against plain Fraction sums ------------------------------

fractions_with_zeros = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    st.builds(F, st.integers(-10**9, 10**9), st.sampled_from([1, 3, 8, 10**5])),
)


@st.composite
def lattices_and_divisors(draw):
    """Any symmetric rational pairing, section data and nonnegative v."""
    size = draw(st.integers(0, 6))
    m = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = draw(fractions_with_zeros)
    c = [draw(fractions_with_zeros) for _ in range(size)]
    v = [abs(draw(fractions_with_zeros)) for _ in range(size)]
    labels = tuple(f"W{i}" for i in range(size))
    lat = IntersectionLattice(labels, tuple(map(tuple, m)), tuple(c), draw(fractions_with_zeros))
    return lat, v


def _ref_self_intersection(lat, v):
    quad = sum(v[i] * v[j] * lat.matrix[i][j]
               for i in range(lat.size) for j in range(lat.size))
    return lat.cc + 2 * sum(ci * vi for ci, vi in zip(lat.c, v)) + quad


def _ref_determinant(rows):
    """Fraction Gaussian elimination with row swaps."""
    det = F(1)
    rows = [list(r) for r in rows]
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for row in rows[k + 1:]:
            factor = row[k] / rows[k][k]
            for j in range(k, len(rows)):
                row[j] -= factor * rows[k][j]
    return det


class TestAgainstFractionReference:
    @given(case=lattices_and_divisors())
    @settings(max_examples=100, deadline=None)
    def test_divisor_self_intersection(self, case):
        lat, v = case
        got = divisor_self_intersection(lat, v)
        assert type(got) is F and got == _ref_self_intersection(lat, v)

    @given(case=lattices_and_divisors())
    @settings(max_examples=100, deadline=None)
    def test_is_CNB(self, case):
        lat, v = case
        component = tuple(lat.c[i] + sum(lat.matrix[i][j] * v[j] for j in range(lat.size))
                          for i in range(lat.size))
        section = lat.cc + sum(ci * vi for ci, vi in zip(lat.c, v))
        dd = _ref_self_intersection(lat, v)
        report = is_CNB(lat, v)
        assert report.component_degrees == component
        assert all(type(x) is F for x in report.component_degrees)
        assert report.dd == dd
        assert report.holds == (all(x >= 0 for x in component) and section >= 0 and dd > 0)

    @given(case=lattices_and_divisors())
    @settings(max_examples=100, deadline=None)
    def test_leading_principal_minors(self, case):
        lat, _ = case
        want = []
        for k in range(1, lat.size + 1):
            want.append(_ref_determinant([list(row[:k]) for row in lat.matrix[:k]]))
            if want[-1] == 0:
                break
        assert leading_principal_minors(lat.matrix) == want

    def test_length_mismatch_is_a_domain_error(self):
        with pytest.raises(DomainError):
            divisor_self_intersection(blowup_chain_fixture(2, 1), (F(1),))
