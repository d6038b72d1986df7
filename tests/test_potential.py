import math

import numpy as np
import pytest

from overflow_lab.errors import CoincidentDivisors, InvalidPoint
from overflow_lab.potential import (
    INF,
    DiagonalGreen,
    DiskPotential,
    capacitary_degree,
    capacitary_norm_P1,
    diagonal_green,
    star_product_integral,
)
from overflow_lab.quadrature import QuadratureSettings, torus_pair_log_integral

GP1 = DiagonalGreen("P1")
GC = DiagonalGreen("C")


class TestDiskGreen:
    def test_direct_value(self):
        assert DiskPotential(0, 1.0)(0.5) == pytest.approx(math.log(2))

    def test_boundary_zero(self):
        g = DiskPotential(0, 1.0)
        assert g(1.0) == 0.0
        assert g(1j) == 0.0

    def test_singular_marker(self):
        assert DiskPotential(2.0, 1.0)(2.0) == INF

    def test_nonnegative_and_zero_outside(self):
        g = DiskPotential(1 + 1j, 0.75)
        rng = np.random.default_rng(1)
        z = rng.normal(size=300) + 1j * rng.normal(size=300)
        vals = g.values(z)
        assert np.all(vals >= 0.0)
        outside = np.abs(z - (1 + 1j)) >= 0.75
        assert np.all(vals[outside] == 0.0)


class TestCapacitaryDegree:
    def test_unit(self):
        assert capacitary_degree(1.0, 1.0) == 0.0

    def test_log_radius(self):
        assert capacitary_degree(math.e, 1.0) == pytest.approx(1.0)

    def test_small_derivative(self):
        assert capacitary_degree(1.0, 0.5) == pytest.approx(math.log(2))


class TestDiagonalGreen:
    def test_plane_at_unit_distance(self):
        assert diagonal_green(GC, 0.0, 1.0) == 0.0

    def test_diagonal_marker(self):
        assert diagonal_green(GC, 0.3, 0.3) == INF
        assert diagonal_green(GP1, 0.3, 0.3) == INF

    def test_p1_standard_points(self):
        assert diagonal_green(GP1, (1, 0), (0, 1)) == pytest.approx(0.0)

    def test_p1_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            if a == b:
                continue
            v1 = diagonal_green(GP1, a, b)
            v2 = diagonal_green(GP1, b, a)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert v1 >= 0.0

    def test_invalid_point(self):
        with pytest.raises(InvalidPoint):
            diagonal_green(GP1, (0, 0), (1, 1))

    def test_norm_values(self):
        assert capacitary_norm_P1(0.0) == 1.0
        assert capacitary_norm_P1(1.0) == pytest.approx(0.5)

    def test_norm_u2_invariance(self):
        # rotation z -> (z - c)/(1 + conj(c) z) carries the chart frame with
        # derivative (1+|c|^2)/(1+conj(c) z)^2; capacitary norms must match.
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = complex(rng.normal(), rng.normal()) * 0.5
            w = complex(rng.normal(), rng.normal())
            if 1 + c.conjugate() * w == 0:
                continue
            image = (w - c) / (1 + c.conjugate() * w)
            frame = (1 + abs(c) ** 2) / (1 + c.conjugate() * w) ** 2
            lhs = capacitary_norm_P1(w)
            rhs = capacitary_norm_P1(image) * abs(frame)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestStarProduct:
    def test_disjoint_supports_vanish(self):
        got = star_product_integral(DiskPotential(0, 1.0), DiskPotential(3.0, 1.0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_jensen_closed_form(self):
        got = star_product_integral(DiskPotential(0, 2.0), DiskPotential(1.0, 0.5))
        assert got == pytest.approx(math.log(2), abs=1e-9)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentDivisors):
            star_product_integral(DiskPotential(0, 1.0), DiskPotential(0, 2.0))

    def test_symmetry_random_corpus(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 100:
            a1 = complex(rng.normal(), rng.normal())
            a2 = complex(rng.normal(), rng.normal())
            r1, r2 = (float(x) for x in rng.uniform(0.2, 2.0, size=2))
            sep = abs(a1 - a2)
            # keep singular points away from each other's circles and the
            # circles away from mutual tangency: near-tangent log spikes and
            # degenerate kinks need unreasonably fine lattices
            gaps = (
                abs(sep - r1), abs(sep - r2), sep,
                abs(sep - (r1 + r2)), abs(sep - abs(r1 - r2)),
            )
            if min(gaps) < 0.05:
                continue
            count += 1
            g1 = DiskPotential(a1, r1)
            g2 = DiskPotential(a2, r2)
            tight = QuadratureSettings(tol=1e-7, max_depth=8)
            assert star_product_integral(g1, g2, tight) == pytest.approx(
                star_product_integral(g2, g1, tight), abs=1e-6
            )


def test_p1_kernel_unit_circle_double_integral():
    # int int g_P1(e(t1), e(t2)) dt1 dt2 = log 2
    def boundary(ts):
        z = np.exp(2j * np.pi * ts)
        return np.ones_like(z), z  # homogeneous pair (1, z)

    settings = QuadratureSettings(tol=1e-9)
    cross, _ = torus_pair_log_integral(boundary, settings)
    # separable halves: mean of (1/2) log(1 + |z|^2) on each factor = log(2)/2
    value = -cross + math.log(2.0)
    assert value == pytest.approx(math.log(2), abs=1e-6)
