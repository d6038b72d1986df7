import math

import numpy as np
import pytest

from overflow_lab.potential import INF, DiskPotential, capacitary_norm_P1
from overflow_lab.quadrature import QuadratureSettings, torus_pair_log_integral


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


class TestDiagonalGreen:
    """The capacitary norm that the projective-line diagonal Green function
    -log|x0 y1 - x1 y0| + (1/2) log|x|^2 + (1/2) log|y|^2 induces on d/dz:
    exp(-lim (g(w, w + h) + log|h|)) = 1 / (1 + |w|^2)."""

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
