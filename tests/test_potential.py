import math

import numpy as np
import pytest

from overflow_lab.potential import INF, DiskPotential
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
