import math

import numpy as np
import pytest

from overflow_lab.errors import NoConvergence, NumericalError
from overflow_lab.maps import DiskMap, parse_map
from overflow_lab.quadrature import (
    _BLOCK_ELEMENTS,
    QuadratureSettings,
    _log_cross_sum,
    circle_log_mean,
    circle_mean,
    gauss_log_rule,
    nevanlinna_T,
    torus_pair_log_integral,
)

IDENTITY = DiskMap((0, 1))
TIGHT = QuadratureSettings(tol=1e-9)


class TestCircleLogMean:
    def test_jensen_inside(self):
        assert circle_log_mean(IDENTITY, 0.0, 2.0) == pytest.approx(math.log(2), abs=1e-8)

    def test_jensen_outside(self):
        assert circle_log_mean(IDENTITY, 3.0, 1.0) == pytest.approx(math.log(3), abs=1e-8)

    def test_square_at_zero(self):
        zsq = DiskMap((0, 0, 1))
        assert circle_log_mean(zsq, 0.0, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_random_jensen_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = float(rng.uniform(0.2, 3.0))
            c = complex(rng.normal(), rng.normal())
            ratio = abs(c) / r
            if 0.99 <= ratio <= 1.01:
                continue
            expected = math.log(max(r, abs(c)))
            got = circle_log_mean(IDENTITY, c, r)
            assert got == pytest.approx(expected, abs=1e-8)


def _on_circle(r, p, q=None):
    """Boundary callable of the homogeneous pair (p, q) on the circle of radius r."""

    def boundary(ts):
        z = r * np.exp(2j * np.pi * ts)
        return p(z), None if q is None else q(z)

    return boundary


class TestTorusDoubleIntegral:
    def test_identity_unit_circle(self):
        got, _ = torus_pair_log_integral(_on_circle(1.0, lambda z: z), TIGHT)
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_identity_radius_two(self):
        got, _ = torus_pair_log_integral(_on_circle(2.0, lambda z: z), TIGHT)
        assert got == pytest.approx(math.log(2), abs=1e-8)

    def test_square_unit(self):
        got, _ = torus_pair_log_integral(_on_circle(1.0, lambda z: z**2), TIGHT)
        assert got == pytest.approx(0.0, abs=1e-7)

    def test_moebius_consistency(self):
        # (p, q) = (z - 2, z + 2): p1 q2 - q1 p2 = 4 (z1 - z2), so the cross
        # integral is log 4 plus the identity's 0, with no pole on the torus
        got, _ = torus_pair_log_integral(_on_circle(1.0, lambda z: z - 2, lambda z: z + 2))
        assert got == pytest.approx(math.log(4), abs=1e-6)


class TestLadderFailsFast:
    def test_circle_non_finite_level(self):
        grids = []

        def values(ts):
            grids.append(len(ts))
            return np.full(len(ts), np.inf)

        with pytest.raises(NumericalError, match="not finite at grid 256"):
            circle_mean(values)
        assert grids == [256]

    def test_torus_overflowing_level(self):
        grids = []

        def boundary(ts):
            grids.append(len(ts))
            return 1e200 * np.exp(2j * np.pi * ts), None

        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="not finite"):
            torus_pair_log_integral(boundary, QuadratureSettings(base_grid=16))
        assert grids == [16, 128]


class TestEvenCircleMean:
    @pytest.mark.parametrize("values", [
        lambda ts: np.exp(np.cos(2 * np.pi * ts)),
        lambda ts: 1.0 + np.log(np.abs(1.05 - np.exp(2j * np.pi * ts))),
    ], ids=["smooth", "log spike"])
    def test_half_lattice_matches_the_full_rule(self, values):
        full, full_cert = circle_mean(values)
        lengths = []

        def counted(ts):
            lengths.append(len(ts))
            return values(ts)

        half, half_cert = circle_mean(counted, even=True)
        assert half == pytest.approx(full, rel=1e-15, abs=0)
        assert half_cert.grid == full_cert.grid
        assert lengths == [128 * 2**k for k in range(len(lengths))]
        assert lengths[-1] == half_cert.grid // 2


def _points(rng, k, scale=10.0):
    return scale * (rng.normal(size=k) + 1j * rng.normal(size=k))


def _naive_log_cross_sum(p1, q1, p2, q2):
    if q1 is None:
        cross = p1[:, None] - p2[None, :]
    else:
        cross = p1[:, None] * q2[None, :] - q1[:, None] * p2[None, :]
    return float(np.sum(np.log(np.abs(cross) ** 2)))


class TestLogCrossSumKernel:
    # (n, m): n not a multiple of the block rows, and m beyond one block so
    # every block is a single row
    SHAPES = [(200, 1000), (3, _BLOCK_ELEMENTS + 3)]

    @pytest.mark.parametrize("n,m", SHAPES)
    @pytest.mark.parametrize("cross", [False, True])
    def test_matches_naive_complex_reference(self, n, m, cross):
        if n == 200:
            assert n % (_BLOCK_ELEMENTS // m) != 0
        rng = np.random.default_rng(n + m)
        p1, p2 = _points(rng, n), _points(rng, m)
        q1, q2 = (_points(rng, n, 1.0), _points(rng, m, 1.0)) if cross else (None, None)
        got = _log_cross_sum(p1, q1, p2, q2, "kernel")
        assert got == pytest.approx(_naive_log_cross_sum(p1, q1, p2, q2), rel=1e-12)
        assert _log_cross_sum(p1, q1, p2, q2, "kernel") == got

    @pytest.mark.parametrize("cross", [False, True])
    def test_shared_boundary_value_raises(self, cross):
        rng = np.random.default_rng(5)
        m = 1000
        n = 3 * (_BLOCK_ELEMENTS // m)
        p1, p2 = _points(rng, n), _points(rng, m)
        p1[n - 2] = p2[17]  # in the last block
        q1 = q2 = None
        if cross:
            q1, q2 = np.ones(n, dtype=complex), np.ones(m, dtype=complex)
            p1[n - 2] *= 3.0
            q1[n - 2] = 3.0
        with pytest.raises(NumericalError, match="exact coincidence"):
            _log_cross_sum(p1, q1, p2, q2, "kernel")

    def test_underflowing_square_raises(self):
        p1 = np.array([1.0 + 1.0j, 1e-300 + 0.0j])
        p2 = np.array([0.0j, 5.0 + 0.0j])
        with pytest.raises(NumericalError, match="exact coincidence"):
            _log_cross_sum(p1, None, p2, None, "kernel")

    def test_overflowing_square_is_not_a_coincidence(self):
        p1 = np.array([1e200 + 0.0j, 1.0 + 0.0j])
        p2 = np.array([0.0j, 5.0 + 0.0j])
        with np.errstate(over="ignore"):
            assert _log_cross_sum(p1, None, p2, None, "kernel") == math.inf


class TestGaussLogRule:
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10])
    def test_monomial_moments(self, k):
        # int_0^1 u^k * u log(1/u) du = 1/(k+2)^2
        nodes, weights = gauss_log_rule(24)
        got = float(np.sum(weights * nodes**k))
        assert got == pytest.approx(1.0 / (k + 2) ** 2, rel=1e-12)

    def test_analytic_function(self):
        # int_0^1 exp(u) u log(1/u) du, reference by mpmath-free series:
        # sum_k 1/k! * 1/(k+2)^2
        nodes, weights = gauss_log_rule(24)
        got = float(np.sum(weights * np.exp(nodes)))
        ref = sum(1.0 / math.factorial(k) / (k + 2) ** 2 for k in range(40))
        assert got == pytest.approx(ref, rel=1e-13)


class TestNevanlinna:
    def test_constant_map(self):
        const = DiskMap((5,))
        assert nevanlinna_T(const, 1.0, "area") == 0.0
        assert nevanlinna_T(const, 1.0, "boundary") == 0.0

    def test_identity_boundary_closed_form(self):
        got = nevanlinna_T(IDENTITY, 1.0, "boundary")
        assert got == pytest.approx(math.log(2) / 2, abs=1e-10)

    def test_identity_area_matches(self):
        got = nevanlinna_T(IDENTITY, 1.0, "area")
        assert got == pytest.approx(math.log(2) / 2, abs=1e-6)

    def test_boundary_vs_area_quadratic(self):
        alpha = parse_map("z^2+z")
        tb = nevanlinna_T(alpha, 1.0, "boundary")
        ta = nevanlinna_T(alpha, 1.0, "area")
        assert ta == pytest.approx(tb, abs=1e-4)

    @pytest.mark.parametrize("expr,r", [
        ("1/(z-1/2)", 1.0), ("(2+z^2)/(3*z^2+z-(1/2))", 0.8),
    ])
    def test_boundary_matches_area_with_interior_poles(self, expr, r):
        # Jensen's formula for the lift holds with poles inside the disk
        alpha = parse_map(expr)
        tb = nevanlinna_T(alpha, r, "boundary", TIGHT)
        ta = nevanlinna_T(alpha, r, "area", TIGHT)
        assert tb == pytest.approx(ta, abs=1e-9)

    def test_area_rejects_unresolved_radial_rule(self):
        # 48 radial nodes are off by 4.7e-4 here, and 24 by 5.7e-2
        with pytest.raises(NoConvergence, match="radial"):
            nevanlinna_T(parse_map("(-1-3*z)/(2*z+1)"), 1.9, "area")

    def test_area_handles_interior_pole(self):
        m = parse_map("1/(z-1/2)")
        value = nevanlinna_T(m, 1.0, "area")
        assert math.isfinite(value) and value > 0

    def test_nondecreasing_in_radius(self):
        alpha = parse_map("z^3+z")
        values = [nevanlinna_T(alpha, r, "boundary") for r in (0.5, 1.0, 1.5, 2.0)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_no_convergence_raises():
    wild = QuadratureSettings(base_grid=4, tol=1e-14, max_depth=1)
    boundary = _on_circle(1.3, lambda z: z**5 + z**2 + z)
    with pytest.raises(NoConvergence):
        torus_pair_log_integral(boundary, wild)
