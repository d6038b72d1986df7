import math

import numpy as np
import pytest

from overflow_lab import overflow, quadrature
from overflow_lab.errors import DomainError, NoConvergence, NumericalError
from overflow_lab.maps import DiskMap, parse_map
from overflow_lab.quadrature import (
    _BLOCK_ELEMENTS,
    MAX_LATTICE,
    QuadratureSettings,
    _graeffe_cross_sum,
    _log_cross_sum,
    circle_mean,
    gauss_log_rule,
    nevanlinna_T,
    torus_pair_log_integral,
)

IDENTITY = DiskMap((0, 1))
TIGHT = QuadratureSettings(tol=1e-9)


@pytest.mark.parametrize("grid,depth", [(64, 18), (2**24, 0), (2, 23)])
def test_settings_up_to_the_lattice_ceiling_are_admitted(grid, depth):
    settings = QuadratureSettings(base_grid=grid, max_depth=depth)
    assert settings.base_grid * 2**settings.max_depth == MAX_LATTICE


@pytest.mark.parametrize("grid,depth", [(64, 19), (2**25, 0), (2**100, 0), (2, 10**9)])
def test_settings_past_the_lattice_ceiling_are_refused(grid, depth):
    with pytest.raises(DomainError, match="finest lattice"):
        QuadratureSettings(base_grid=grid, max_depth=depth)


def _on_circle(r, p, q=np.ones_like):
    """Boundary callable of the homogeneous pair (p, q) on the circle of radius r."""

    def boundary(ts):
        z = r * np.exp(2j * np.pi * ts)
        return p(z), q(z)

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

        def boundary(ts):  # values that overflowed to infinity
            grids.append(len(ts))
            return np.full(len(ts), np.inf, dtype=complex), np.ones(len(ts), dtype=complex)

        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            torus_pair_log_integral(boundary, QuadratureSettings(base_grid=16))
        assert grids == [16, 128]

    def test_torus_values_near_the_float_limit(self):
        # the Graeffe rows are scaled by powers of two, so squared moduli of
        # 1e400 never form: log|1e200 (z - w)| integrates to 200 log 10
        def boundary(ts):
            return 1e200 * np.exp(2j * np.pi * ts), np.ones(len(ts), dtype=complex)

        got, _ = torus_pair_log_integral(boundary)
        assert got == pytest.approx(200 * math.log(10), abs=1e-9)

    def test_area_non_finite_level(self, monkeypatch):
        grids = []

        def density(alpha, z):
            grids.append(z.size)
            return np.full(z.shape, np.nan)

        monkeypatch.setattr(quadrature, "_fubini_study_density", density)
        with pytest.raises(NumericalError, match="area integral: estimate not finite at grid 256"):
            nevanlinna_T(IDENTITY, 1.0, "area")
        assert set(grids) == {256}


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


def test_smooth_circle_mean_accepts_on_two_raw_levels():
    # the midpoint rule on exp(cos 2 pi t) is exact to rounding at 64 nodes
    def values(ts):
        return np.exp(np.cos(2 * np.pi * ts))

    def level(n):
        return float(np.mean(values((np.arange(n) + 0.5) / n)))

    value, cert = circle_mean(values, QuadratureSettings(base_grid=64))
    assert (value, cert.grid, cert.achieved) == (level(128), 128, abs(level(128) - level(64)))


class TestCorrectedCircleMean:
    def test_corrected_levels_accept_without_richardson(self):
        # max(0, cos 2 pi t) integrates to 1/pi; the correction here is the
        # exact midpoint error, so the first two levels agree
        def values(ts):
            return np.maximum(0.0, np.cos(2 * np.pi * ts))

        def error(n):
            return float(np.mean(values((np.arange(n) + 0.5) / n))) - 1 / math.pi

        value, cert = circle_mean(values, QuadratureSettings(base_grid=16, tol=1e-12),
                                  correction=error)
        assert value == pytest.approx(1 / math.pi, abs=1e-15)
        assert cert.grid == 32

    def test_an_uncorrected_level_is_skipped(self):
        grids = []

        def error(n):
            grids.append(n)
            return None if n == 32 else 0.0

        value, cert = circle_mean(lambda ts: np.ones(len(ts)), QuadratureSettings(base_grid=16),
                                  correction=error)
        # 16 and 32 cannot be compared (32 is uncorrected), nor 32 and 64
        assert (value, cert.grid, cert.achieved) == (1.0, 128, 0.0)
        assert grids == [16, 32, 64, 128]

    def test_no_two_corrected_levels_raise(self):
        with pytest.raises(NoConvergence, match="no two combined levels"):
            circle_mean(lambda ts: np.ones(len(ts)), QuadratureSettings(base_grid=16, max_depth=3),
                        correction=lambda n: None)


def _points(rng, k, scale=10.0):
    return scale * (rng.normal(size=k) + 1j * rng.normal(size=k))


def _naive_log_cross_sum(p1, q1, p2, q2):
    cross = p1[:, None] * q2[None, :] - q1[:, None] * p2[None, :]
    return float(np.sum(np.log(np.abs(cross) ** 2)))


def _ones(*arrays):
    """q = 1 on each lattice, the pair of a polynomial."""
    return tuple(np.ones(len(a), dtype=complex) for a in arrays)


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
        q1, q2 = (_points(rng, n, 1.0), _points(rng, m, 1.0)) if cross else _ones(p1, p2)
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
        q1, q2 = _ones(p1, p2)
        if cross:
            # (2x)/2 == x exactly, so f = p/q meets p2[17] too
            p1[n - 2] *= 2.0
            q1[n - 2] = 2.0
        with pytest.raises(NumericalError, match="exact coincidence"):
            _log_cross_sum(p1, q1, p2, q2, "kernel")

    # mirrored: the outer rows come in conjugate pairs, as a real map's do
    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("near", ["outer", "inner"])
    def test_pole_near_the_lattice(self, near, mirrored):
        # q = z - z0 with z0 a relative 1e-6 off a lattice node, so |q| is
        # about 1.3e-6 there and f = p/q about 1e6
        n, m = 64, 512
        z1 = 1.3 * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
        z2 = 1.3 * np.exp(2j * np.pi * (np.arange(m) + 0.75) / m)
        z0 = z1[5] * (1 + 1e-6) if near == "outer" else z2[40] * (1 - 1e-6)
        if mirrored:
            z1 = _mirrored(z1[: n // 2])
        p1, q1 = z1**2 + 0.5, z1 - z0
        p2, q2 = z2**2 + 0.5, z2 - z0
        assert min(np.min(np.abs(q1)), np.min(np.abs(q2))) < 2e-6
        want = _naive_log_cross_sum(p1, q1, p2, q2)
        assert _log_cross_sum(p1, q1, p2, q2, "kernel") == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("p_scale,q_scale", [(1e5, 1e-150), (1e-5, 1e150), (1.0, 1e-30)])
    def test_ratio_far_from_modulus_one(self, p_scale, q_scale, mirrored):
        # f = p/q is about 1e155, 1e-155 and 1e30: unless f is scaled, its
        # squared differences overflow in the first case and lose digits
        # among the subnormals in the second; the third is scaled too
        n, m = 64, 512
        z1 = 1.5 * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
        z2 = 1.5 * np.exp(2j * np.pi * (np.arange(m) + 0.75) / m)
        if mirrored:
            z1 = _mirrored(z1[: n // 2])
        p1, q1 = p_scale * z1, q_scale * (2 + z1)
        p2, q2 = p_scale * z2, q_scale * (2 + z2)
        want = _naive_log_cross_sum(p1, q1, p2, q2)
        got = _log_cross_sum(p1, q1, p2, q2, "kernel")
        # each of the n m terms is about +-700, so bound the error per pair:
        # unscaled, the subnormal squares of the 1e-155 case lose 3e-12
        assert got == pytest.approx(want, rel=0, abs=5e-13 * n * m)

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_pole_on_the_lattice_raises(self, mirrored):
        # |p1 q2 - q1 p2| stays finite there, but f = p/q does not
        p1, q1 = np.array([1.0 + 1.0j, 2.0 + 0.0j]), np.array([1.0 + 0.0j, 0.0j])
        p2, q2 = np.array([3.0 + 1.0j, 1.0j]), np.ones(2, dtype=complex)
        if mirrored:
            p1, q1 = _mirrored(p1), _mirrored(q1)
        with pytest.raises(NumericalError, match="lattice hit a pole"):
            _log_cross_sum(p1, q1, p2, q2, "kernel")

    def test_underflowing_square_raises(self):
        p1 = np.array([1.0 + 1.0j, 1e-300 + 0.0j])
        p2 = np.array([0.0j, 5.0 + 0.0j])
        with pytest.raises(NumericalError, match="exact coincidence"):
            _log_cross_sum(p1, *_ones(p1), p2, *_ones(p2), "kernel")

    def test_overflowing_square_is_not_a_coincidence(self):
        # unscaled, |1e200 - 0|^2 overflows; scaled to the largest |f|,
        # |1 - 0|^2 underflows; scaled to the geometric mean of the largest
        # and smallest |f|, every square is finite and the sum is its
        # log-domain value
        p1 = np.array([1e200 + 0.0j, 1.0 + 0.0j])
        p2 = np.array([0.0j, 5.0 + 0.0j])
        want = sum(2.0 * math.log(abs(a - b)) for a in p1 for b in p2)
        got = _log_cross_sum(p1, *_ones(p1), p2, *_ones(p2), "kernel")
        assert got == pytest.approx(want, rel=1e-15)


def _mirrored(half):
    """Outer lattice whose node n - 1 - k carries the conjugate of node k."""
    return np.concatenate([half, np.conj(half[::-1])])


class TestConjugateFoldKernel:
    """Outer lattices whose rows come in conjugate pairs, as a real map's do.
    No kernel folds them: Graeffe builds and checks every row, and every row
    it leaves reaches the direct sum with its own values."""

    # (row pairs, m): a ragged last block; one-row blocks of an odd size; and
    # a single block of 10 rows
    SHAPES = [(100, 1000), (3, _BLOCK_ELEMENTS // 2 + 3), (5, 1001)]

    @pytest.mark.parametrize("n,m", SHAPES)
    @pytest.mark.parametrize("cross", [False, True])
    def test_matches_naive_complex_reference(self, n, m, cross):
        rng = np.random.default_rng(n + m)
        p1, p2 = _mirrored(_points(rng, n)), _points(rng, m)
        q1, q2 = (_mirrored(_points(rng, n, 1.0)), _points(rng, m, 1.0)) if cross else _ones(p1, p2)
        got = _log_cross_sum(p1, q1, p2, q2, "kernel")
        assert got == pytest.approx(_naive_log_cross_sum(p1, q1, p2, q2), rel=1e-12)

    @pytest.mark.parametrize("p,q", [
        (lambda z: z**3 - 0.7 * z + 0.2, np.ones_like),
        (lambda z: z**2 + 0.5, lambda z: 1.0 - 0.4 * z),
    ], ids=["polynomial", "rational"])
    def test_torus_rule_matches_the_unfolded_rule(self, p, q, graeffe_rows):
        # a unit factor c leaves |p(t) q(s) - q(t) p(s)| as it is, but makes
        # the inner coefficients complex; Graeffe builds every row either way
        lengths, columns = {True: [], False: []}, {}

        def rule(folded):
            c = 1.0 if folded else np.exp(0.3j)
            inner = _on_circle(1.3, lambda z: c * p(z), lambda z: c * q(z))

            def boundary(ts):
                lengths[folded].append(len(ts))
                return inner(ts)

            start = len(graeffe_rows)
            result = torus_pair_log_integral(boundary)
            columns[folded] = graeffe_rows[start:]
            return result

        folded, folded_cert = rule(True)
        full, full_cert = rule(False)
        assert abs(folded - full) <= 1e-13
        assert folded_cert.grid == full_cert.grid
        assert lengths[True] == lengths[False]
        assert columns[True] and columns[True] == columns[False]

    @pytest.mark.parametrize("cross", [False, True])
    def test_coincidence_with_a_mirrored_row_raises(self, cross):
        # a real map's level, with row n - 1 - k moved onto an inner value and
        # row k onto its conjugate, which meets none: Graeffe builds both
        # rows, the moved row fails its check and the direct sum meets it
        n, k = 256, 200
        alpha = parse_map("(2+z^2)/(1+z/3)" if cross else "3-z+2*z^2-z^3")
        p1, q1, p2, q2 = _level(alpha, 1.2, n)
        p1[k], p1[n - 1 - k] = np.conj(p2[17]), p2[17]
        if cross:
            q1[k], q1[n - 1 - k] = np.conj(q2[17]), q2[17]
        _log_cross_sum(np.delete(p1, n - 1 - k), np.delete(q1, n - 1 - k),
                       p2, q2, "kernel")
        with pytest.raises(NumericalError, match="exact coincidence"):
            _graeffe_cross_sum(p1, q1, p2, q2, "kernel")

    @pytest.mark.parametrize("scale", [1e100, 1e-78, 1e-100],
                             ids=["overflow", "subnormal", "underflow"])
    @pytest.mark.parametrize("cross", [False, True])
    def test_squares_near_the_float_limits(self, scale, cross):
        # every squared modulus is near scale**2, which float64 holds, while a
        # product of two of them (the ids) would overflow, land among the
        # subnormals (where it keeps only a few digits), or underflow to zero:
        # one log per squared modulus keeps them all
        rng = np.random.default_rng(3)
        p1, p2 = _mirrored(scale * _points(rng, 4, 1.0)), scale * _points(rng, 6, 1.0)
        q1, q2 = _ones(p1, p2)
        if cross:
            q1 = _mirrored(1.0 + 0.1 * _points(rng, 4, 1.0))
            q2 = 1.0 + 0.1 * _points(rng, 6, 1.0)
        want = _naive_log_cross_sum(p1, q1, p2, q2)
        assert math.isfinite(want)
        got = _log_cross_sum(p1, q1, p2, q2, "kernel")
        assert got == pytest.approx(want, rel=1e-14)


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


@pytest.mark.parametrize("depth,last", [
    (1, "no two combined levels"),
    (2, "last delta [0-9.e+-]+"),
])
def test_no_convergence_names_the_last_level(depth, last):
    wild = QuadratureSettings(base_grid=4, tol=1e-14, max_depth=depth)
    boundary = _on_circle(1.3, lambda z: z**5 + z**2 + z)
    grid = 4 * 2**depth
    with pytest.raises(NoConvergence, match=rf"at grid {grid} \({last}, tol 1e-14\)$"):
        torus_pair_log_integral(boundary, wild)


def test_area_no_convergence_names_the_last_level():
    # the area route accepts on raw levels, so two levels give one delta
    wild = QuadratureSettings(base_grid=4, tol=1e-14, max_depth=1)
    with pytest.raises(NoConvergence, match=r"area integral: no convergence at grid 8 \(last delta"):
        nevanlinna_T(parse_map("z^5+z^2+z"), 1.3, "area", wild)


def _level(alpha, r, n):
    """The outer and inner values of the torus level on n outer nodes."""
    m = n * quadrature._INNER_REFINE
    values = []
    for ts in (quadrature._midpoints(n), quadrature._midpoints(m, 0.25)):
        p, q = alpha.num_den_at(r * np.exp(2j * np.pi * ts))
        values += [p, q]
    return values


@pytest.fixture
def direct_rows(monkeypatch):
    """Outer values handed to _log_cross_sum, one array per call."""
    calls = []

    def spy(p1, q1, p2, q2, label):
        calls.append(p1)
        return _log_cross_sum(p1, q1, p2, q2, label)

    monkeypatch.setattr(quadrature, "_log_cross_sum", spy)
    return calls


@pytest.fixture
def graeffe_rows(monkeypatch):
    """Row polynomials of each _graeffe_iterate call, its check columns not
    counted."""
    calls = []
    iterate = quadrature._graeffe_iterate

    def spy(polys, steps):
        calls.append(polys.shape[1] // 2)
        return iterate(polys, steps)

    monkeypatch.setattr(quadrature, "_graeffe_iterate", spy)
    return calls


def _graeffe_admits(alpha, n):
    """The kernel's level rule for a map of degree below m = 8n: Graeffe
    builds the rows when each costs fewer products, (deg + 1)^2 in each of
    log2(m) squarings, than its m pairs."""
    m = quadrature._INNER_REFINE * n
    return (alpha.degree + 1) ** 2 * (m.bit_length() - 1) < m


def _whole_level(direct_rows, p1):
    """Whether the direct sum got every outer row of the level, in one call."""
    return len(direct_rows) == 1 and np.array_equal(direct_rows[0], p1)


class TestGraeffeKernel:
    """The Graeffe inner sums against the direct sum on the same lattices."""

    CASES = [
        ("3-z-3*z^2-z^3-z^4+3*z^5", 1.787),  # a degree-5 excess-c pool map
        # maps P(z^K), whose rows hold an orbit that merges: every row runs direct
        ("z^8", 1.5),
        ("7*z^8-z^4+2", 3.0),
        ("-2*z^8+z^4-3", 40.0),
        # the two maps above as the routes integrate them, P at r^4
        ("2-z+7*z^2", 81.0),
        ("-3+z-2*z^2", 2560000.0),
        ("2-2*z+2*z^4-z^6-z^8", 1.871),  # clustered fibers
        ("1+z-2*z^3+z^7-3*z^11+2*z^16", 10.0),
        ("2-z+3*z^2-z^5+z^8", 100.0),
        ("(2+z^2)/(3*z^2+z-(1/2))", 0.8),
    ]

    @pytest.mark.parametrize("expr,r", CASES)
    @pytest.mark.parametrize("n", [16, 128, 512, 1024])
    def test_every_level_matches_the_direct_sum(self, expr, r, n, graeffe_rows, direct_rows):
        alpha = parse_map(expr)
        p1, q1, p2, q2 = _level(alpha, r, n)
        scale = 0.5 / (n * len(p2))
        got = _graeffe_cross_sum(p1, q1, p2, q2, "kernel") * scale
        if _graeffe_admits(alpha, n):
            assert graeffe_rows == [n]
            assert got == pytest.approx(_log_cross_sum(p1, q1, p2, q2, "kernel") * scale,
                                        rel=0, abs=1e-12)
        else:
            assert graeffe_rows == [] and _whole_level(direct_rows, p1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("alpha,graeffe_at", [
        # m = 8n is at most the degree 64: the inner coefficients are the
        # map's reduced mod y^m + i, of degree 1 at m = 32
        (parse_map("2+z-z^33+z^64"), {4}),
        (DiskMap((-1, 2 - 1j, 0, 1 + 1j)), set()),
        (DiskMap((1j, 2, 0.5 - 1j), (1, 0.3j)), {8}),
    ], ids=["degree 64", "complex", "complex rational"])
    def test_coarse_lattices_and_complex_maps(self, alpha, graeffe_at, n, graeffe_rows,
                                              direct_rows):
        # a level whose rows cost Graeffe at least their m pairs runs direct
        p1, q1, p2, q2 = _level(alpha, 1.01, n)
        scale = 0.5 / (n * len(p2))
        got = _graeffe_cross_sum(p1, q1, p2, q2, "kernel")
        if n in graeffe_at:
            want = _log_cross_sum(p1, q1, p2, q2, "kernel")
            assert got * scale == pytest.approx(want * scale, rel=0, abs=1e-12)
            assert graeffe_rows == [n] and direct_rows == []  # every row passed its check
        else:
            assert graeffe_rows == [] and _whole_level(direct_rows, p1)

    @pytest.mark.parametrize("alpha,r,n", [
        (parse_map("3-z-3*z^2-z^3-z^4+3*z^5"), 1.787, 256),
        (parse_map("(2+z^2)/(3*z^2+z-(1/2))"), 0.8, 256),
        # A and B complex: a complex map, and a real map of degree 64 whose
        # coefficients reduced mod y^32 + i are not real
        (DiskMap((2 + 1j, -1, 3)), 1.5, 256),
        (parse_map("2+z-z^33+z^64"), 1.01, 4),
    ], ids=["real", "real rational", "complex", "degree 64"])
    def test_every_row_is_built(self, alpha, r, n, graeffe_rows):
        _graeffe_cross_sum(*_level(alpha, r, n), "kernel")
        assert graeffe_rows == [n]

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_a_complex_boundary_that_wraps_to_real_coefficients(self, n, graeffe_rows,
                                                                direct_rows):
        # at n = 2, m = 16, i z^16 reduced mod y^16 + i is the real r^16, of
        # degree 1, and at n = 4 and 8 the map has degree 16: each level's
        # rows cost Graeffe at least their m pairs, so the level runs direct
        p1, *_ = level = _level(DiskMap((1, 1) + (0,) * 14 + (1j,)), 1.01, n)
        _graeffe_cross_sum(*level, "kernel")
        assert graeffe_rows == [] and _whole_level(direct_rows, p1)

    def test_degree_five_pool_map_needs_no_direct_row(self, direct_rows):
        alpha = parse_map("3-z-3*z^2-z^3-z^4+3*z^5")
        overflow._boundary_cross(alpha, 1.787, quadrature.DEFAULT_SETTINGS)
        assert direct_rows == []

    def test_a_low_degree_map_runs_every_level_on_graeffe(self, direct_rows, graeffe_rows):
        # criterion 7's settings start at 64 x 512 pairs: a degree-2 row
        # costs Graeffe 9 products in each of 9 squarings, fewer than its 512
        alpha = parse_map("3*z-z^2")
        overflow._boundary_cross(alpha, 1.262, QuadratureSettings(64, 1e-5, 9))
        assert graeffe_rows and direct_rows == []

    def test_a_high_degree_level_runs_direct(self, direct_rows, graeffe_rows):
        # a degree-64 row costs Graeffe 65^2 products in each of 11 squarings,
        # over twenty times the 2048 pairs of the first level's direct row
        alpha = parse_map("z^64+z^3+2*z")
        overflow._boundary_cross(alpha, 1.2, quadrature.DEFAULT_SETTINGS)
        first = quadrature.DEFAULT_SETTINGS.base_grid
        assert len(direct_rows[0]) == first and first not in graeffe_rows

    def test_merging_fiber_roots_fall_back_row_by_row(self, direct_rows):
        # at r = 10 the fiber roots of a degree-16 map lie near e(t) times the
        # 16th roots of unity and merge under squaring; the check catches them
        n = 1024
        p1, q1, p2, q2 = _level(parse_map("1+z-2*z^3+z^7-3*z^11+2*z^16"), 10.0, n)
        got = _graeffe_cross_sum(p1, q1, p2, q2, "kernel")
        assert len(direct_rows) == 1 and len(direct_rows[0])
        assert got == pytest.approx(_log_cross_sum(p1, q1, p2, q2, "kernel"),
                                    rel=0, abs=1e-12 * n * len(p2))

    def test_failed_mirrored_rows_reach_the_direct_sum_as_they_are(self, direct_rows):
        # Graeffe builds every row of this real map; the rows it hands on
        # from the second half carry their own outer values, which differ in
        # the last bits from the conjugates of their mirrors
        n = 1024
        p1, *_ = lattices = _level(parse_map("1+z-2*z^3+z^7-3*z^11+2*z^16"), 10.0, n)
        _graeffe_cross_sum(*lattices, "kernel")
        (passed,) = direct_rows
        rows = np.flatnonzero(np.isin(p1, passed))
        assert len(rows) == len(passed)
        mirrored = rows[rows >= n // 2]
        assert len(mirrored) and np.any(p1[mirrored] != np.conj(p1[n - 1 - mirrored]))

    def test_each_level_evaluates_the_boundary_twice(self):
        lengths = []

        def boundary(ts):
            lengths.append(len(ts))
            z = 1.787 * np.exp(2j * np.pi * ts)
            return 3 - z - 3 * z**2 - z**3 - z**4 + 3 * z**5, np.ones_like(z)

        _, cert = torus_pair_log_integral(boundary)
        levels = [256 * 2**k for k in range(len(lengths) // 2)]
        assert lengths == [size for n in levels for size in (n, 8 * n)]
        assert levels[-1] == cert.grid

    @pytest.mark.parametrize("expr,r,settings", [
        ("-z-2*z^2", 42.17, quadrature.DEFAULT_SETTINGS),
        ("2*z^4+3*z", 100.0, quadrature.DEFAULT_SETTINGS),
        ("(1+2*z+z^2)/(3*z-(9/4))", 0.9515, QuadratureSettings(64, 1e-5, 9)),
    ])
    def test_the_rule_is_unchanged(self, expr, r, settings, monkeypatch):
        alpha = parse_map(expr)
        got, cert = overflow._boundary_cross(alpha, r, settings)
        monkeypatch.setattr(quadrature, "_graeffe_cross_sum", _log_cross_sum)
        want, want_cert = overflow._boundary_cross(alpha, r, settings)
        assert cert.grid == want_cert.grid
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("c", [1.0, 1.5 - 0.25j, -0.7j, 3.0 + 2.0j])
    @pytest.mark.parametrize("m", [2, 16, 1024, 8192])
    def test_constant_boundary_coefficients_are_the_transforms(self, c, m):
        # a polynomial's q = 1 skips its transform; the transform gives the
        # same floats, bit for bit
        values = np.full(m, c, dtype=complex)
        a = np.fft.fft(values) / m * np.exp(-1.5j * np.pi * np.arange(m) / m)
        floor = quadrature._COEFF_FLOOR * np.max(np.abs(a))
        a.real[np.abs(a.real) < floor] = 0.0
        a.imag[np.abs(a.imag) < floor] = 0.0
        got = quadrature._inner_coefficients(values)
        assert got.tobytes() == a.tobytes()
        assert got[0] == c and not np.any(got[1:])

    def test_column_scale_is_the_larger_part(self):
        polys = np.array([[3 - 1j, -0.5 + 8j, 0j], [1 + 2j, 0.25 - 0.75j, -1e-300j]])
        iterate, log_scale = quadrature._graeffe_iterate(polys, 0)
        # the scales 2^2, 2^4 and 2^-996 bring each column's largest part into [1/2, 1)
        assert np.array_equal(log_scale, np.array([2.0, 4.0, -996.0]) * math.log(2.0))
        assert np.array_equal(iterate, quadrature._scaled(polys, np.array([2, 4, -996])))
