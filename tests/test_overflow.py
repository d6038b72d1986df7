import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overflow_lab import overflow, quadrature
from overflow_lab.errors import (
    ConstantMap,
    DomainError,
    NumericalError,
    RootConditioning,
    UnsupportedDegree,
)
from overflow_lab.maps import DiskMap, parse_map
from overflow_lab.overflow import (
    nevanlinna_bound_check,
    overflow_definitional_oracle,
    overflow_to_C,
    overflow_to_P1,
    polynomial_asymptotics,
)
from overflow_lab.quadrature import QuadratureSettings

FAST = QuadratureSettings(base_grid=64, tol=1e-6, max_depth=9)
TIGHT = QuadratureSettings(base_grid=64, tol=1e-9, max_depth=10)


def random_polynomial(rng, max_degree=5):
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = rng.normal(size=degree + 1).round(3)
    coeffs[degree] = coeffs[degree] if abs(coeffs[degree]) > 0.2 else 1.0
    if all(abs(c) < 1e-9 for c in coeffs[1:]):
        coeffs[1] = 1.0
    return DiskMap(tuple(float(c) for c in coeffs))


class TestExplicitC:
    def test_linear_isomorphism(self):
        for c in (1.0, 2.5, -3.0):
            got = overflow_to_C(DiskMap((0, c)), 1.0, FAST)
            assert got.value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_power_family_vanishes(self, k, r):
        alpha = DiskMap((0,) * k + (1,))
        got = overflow_to_C(alpha, r, FAST)
        assert got.value == pytest.approx(0.0, abs=1e-10)

    def test_cubic_large_radius_asymptotic(self):
        got = overflow_to_C(parse_map("z^3+z"), 10.0, FAST)
        assert got.value == pytest.approx(2 * math.log(10), rel=0.05)

    def test_rejects_constant(self):
        with pytest.raises(ConstantMap):
            overflow_to_C(DiskMap((4,)), 1.0, FAST)

    def test_rejects_rational(self):
        with pytest.raises(DomainError):
            overflow_to_C(parse_map("1/(z+2)"), 1.0, FAST)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            alpha = random_polynomial(rng, max_degree=4)
            r = float(rng.uniform(0.5, 2.5))
            lhs = overflow_to_C(alpha, r, FAST).value
            rhs = overflow_to_C(alpha.scaled(r), 1.0, FAST).value
            assert lhs == pytest.approx(rhs, abs=1e-5)


class TestDefinitionalOracle:
    def test_square_vanishes(self):
        got = overflow_definitional_oracle(DiskMap((0, 0, 1)), 1.0, FAST)
        assert got.value == pytest.approx(0.0, abs=1e-10)
        # the whole fiber sits on the circle: conservatively flagged
        assert got.boundary_tangency

    def test_injective_quadratic(self):
        got = overflow_definitional_oracle(parse_map("z^2+2*z"), 1.0, FAST)
        assert got.value == pytest.approx(0.0, abs=1e-8)

    def test_cross_check_small_perturbation(self):
        alpha = parse_map("z^2-z/10")
        explicit = overflow_to_C(alpha, 1.0, FAST).value
        oracle = overflow_definitional_oracle(alpha, 1.0, FAST)
        assert explicit > 0
        assert oracle.value == pytest.approx(explicit, abs=1e-4)

    def test_degree_bound(self):
        with pytest.raises(UnsupportedDegree):
            overflow_definitional_oracle(DiskMap((0,) + (0,) * 8 + (1,)), 1.0, FAST)

    def test_random_corpus_agreement(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(25):
            alpha = random_polynomial(rng)
            for r in (0.5, 1.0, 2.0):
                oracle = overflow_definitional_oracle(alpha, r, FAST)
                if oracle.boundary_tangency:
                    continue
                explicit = overflow_to_C(alpha, r, FAST).value
                assert oracle.value == pytest.approx(explicit, abs=1e-4)
                assert explicit >= -1e-5
                checked += 1
        assert checked >= 40


ORACLE_TIGHT = QuadratureSettings(base_grid=64, tol=1e-8, max_depth=11)


@contextlib.contextmanager
def full_lattice_cold_start():
    """The oracle's boundary term on full lattices, every root batch cold."""
    circle_mean, batched = overflow.circle_mean, overflow._batched_roots
    with pytest.MonkeyPatch.context() as m:
        m.setattr(overflow, "circle_mean",
                  lambda values, settings, label, even=False: circle_mean(values, settings, label))
        m.setattr(overflow, "_batched_roots", lambda coeffs, start=None: batched(coeffs))
        yield


@pytest.fixture()
def node_counts(monkeypatch):
    """Lattice lengths the oracle's boundary term is evaluated on."""
    lengths = []
    circle_mean = overflow.circle_mean

    def spy(values, settings, label, even=False):
        def counted(ts):
            lengths.append(len(ts))
            return values(ts)

        return circle_mean(counted, settings, label, even)

    monkeypatch.setattr(overflow, "circle_mean", spy)
    return lengths


class TestHalvedWarmOracle:
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_matches_full_lattice_cold_start(self, degree):
        rng = np.random.default_rng(400 + degree)
        for _ in range(2):
            coeffs = rng.integers(-3, 4, size=degree + 1).astype(float)
            coeffs[degree] = rng.choice([-2.0, -1.0, 1.0, 3.0])
            coeffs[1] = coeffs[1] or 1.0
            alpha = DiskMap(tuple(coeffs))
            r = float(rng.uniform(0.5, 2.5))
            got = overflow_definitional_oracle(alpha, r, ORACLE_TIGHT)
            with full_lattice_cold_start():
                want = overflow_definitional_oracle(alpha, r, ORACLE_TIGHT)
            assert abs(got.value - want.value) <= 1e-13
            assert got.certificate.grid == want.certificate.grid
            assert got.boundary_tangency == want.boundary_tangency

    @pytest.mark.parametrize("coeffs,fraction", [((0, 1, 0.5j), 1), ((0, 1, 0.5), 2)],
                             ids=["complex", "real"])
    def test_only_real_maps_halve_the_lattice(self, coeffs, fraction, node_counts):
        alpha = DiskMap(coeffs)
        oracle = overflow_definitional_oracle(alpha, 1.0, FAST)
        grids = [64 * 2**k for k in range(len(node_counts))]
        assert node_counts == [n // fraction for n in grids]
        assert grids[-1] == oracle.certificate.grid
        # criterion 2
        assert not oracle.boundary_tangency
        assert oracle.value == pytest.approx(overflow_to_C(alpha, 1.0, FAST).value, abs=1e-4)

    def test_levels_start_from_the_previous_level(self, monkeypatch):
        starts, found = [], []
        batched = overflow._batched_roots

        def spy(coeffs, start=None):
            starts.append(start)
            found.append(batched(coeffs, start))
            return found[-1]

        monkeypatch.setattr(overflow, "_batched_roots", spy)
        fibers = overflow._BoundaryFibers(parse_map("z^3+z"), 1.5)
        for n in (8, 16, 24):
            fibers((np.arange(n) + 0.5) / (2 * n))
        assert starts[0] is None
        np.testing.assert_array_equal(starts[1], found[0][np.arange(16) // 2])
        assert starts[2] is None


def assert_same_multiset(got, want, rel):
    """Each root of want is matched by its own root of got within rel * |root|."""
    unused = list(got)
    for w in sorted(want, key=abs, reverse=True):
        k = int(np.argmin([abs(g - w) for g in unused]))
        assert abs(unused.pop(k) - w) <= rel * abs(w)


def assert_residual_contract(coeffs, roots):
    monic = coeffs / coeffs[:, :1]
    d = monic.shape[1] - 1
    residual = np.array([np.polyval(m, z) for m, z in zip(monic, roots)])
    scale = np.max(np.abs(monic), axis=1)[:, None] * np.maximum(1.0, np.abs(roots)) ** d
    assert np.all(np.abs(residual) <= overflow.ROOT_RESIDUAL_TOL * scale)


@pytest.fixture()
def rescued(monkeypatch):
    """The monic rows that reach the companion-matrix rescue step."""
    seen = []
    companion = overflow._companion_roots

    def spy(monic):
        seen.extend(monic)
        return companion(monic)

    monkeypatch.setattr(overflow, "_companion_roots", spy)
    return seen


RESCUE_ROWS = {
    "triple root": np.poly([2.0, 2.0, 2.0, -1.0, 0.5j]),
    "(z-1)^8": np.poly([1.0] * 8),
    "zero constant term": [1.0, 2.0, -3.0, 1.0, 0.0],
    "moduli 1e-6, 1, 1e6": np.poly([1e-6, 1.0, 1e6]),
}


class TestBatchedRoots:
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_random_batches_match_np_roots(self, degree, rescued):
        rng = np.random.default_rng(100 + degree)
        batch = rng.normal(size=(200, degree + 1)) + 1j * rng.normal(size=(200, degree + 1))
        got = overflow._batched_roots(batch)
        for row, roots in zip(batch, got):
            assert_same_multiset(roots, np.roots(row), rel=1e-12)
        assert rescued == []

    @pytest.mark.parametrize("name", RESCUE_ROWS)
    def test_uncertified_rows_take_the_rescue_step(self, name, rescued):
        row = np.asarray(RESCUE_ROWS[name], dtype=complex)
        rng = np.random.default_rng(7)
        generic = rng.normal(size=(2, len(row))) + 1j * rng.normal(size=(2, len(row)))
        batch = np.array([generic[0], 2.0 * row, generic[1]])
        roots = overflow._batched_roots(batch)
        assert len(rescued) == 1
        np.testing.assert_array_equal(rescued[0], row / row[0])
        assert_residual_contract(batch, roots)

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_warm_starts_meet_the_residual_contract(self, degree, rescued):
        rng = np.random.default_rng(300 + degree)
        batch = rng.normal(size=(200, degree + 1)) + 1j * rng.normal(size=(200, degree + 1))
        nearby = batch + 1e-3 * (rng.normal(size=batch.shape) + 1j * rng.normal(size=batch.shape))
        got = overflow._batched_roots(nearby, start=overflow._batched_roots(batch))
        assert_residual_contract(nearby, got)
        for row, roots in zip(nearby, got):
            assert_same_multiset(roots, np.roots(row), rel=1e-12)
        assert rescued == []

    def test_coinciding_starts_take_the_rescue_step(self, rescued):
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        start = overflow._batched_roots(batch)
        start[1, 1] = start[1, 0]
        roots = overflow._batched_roots(batch, start=start)
        assert len(rescued) == 1
        np.testing.assert_array_equal(rescued[0], batch[1] / batch[1, 0])
        assert_residual_contract(batch, roots)

    def test_non_finite_monic_rows_raise(self):
        with pytest.raises(NumericalError, match="monic"):
            overflow._batched_roots(np.array([[1e-300, 1e10, 1.0]], dtype=complex))

    def test_residual_evaluated_once_without_polish_step(self, monkeypatch):
        calls = []
        polyval = overflow._polyval_batch

        def spy(coeffs, z):
            calls.append(coeffs.shape[1])
            return polyval(coeffs, z)

        monkeypatch.setattr(overflow, "_polyval_batch", spy)
        rng = np.random.default_rng(11)
        overflow._batched_roots(rng.normal(size=(50, 6)) + 1j * rng.normal(size=(50, 6)))
        assert calls == [6]

    def test_residual_contract_rejects_bad_rescue_roots(self, monkeypatch):
        def nothing_certified(monic, start=None):
            return np.zeros((len(monic), monic.shape[1] - 1), dtype=complex), np.zeros(len(monic), bool)

        monkeypatch.setattr(overflow, "_aberth_roots", nothing_certified)
        monkeypatch.setattr(overflow, "_companion_roots", lambda monic: np.full(3, 1e6 + 0j)[None])
        with pytest.raises(RootConditioning):
            overflow._batched_roots(np.poly([1.0, 2.0, 3.0]).astype(complex)[None])

    @settings(max_examples=200, deadline=None)
    @given(
        lead=st.complex_numbers(min_magnitude=0.5, max_magnitude=10.0),
        rest=st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=8),
    )
    def test_roots_rebuild_the_coefficients(self, lead, rest):
        coeffs = np.array([[lead, *rest]], dtype=complex)
        roots = overflow._batched_roots(coeffs)
        rebuilt = overflow._monic_from_roots(roots)[0]
        # the certification bound: rounding in the product expansion grows like prod(1 + |z_k|)
        bound = overflow.ROOT_RESIDUAL_TOL * np.prod(1.0 + np.abs(roots))
        assert np.all(np.abs(rebuilt - coeffs[0] / lead) <= bound)


class TestP1:
    @pytest.mark.parametrize("expr", ["z", "z^2", "(z-2)/(z+2)"])
    def test_injective_or_ramified_vanish(self, expr):
        got = overflow_to_P1(parse_map(expr), 1.0, FAST)
        assert got.value == pytest.approx(0.0, abs=1e-4)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            alpha = random_polynomial(rng, max_degree=3)
            got = overflow_to_P1(alpha, 1.0, FAST)
            assert got.value >= -1e-5

    # (a, b, c, d) of the Moebius map (a w + b)/(c w + d); the poles of
    # m(z^k) sit at moduli 0.5^(1/k) and 2^(1/k), so across k and r they
    # fall inside and outside the disk
    @pytest.mark.parametrize("a,b,c,d", [(-3, -1, 2, 1), (1, -2, 1, 2)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_moebius_of_power_vanishes(self, a, b, c, d, k):
        # a Moebius map of the target leaves the P1 excess unchanged, and
        # z^k has excess 0
        pad = (0,) * (k - 1)
        alpha = DiskMap((b, *pad, a), (d, *pad, c))
        for r in (0.6, 1.0, 1.5, 1.9):
            assert overflow_to_P1(alpha, r, FAST).value == pytest.approx(0.0, abs=1e-9)

    def test_polynomial_report_equals_target_c(self):
        rng = np.random.default_rng(43)
        for _ in range(4):
            alpha = random_polynomial(rng, max_degree=4)
            r = float(rng.uniform(0.5, 2.0))
            p1 = overflow_to_P1(alpha, r, FAST).as_dict()
            c = overflow_to_C(alpha, r, FAST).as_dict()
            assert p1.pop("target") == "P1" and c.pop("target") == "C"
            assert p1 == c

    @pytest.mark.parametrize("expr,r", [
        ("z^2", 1.0), ("z+z^2/4", 1.0), ("2*z^3+5", 1.5),
        ("(2*z+1)/(z/4+1)", 1.0), ("(z+1/2)/(z^2/8+1)", 1.0),
        ("(3*z-1)/(z+4)", 2.0), ("(z^2+3)/(z^2/9+1)", 1.0),
    ])
    def test_matches_characteristic_route(self, expr, r):
        # the bound check still computes 2T(r) - kernel - log(jet norm)
        alpha = parse_map(expr)
        got = overflow_to_P1(alpha, r, TIGHT).value
        assert got == pytest.approx(nevanlinna_bound_check(alpha, r, TIGHT).excess, abs=1e-7)


class TestNevanlinnaBound:
    def test_identity_closed_form(self):
        bc = nevanlinna_bound_check(DiskMap((0, 1)), 1.0, FAST)
        assert bc.excess == pytest.approx(0.0, abs=1e-8)
        assert bc.bound == pytest.approx(math.log(2), abs=1e-8)
        assert bc.slack == pytest.approx(math.log(2), abs=1e-6)

    def test_square_slack_nonnegative(self):
        bc = nevanlinna_bound_check(DiskMap((0, 0, 1)), 1.0, FAST)
        assert bc.slack >= -1e-6

    def test_corpus_slack_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            alpha = random_polynomial(rng, max_degree=4)
            bc = nevanlinna_bound_check(alpha, 1.0, FAST)
            assert bc.slack >= -1e-5
            assert bc.excess <= bc.bound + 1e-9

    def test_moebius_with_interior_pole_vanishes(self):
        # a Moebius map has excess 0; its pole -1/2 lies inside the disk
        bc = nevanlinna_bound_check(parse_map("(-1-3*z)/(2*z+1)"), 1.9)
        assert bc.excess == pytest.approx(0.0, abs=1e-8)

    def test_kernel_takes_one_circle_mean_and_one_torus_integral(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(quadrature, "circle_mean", spy("circle", quadrature.circle_mean))
        monkeypatch.setattr(overflow, "circle_mean", spy("circle", overflow.circle_mean))
        monkeypatch.setattr(overflow, "torus_pair_log_integral",
                            spy("torus", overflow.torus_pair_log_integral))
        overflow._characteristic_and_kernel(parse_map("(z+1/2)/(z^2/8+1)"), 1.0, FAST)
        assert sorted(calls) == ["circle", "torus"]


def sweep_fit(alpha, radii):
    return polynomial_asymptotics(radii, [overflow_to_C(alpha, r, FAST).value for r in radii])


class TestAsymptotics:
    def test_monomial_flat(self):
        fit = sweep_fit(DiskMap((0, 0, 0, 1)), [10.0, 100.0, 1000.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-6)
        assert fit.intercept == pytest.approx(0.0, abs=1e-5)

    def test_cubic(self):
        fit = sweep_fit(parse_map("z^3+z"), [10.0, 100.0, 1000.0])
        assert fit.slope == pytest.approx(2.0, rel=0.01)
        assert fit.intercept == pytest.approx(0.0, abs=0.05)

    def test_quartic_with_coefficients(self):
        fit = sweep_fit(parse_map("2*z^4+3*z"), [10.0, 100.0, 1000.0])
        assert fit.slope == pytest.approx(3.0, rel=0.01)
        assert fit.intercept == pytest.approx(-math.log(1.5), abs=0.05)

    def test_fits_the_given_values(self):
        radii = [0.5, 1.0, 1.5]
        values = [1.0 - 2.0 * math.log(r) for r in radii]
        fit = polynomial_asymptotics(radii, values)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.max_residual <= 1e-12
        assert fit.values == tuple(values)

    def test_requires_increasing(self):
        with pytest.raises(DomainError):
            polynomial_asymptotics([10.0, 5.0], [1.0, 2.0])

    def test_requires_one_value_per_radius(self):
        with pytest.raises(DomainError):
            polynomial_asymptotics([1.0, 2.0, 3.0], [1.0, 2.0])
