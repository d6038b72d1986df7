import contextlib
import json
import math
import tracemalloc
from pathlib import Path

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
    log_plus_mean,
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
        # z^9 + z is no polynomial in a power of z, so the bound judges degree 9
        with pytest.raises(UnsupportedDegree):
            overflow_definitional_oracle(DiskMap((0, 1) + (0,) * 7 + (1,)), 1.0, FAST)

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
                  lambda values, settings, label, even=False, correction=None:
                  circle_mean(values, settings, label, correction=correction))
        m.setattr(overflow, "_batched_roots",
                  lambda coeffs, start=None: batched(coeffs))
        yield


@pytest.fixture()
def node_counts(monkeypatch):
    """Lattice lengths the oracle's boundary term is evaluated on."""
    lengths = []
    circle_mean = overflow.circle_mean

    def spy(values, settings, label, even=False, correction=None):
        def counted(ts):
            lengths.append(len(ts))
            return values(ts)

        return circle_mean(counted, settings, label, even, correction)

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
        # node k of 16 starts from the roots w of old node k // 2, each moved
        # by alpha'(z') / alpha'(w) (z - z') along its fiber
        z = 1.5 * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 32)
        z_old = 1.5 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 16)[np.arange(16) // 2]
        w = found[0][np.arange(16) // 2]
        predicted = w + (3 * z_old**2 + 1)[:, None] / (3 * w**2 + 1) * (z - z_old)[:, None]
        np.testing.assert_allclose(starts[1], predicted, rtol=1e-14)
        # which lands closer to each root it converges to than w itself
        assert np.all(np.abs(starts[1] - found[1]) < np.abs(w - found[1]))
        assert starts[2] is None


class TestFiberChecks:
    def test_tangency_at_a_node_sets_the_flag(self):
        # alpha = z^2 + c z has the nontrivial fiber root -z - c, on the unit
        # circle exactly where 2 cos(theta) = -c: node 3 of 32
        c = -2.0 * math.cos(2.0 * math.pi * 3.5 / 32)
        fibers = overflow._BoundaryFibers(DiskMap((0.0, c, 1.0)), 1.0)
        for n in (32, 64, 128):  # the first halves of warm midpoint levels
            fibers((np.arange(n // 2) + 0.5) / n)
        assert fibers.tangent

    def test_coinciding_start_is_rescued(self, rescued):
        alpha, r = parse_map("z^3+z"), 1.5
        nodes = (np.arange(16) + 0.5) / 16
        want = overflow._BoundaryFibers(alpha, r)(nodes)
        fibers = overflow._BoundaryFibers(alpha, r)
        fibers((np.arange(8) + 0.5) / 8)
        # old node 5 starts new nodes 10 and 11
        fibers._roots[5, 1] = fibers._roots[5, 0]
        rescued.clear()
        got = fibers(nodes)
        rows = np.tile(overflow._poly_coeffs_desc(alpha), (2, 1))
        rows[:, -1] -= alpha(r * np.exp(2j * np.pi * nodes[10:12]))
        assert len(rescued) == 1
        np.testing.assert_array_equal(rescued[0], rows)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_a_level_is_one_root_batch(self, monkeypatch):
        batches = []
        batched = overflow._batched_roots

        def spy(coeffs, start=None):
            batches.append(len(coeffs))
            return batched(coeffs, start)

        monkeypatch.setattr(overflow, "_batched_roots", spy)
        fibers = overflow._BoundaryFibers(parse_map("2-2*z+2*z^4-z^6-z^8"), 1.871)
        fibers((np.arange(2048) + 0.5) / 2048)  # 16384 fiber roots
        assert batches == [2048]

    def test_predictor_keeps_the_root_where_the_derivative_vanishes(self):
        # alpha = z^3 - 3z; over z' = -2 the fiber is 1 (double, alpha'(1) = 0) and -2
        deriv = np.array([3.0, 0.0, -3.0], dtype=complex)
        roots = np.array([[1.0, 1.0, -2.0]], dtype=complex)
        z_new = np.array([-2.0 + 0.01j, -2.0 - 0.01j])
        start = overflow._predicted_start(deriv, roots, np.array([-2.0 + 0j]), z_new,
                                          np.array([0, 0]))
        assert np.all(np.isfinite(start))
        np.testing.assert_array_equal(start[:, :2], np.ones((2, 2)))
        # the simple root moves by alpha'(-2) / alpha'(-2) (z - z') = z - z'
        np.testing.assert_allclose(start[:, 2], z_new, rtol=1e-15)

    def test_warm_levels_certify_by_newton(self, rescued):
        # term1's row and the first half-lattice level are cold; every later
        # level's rows certify by Newton from their predicted starts
        report = overflow_definitional_oracle(parse_map("2-2*z+2*z^4-z^6-z^8"), 1.871,
                                              ORACLE_TIGHT)
        assert report.certificate.grid > 128
        assert [len(rows) for rows in rescued] == [1, 32]

    def test_oracle_memory_is_bounded_by_the_top_level(self):
        # the level's roots, the previous level's, the node sums and the work
        # temporaries of its one root batch span the level, about 10x its roots
        # array; at the 256 nodes accepted here that fits the fixed 2 MiB
        alpha = parse_map("2-2*z+2*z^4-z^6-z^8")
        tracemalloc.start()
        try:
            report = overflow_definitional_oracle(alpha, 1.871, ORACLE_TIGHT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        top_roots = (report.certificate.grid // 2) * 8 * 16  # half lattice, complex128
        assert peak <= 4 * top_roots + 2 * 2**20


def lattice_kink_error(g, r=1.0, deriv=(1.0,)):
    """What _lattice_kinks reads off branches with the given values of
    g = log(r/|w|) (nodes x branches) on the periodic n-node midpoint lattice,
    as a midpoint error; each root w = r e^-g sits on the positive real axis,
    and ``deriv`` (alpha' in descending order) only steers the matching."""
    roots = r * np.exp(-np.asarray(g, dtype=float)).astype(complex)
    return overflow._lattice_kinks(np.array(deriv, dtype=complex), roots, midpoints(len(g)),
                                   r, len(g))


def midpoints(n, shift=0.0):
    return (np.arange(n) + 0.5 + shift) / n


class TestKinkCorrection:
    @pytest.mark.parametrize("shift", [0.0, 0.2, 0.45, 0.7])
    def test_sine_kink_within_1e12_at_64_nodes(self, shift):
        # max(0, sin 2 pi t - 0.3), its crossings anywhere between two nodes
        a = 0.3
        exact = (2 * math.sqrt(1 - a * a) / (2 * math.pi)
                 - a * (0.5 - math.asin(a) / math.pi))
        g = np.sin(2 * np.pi * (midpoints(64) - shift / 64)) - a
        raw = float(np.mean(np.maximum(g, 0.0)))
        assert abs(raw - exact) > 1e-5
        assert abs(raw - lattice_kink_error(g[:, None]) - exact) <= 1e-12

    def test_pair_of_crossings_inside_one_cell(self):
        # g = 1 - cos 2 pi (t - c) - delta dips below 0 on |t - c| < w only,
        # a window inside one cell that no node sees
        n = 64
        c, w = 10.0 / n, 0.3 / n
        delta = 1.0 - math.cos(2 * math.pi * w)
        exact = (1.0 - delta) - (2 * w * (1.0 - delta) - math.sin(2 * math.pi * w) / math.pi)
        g = 1.0 - np.cos(2 * np.pi * (midpoints(n) - c)) - delta
        assert np.all(g > 0)
        raw = float(np.mean(g))
        assert abs(raw - exact) > 1e-6
        assert abs(raw - lattice_kink_error(g[:, None]) - exact) <= 1e-12

    def test_coinciding_branches_leave_the_level_uncorrected(self):
        # two branches on top of each other cannot be told apart at the crossing
        g = np.sin(2 * np.pi * midpoints(64)) - 0.3
        assert lattice_kink_error(np.stack([g, g], axis=1)) is None

    @pytest.mark.parametrize("shift,ambiguous", [(0.2, False), (0.3, True)])
    def test_a_match_needs_a_margin(self, shift, ambiguous):
        # with alpha' = 0 the predictor leaves each root where it was: root 0
        # is matched to the root at distance `shift`, the other one 1 - shift
        # farther, and the match is ambiguous unless that is 4 times farther
        roots = np.array([[0.0, 1.0], [shift, 1.0]], dtype=complex)
        nxt, flags = overflow._branch_steps(np.array([0j]), roots, np.array([1.0, 1j]))
        assert nxt.tolist() == [[0, 1]]
        assert flags.tolist() == [[ambiguous, False]]

    def test_far_branches_need_no_correction(self):
        g = 1.0 + 0.5 * np.cos(2 * np.pi * midpoints(64))
        assert lattice_kink_error(np.stack([g, -g], axis=1)) == 0.0

    @pytest.mark.parametrize("s", [1.0, np.exp(0.6j), 0.9 * np.exp(0.2j), 1.1 * np.exp(-2j)])
    def test_log_spike_error_is_exact(self, s):
        n = 64
        lattice = -float(np.mean(np.log(np.abs(1 - s * np.exp(-2j * np.pi * midpoints(n))))))
        integral = -math.log(max(1.0, abs(s)))
        got = overflow._log_spike_error(np.array([s]), n)
        assert got == pytest.approx(lattice - integral, abs=1e-15)

    def test_real_maps_fold_the_lattice_into_the_same_correction(self):
        # the half lattice of a real map, mirrored, against its full lattice
        alpha, r = parse_map("2-2*z+2*z^4-z^6-z^8"), 1.871
        half, full = overflow._BoundaryFibers(alpha, r), overflow._BoundaryFibers(alpha, r)
        half(midpoints(256)[:128])
        full(midpoints(256))
        assert half.kink_correction(256) == pytest.approx(full.kink_correction(256), abs=1e-15)

    @pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
    def test_crossings_in_the_fold_cells(self, half):
        # g = cos 4 pi t - cos 4 pi c, even in t, crosses at +-c and 1/2 +- c,
        # inside the cells around the folds t = 0 and t = 1/2
        n, c = 256, 0.3 / 256
        u = 2 * c
        exact = math.sin(2 * math.pi * u) / math.pi - 2 * u * math.cos(2 * math.pi * u)
        ts = midpoints(n)[: n // 2] if half else midpoints(n)
        g = np.cos(4 * np.pi * ts) - math.cos(4 * np.pi * c)
        fibers = overflow._BoundaryFibers(parse_map("z^2+z"), 1.0)
        fibers._nodes, fibers._branches = ts, np.exp(-g)[:, None].astype(complex)
        fibers.origin_fiber = np.empty(0, dtype=complex)  # no log spike
        raw = float(np.mean(np.maximum(g, 0.0)))
        assert abs(raw - exact) > 1e-7
        assert abs(raw - fibers.kink_correction(n) - exact) <= 1e-12


REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "oracle_reference.json").read_text())

#: How closely the reference table's tol-1e-11 ladder values are trusted.
REFERENCE_ERROR = 1e-10


def reference_entries(names=None):
    return [pytest.param(e, id=f"{e['map']}@{e['radius']}") for e in REFERENCE["entries"]
            if names is None or e["map"] in names]


class TestOracleReference:
    @pytest.mark.parametrize("name", ["defaults", "criterion_7", "oracle_tight"])
    def test_certificates_bound_the_error(self, name):
        cfg = REFERENCE["settings"][name]
        settings = QuadratureSettings(cfg["grid"], cfg["tol"], cfg["depth"])
        checked = 0
        for entry in REFERENCE["entries"]:
            got = overflow_definitional_oracle(parse_map(entry["map"]), entry["radius"], settings)
            if got.boundary_tangency:
                continue
            error = abs(got.value - entry["reference"]["value"])
            assert error <= got.certificate.achieved + REFERENCE_ERROR, entry["map"]
            checked += 1
        assert checked >= 50

    def test_the_reference_ladder_overclaims_at_the_defaults(self):
        # the table's own record of the Richardson ladder that the corrected
        # levels replace: two unflagged reports off by more than their tol
        over = [e["map"] for e in REFERENCE["entries"]
                if not e["defaults"]["boundary_tangency"]
                and abs(e["defaults"]["value"] - e["reference"]["value"]) > 1e-6]
        assert sorted(over) == ["-3-2*z^2-3*z^3", "1+2*z+3*z^2"]

    @pytest.mark.parametrize("entry", reference_entries({"z^2+z"}))
    @pytest.mark.parametrize("name", ["defaults", "oracle_tight"])
    def test_log_spike_on_the_circle_matches_the_reference(self, entry, name):
        # a fiber root passes through 0 over the boundary point -1: flagged by
        # term1's tangency, and corrected in closed form all the same
        cfg = REFERENCE["settings"][name]
        settings = QuadratureSettings(cfg["grid"], cfg["tol"], cfg["depth"])
        got = overflow_definitional_oracle(parse_map(entry["map"]), entry["radius"], settings)
        assert got.boundary_tangency
        error = abs(got.value - entry["reference"]["value"])
        assert error <= got.certificate.achieved + REFERENCE_ERROR

    @pytest.mark.parametrize("entry", reference_entries({"-3+3*z^2", "1-3*z^2"}))
    def test_even_maps_match_the_reference(self, entry):
        got = overflow_definitional_oracle(parse_map(entry["map"]), entry["radius"])
        assert got.value == pytest.approx(entry["reference"]["value"], abs=1e-15)
        assert got.boundary_tangency


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
    """The batches of monic rows that reach companion-matrix eigenvalues,
    one per call."""
    seen = []
    companion = overflow.companion_roots

    def spy(monic):
        seen.append(monic)
        return companion(monic)

    monkeypatch.setattr(overflow, "companion_roots", spy)
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
        # a cold batch reaches eigenvalues in one call
        assert len(rescued) == 1
        np.testing.assert_array_equal(rescued[0], batch / batch[:, :1])

    @pytest.mark.parametrize("name", RESCUE_ROWS)
    def test_uncertified_rows_take_the_rescue_step(self, name, rescued):
        row = np.asarray(RESCUE_ROWS[name], dtype=complex)
        rng = np.random.default_rng(7)
        generic = rng.normal(size=(2, len(row))) + 1j * rng.normal(size=(2, len(row)))
        batch = np.array([generic[0], 2.0 * row, generic[1]])
        roots = overflow._batched_roots(batch)
        # a cold batch, hard rows and all, takes eigenvalues in one call
        assert len(rescued) == 1
        np.testing.assert_array_equal(rescued[0], batch / batch[:, :1])
        assert_residual_contract(batch, roots)

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_warm_starts_meet_the_residual_contract(self, degree, rescued):
        rng = np.random.default_rng(300 + degree)
        batch = rng.normal(size=(200, degree + 1)) + 1j * rng.normal(size=(200, degree + 1))
        nearby = batch + 1e-3 * (rng.normal(size=batch.shape) + 1j * rng.normal(size=batch.shape))
        start = overflow._batched_roots(batch)
        rescued.clear()
        got = overflow._batched_roots(nearby, start=start)
        assert_residual_contract(nearby, got)
        for row, roots in zip(nearby, got):
            assert_same_multiset(roots, np.roots(row), rel=1e-12)
        # Newton certifies every warm row
        assert rescued == []

    def test_coinciding_starts_take_the_rescue_step(self, rescued):
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        start = overflow._batched_roots(batch)
        start[1, 1] = start[1, 0]
        rescued.clear()
        roots = overflow._batched_roots(batch, start=start)
        # exactly the row whose starts coincide
        assert len(rescued) == 1
        np.testing.assert_array_equal(rescued[0], batch[1:2] / batch[1, 0])
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
        monkeypatch.setattr(overflow, "companion_roots", lambda monic: np.full(3, 1e6 + 0j)[None])
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
        # the certification bound: rounding in the product expansion grows like prod(1 + |z_k|)
        assert quadrature.roots_rebuild(coeffs / lead, roots, overflow.ROOT_RESIDUAL_TOL)[0]


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
            p1, c = overflow_to_P1(alpha, r, FAST), overflow_to_C(alpha, r, FAST)
            p1, c = ({name: getattr(report, name) for name in report._fields}
                     for report in (p1, c))
            assert p1.pop("target") == "P1" and c.pop("target") == "C"
            assert p1 == c

    @pytest.mark.parametrize("expr,r", [
        ("z^2", 1.0), ("z+z^2/4", 1.0), ("2*z^3+5", 1.5),
        ("(2*z+1)/(z/4+1)", 1.0), ("(z+1/2)/(z^2/8+1)", 1.0),
        ("(3*z-1)/(z+4)", 2.0), ("(z^2+3)/(z^2/9+1)", 1.0),
    ])
    def test_matches_characteristic_route(self, expr, r):
        # 2T(r) - kernel - log(jet norm), built here from its parts: the kernel
        # is the double integral of the projective diagonal Green function
        # -log|p(t) q(s) - q(t) p(s)| + (1/2) log|(p, q)(t)|^2 + (1/2) log|(p, q)(s)|^2
        alpha = parse_map(expr)

        def boundary(ts):
            return alpha.num_den_at(r * np.exp(2j * np.pi * ts))

        def log_norm(ts):
            p, q = boundary(ts)
            return np.log(np.abs(p) ** 2 + np.abs(q) ** 2)

        cross, _ = quadrature.torus_pair_log_integral(boundary, TIGHT)
        kernel = quadrature.circle_mean(log_norm, TIGHT)[0] - cross
        t_char = quadrature.nevanlinna_T(alpha, r, "boundary", TIGHT)
        a0 = abs(complex(alpha.value_at_zero()))
        jet_norm = abs(complex(alpha.jet())) * r ** alpha.ramification_index() / (1 + a0 * a0)
        want = 2.0 * t_char - kernel - math.log(jet_norm)
        assert overflow_to_P1(alpha, r, TIGHT).value == pytest.approx(want, abs=1e-7)


#: Settings of the exact-invariance checks: the explicit route accepts
#: grids up to 131072 here, which its Graeffe inner sums make cheap.
INVARIANT = QuadratureSettings(base_grid=64, tol=1e-8, max_depth=12)


class TestExactInvariances:
    """Identities of the excess that need no reference table."""

    @pytest.mark.parametrize("pulled,r,base", [
        ("1+2*z^2-z^6", 1.1, "1+2*z-z^3"),
        ("2-z^4+z^8", 1.05, "2-z+z^2"),
        # degree 15: the oracle's degree bound judges the reduced map
        ("1+z^5+3*z^15", 0.97, "1+z+3*z^3"),
    ])
    def test_pull_back_by_a_power(self, pulled, r, base):
        # alpha = P0(z^K): the torus substitution gives cross(alpha, r) =
        # cross(P0, r^K), and e(alpha) = K e(P0) with the same jet, so the
        # excess of alpha at r is that of P0 at r^K; the reduction drops P0's
        # constant term, which cancels in both routes
        alpha, p0 = parse_map(pulled), parse_map(base)
        reduced, k, radius = overflow._power_reduction(alpha, r)
        assert (reduced, radius) == (DiskMap((0,) + p0.num[1:]), r**k)
        for route in (overflow_to_C, overflow_definitional_oracle):
            want = route(p0, r**k, INVARIANT).value
            assert route(alpha, r, INVARIANT).value == pytest.approx(want, rel=0,
                                                                     abs=INVARIANT.tol)

    @pytest.mark.parametrize("pulled,r,base", [
        ("1+2*z^2-z^6", 1.1, "1+2*z-z^3"),
        ("(z^2+3)/(z^2/9+1)", 1.0, "(z+3)/(z/9+1)"),
    ])
    def test_kernel_on_the_unreduced_boundary(self, pulled, r, base):
        # both routes integrate P0 at r^2; the torus rule on alpha's own
        # boundary at n nodes is P0's rule at n/2 nodes, each node twice
        got, cert = overflow._boundary_cross(parse_map(pulled), r,
                                             QuadratureSettings(128, 1e-6, 8))
        want, want_cert = overflow._boundary_cross(parse_map(base), r**2,
                                                   QuadratureSettings(64, 1e-6, 8))
        assert cert.grid == 2 * want_cert.grid
        assert got == pytest.approx(want, rel=0, abs=1e-13)

    def test_oracle_takes_the_fibers_of_the_base_map(self, monkeypatch):
        # alpha = -3 + 3 z^2 = P0(z^2): the fibers solved are those of P0 less
        # its constant term at r^2, and the report keeps alpha's radius and e,
        # and the tangency of alpha's fiber root -z, on the circle at every node
        built = []
        fibers = overflow._BoundaryFibers

        def spy(map_, radius):
            built.append((map_, radius))
            return fibers(map_, radius)

        monkeypatch.setattr(overflow, "_BoundaryFibers", spy)
        report = overflow_definitional_oracle(parse_map("-3+3*z^2"), 2.163, FAST)
        assert built == [(parse_map("3*z"), 2.163**2)]
        assert (report.radius, report.ramification_index) == (2.163, 2)
        assert report.boundary_tangency
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_rotation_of_the_sphere(self):
        # R(w) = (3w/5 + 4/5)/(-4w/5 + 3/5) is a rotation of the Riemann sphere:
        # the chordal kernel, T(r) and the jet norm are invariant, so R o alpha
        # has the P1 excess of alpha, through the rational path of the kernel
        alpha = parse_map("1+2*z-z^3")
        rotated = DiskMap(tuple(3 * c + 4 * (k == 0) for k, c in enumerate(alpha.num)),
                          tuple(-4 * c + 3 * (k == 0) for k, c in enumerate(alpha.num)))
        assert (rotated.num, rotated.den) == ((7, 6, 0, -3), (-1, -8, 0, 4))
        want = overflow_definitional_oracle(alpha, 1.1, INVARIANT).value
        for map_ in (rotated, alpha):
            got = overflow_to_P1(map_, 1.1, INVARIANT).value
            assert got == pytest.approx(want, rel=0, abs=INVARIANT.tol)


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
        nevanlinna_bound_check(parse_map("(z+1/2)/(z^2/8+1)"), 1.0, FAST)
        assert sorted(calls) == ["circle", "torus"]

    def test_excess_is_the_p1_report(self):
        alpha = parse_map("(z+1/2)/(z^2/8+1)")
        bc = nevanlinna_bound_check(alpha, 1.0, FAST)
        assert bc.excess == overflow_to_P1(alpha, 1.0, FAST).value
        assert bc.slack == bc.bound - bc.excess


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


#: Means of log+|alpha| over the circle of radius r, by mpmath at 25 digits
#: with the integral split where |alpha| crosses 1 (checked against scipy to
#: within 2e-16).
LOG_PLUS_REFERENCE = [
    ("z+1/2", 1.0, 0.15971714623438024),
    ("2*z^3-z", 0.9, 0.45682635435631382),
    ("3*z^2+z", 0.6, 0.22469369925492348),
    ("1-z+z^3+z^4", 1.429, 1.4613465489499957),
    ("3+z+3*z^2+2*z^3-3*z^4", 0.679, 1.099035196258141),
    ("-3+3*z-z^2-2*z^3-3*z^4", 0.84, 1.3285679478598238),
]


@pytest.mark.parametrize("settings", [
    quadrature.DEFAULT_SETTINGS, QuadratureSettings(base_grid=64, tol=1e-8, max_depth=11),
], ids=["defaults", "tight"])
@pytest.mark.parametrize("expr,r,reference", LOG_PLUS_REFERENCE)
def test_log_plus_mean_within_its_certificate(expr, r, reference, settings):
    value, cert = log_plus_mean(parse_map(expr), r, settings)
    assert abs(value - reference) <= min(cert.achieved, settings.tol)


#: Cl_2(pi/3) / pi, the mean of log+|1/(z - 1)| over the unit circle.
POLE_ON_THE_CIRCLE = 0.32306594721945053


@pytest.mark.parametrize("settings", [
    quadrature.DEFAULT_SETTINGS, QuadratureSettings(base_grid=64, tol=1e-8, max_depth=11),
], ids=["defaults", "tight"])
def test_log_plus_mean_with_a_pole_on_the_circle(settings):
    # log+|alpha| spikes like -log|e(t) - 1| at t = 0, between two nodes
    value, cert = log_plus_mean(parse_map("1/(z-1)"), 1.0, settings)
    assert abs(value - POLE_ON_THE_CIRCLE) <= min(cert.achieved, settings.tol)
    # a double pole: its two eigenvalues split by about 1e-8 around 1
    value, cert = log_plus_mean(parse_map("1/(z-1)^2"), 1.0, settings)
    assert abs(value - 2 * POLE_ON_THE_CIRCLE) <= settings.tol
