import itertools
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overflow_lab.cli import canonical_json
from overflow_lab.diffeo import (
    OrbitElement,
    TruncatedDiffeo,
    act,
    group_compose,
    group_invert,
    haar_sample,
    identity_diffeo,
    jacobian_check,
    measure_bound_mc,
    reduce_to_fundamental,
)
from overflow_lab.errors import (
    DomainError,
    EnumerationTooLarge,
    LevelMismatch,
    NumericalError,
    StepTooSmall,
)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def diffeo_strategy(level):
    return st.lists(small_fracs, min_size=level, max_size=level).map(
        lambda cs: TruncatedDiffeo(tuple(cs))
    )


class TestGroupLaw:
    def test_identity(self):
        y = TruncatedDiffeo((F(2), F(-1), F(3)))
        assert group_compose(identity_diffeo(3), y) == y
        assert group_compose(y, identity_diffeo(3)) == y

    def test_invert_example(self):
        # inverse of X + X^2 begins X - X^2 + 2X^3 - 5X^4
        x = TruncatedDiffeo((F(1), F(0), F(0)))
        assert group_invert(x) == TruncatedDiffeo((F(-1), F(2), F(-5)))

    def test_float_coefficients_stored_exactly(self):
        assert TruncatedDiffeo((0.3,)).coeffs == (F(0.3),)
        assert OrbitElement(1, 2, (0.3,)).coeffs == (F(0.3),)
        drawn = np.random.default_rng(4).uniform(size=3)
        assert [float(c) for c in haar_sample(3, 4).coeffs] == list(drawn)

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            group_compose(identity_diffeo(2), identity_diffeo(3))

    @given(x=diffeo_strategy(5))
    @settings(max_examples=50, deadline=None)
    def test_inverse_law(self, x):
        assert group_compose(group_invert(x), x) == identity_diffeo(5)
        assert group_compose(x, group_invert(x)) == identity_diffeo(5)

    @given(x=diffeo_strategy(4), y=diffeo_strategy(4), z=diffeo_strategy(4))
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, x, y, z):
        lhs = group_compose(group_compose(x, y), z)
        rhs = group_compose(x, group_compose(y, z))
        assert lhs == rhs

    def test_group_axioms_level_16(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            coeffs = tuple(
                F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                for _ in range(16)
            )
            x = TruncatedDiffeo(coeffs)
            assert group_compose(group_invert(x), x) == identity_diffeo(16)


class TestAction:
    def test_identity_action(self):
        phi = OrbitElement(2, 1, (F(3), F(0), F(1)))
        assert act(identity_diffeo(3), phi) == phi

    def test_preserves_orbit_data(self):
        phi = OrbitElement(2, 3, (F(1), F(5)))
        g = TruncatedDiffeo((F(1), F(-2)))
        moved = act(g, phi)
        assert (moved.e, moved.a) == (2, 3)

    @given(
        g1=diffeo_strategy(3),
        g2=diffeo_strategy(3),
        tail=st.lists(small_fracs, min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_action_axiom(self, g1, g2, tail):
        phi = OrbitElement(2, 1, tuple(tail))
        lhs = act(group_compose(g1, g2), phi)
        rhs = act(g1, act(g2, phi))
        assert lhs == rhs


class TestHaarSampling:
    def test_determinism(self):
        assert haar_sample(5, 42) == haar_sample(5, 42)
        assert haar_sample(5, 42) != haar_sample(5, 43)

    def test_coordinatewise_mean(self):
        rng_seed = 1000
        total = np.zeros(3)
        count = 100_000
        rng = np.random.default_rng(7)
        sample = rng.uniform(size=(count, 3))
        total = sample.mean(axis=0)
        assert np.all(np.abs(total - 0.5) < 0.005)


class TestReduction:
    def test_already_reduced(self):
        phi = OrbitElement(2, 1, (F(1), F(0), F(1)))
        gamma, delta = reduce_to_fundamental(phi)
        assert gamma == identity_diffeo(3)
        assert delta == phi

    def test_trivial_orbit_collapses(self):
        # e = 1, a = 1: the only representative is X itself
        phi = OrbitElement(1, 1, (F(7), F(-3), F(12)))
        gamma, delta = reduce_to_fundamental(phi)
        assert all(c == 0 for c in delta.coeffs)
        assert act(gamma, delta) == phi

    def test_spec_example(self):
        phi = OrbitElement(2, 1, (F(3), F(0), F(0)))
        gamma, delta = reduce_to_fundamental(phi)
        assert all(0 <= int(c) < 2 for c in delta.coeffs)
        assert act(gamma, delta) == phi

    def test_integer_valued_floats_accepted(self):
        phi = OrbitElement(2, 1, (3.0, 0.0, 0.0))
        assert reduce_to_fundamental(phi) == reduce_to_fundamental(
            OrbitElement(2, 1, (F(3), F(0), F(0)))
        )
        with pytest.raises(DomainError):
            reduce_to_fundamental(OrbitElement(2, 1, (3.5, 0.0, 0.0)))

    def test_random_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            e = int(rng.integers(1, 4))
            a = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            n = int(rng.integers(1, 5))
            phi = OrbitElement(
                e, a, tuple(F(int(rng.integers(-20, 21))) for _ in range(n))
            )
            gamma, delta = reduce_to_fundamental(phi)
            span = e * abs(a)
            assert all(0 <= int(c) < span for c in delta.coeffs)
            assert act(gamma, delta) == phi
            assert all(Fraction_is_int(c) for c in gamma.coeffs)


def Fraction_is_int(c):
    return F(c).denominator == 1


class TestJacobian:
    def test_unramified(self):
        phi = OrbitElement(1, 1, (F(2), F(1), F(0)))
        g = TruncatedDiffeo((0.3, 0.2, -0.4))
        got = jacobian_check(1, 1, 3, phi, g)
        assert got.relative_error < 1e-6

    def test_spec_instance(self):
        phi = OrbitElement(2, 3, (1.5, -0.7, 0.2))
        g = TruncatedDiffeo((0.1, 0.4, -0.2))
        got = jacobian_check(2, 3, 3, phi, g)
        assert got.expected == 216.0
        assert got.relative_error < 1e-5

    def test_constant_across_points(self):
        rng = np.random.default_rng(17)
        for e, a in [(1, 2), (2, 2), (3, 1), (1, -4)]:
            n = 3
            dets = []
            for _ in range(10):
                phi = OrbitElement(
                    e, a, tuple(float(x) for x in rng.normal(size=n))
                )
                g = TruncatedDiffeo(tuple(float(x) for x in rng.uniform(size=n)))
                got = jacobian_check(e, a, n, phi, g)
                assert got.relative_error <= 1e-5
                dets.append(got.determinant)
            spread = max(dets) - min(dets)
            assert spread <= 1e-5 * max(1.0, abs(float((e * a) ** n)))

    def test_zero_level_edge(self):
        phi = OrbitElement(2, 5, ())
        got = jacobian_check(2, 5, 0, phi, TruncatedDiffeo(()))
        assert got.determinant == 1.0

    @pytest.mark.parametrize("n", [-1, 7])
    def test_level_out_of_range_raises(self, n):
        with pytest.raises(DomainError, match=r"level in 0\.\.6"):
            jacobian_check(1, 1, n, OrbitElement(1, 1, ()), TruncatedDiffeo(()))

    def test_step_that_moves_no_coordinate_raises(self):
        # both halvings used to give determinant 0, which "agreed" and
        # refuted (e a)^n with relative error 1
        phi = OrbitElement(2, 3, (1.5, -0.7, 0.2))
        g = TruncatedDiffeo((0.1, 0.4, -0.2))
        with pytest.raises(StepTooSmall, match=r"leaves coordinate 0 = 0\.1 unchanged"):
            jacobian_check(2, 3, 3, phi, g, 1e-300)

    def test_zero_determinant_raises(self):
        # g moves from 0 to a subnormal, but the coordinate 1 + g_2 stays 1
        phi = OrbitElement(1, 1, (F(1),))
        with pytest.raises(StepTooSmall, match="determinant is 0"):
            jacobian_check(1, 1, 1, phi, TruncatedDiffeo((0.0,)), 1e-320)

    def test_overflowing_step_raises_quietly(self, recwarn):
        phi = OrbitElement(2, 3, (1.5, -0.7, 0.2))
        g = TruncatedDiffeo((0.1, 0.4, -0.2))
        with pytest.raises(NumericalError, match="float range"):
            jacobian_check(2, 3, 3, phi, g, 1e308)
        assert not recwarn.list


class TestMeasureBound:
    def test_zero_box(self):
        got = measure_bound_mc(1, 1, 2.0, 0.0, 3, samples=2000, seed=5)
        assert got.estimate == 0.0

    def test_spec_grid_cell(self):
        got = measure_bound_mc(1, 1, 2.0, 1.0, 3, samples=20000, seed=7)
        assert got.estimate <= got.paper_bound + 3 * got.stderr
        assert got.product_bound <= got.paper_bound
        assert not got.uninformative

    def test_uninformative_flag(self):
        got = measure_bound_mc(1, 1, 1.0, 1.0, 2, samples=1000, seed=9)
        assert got.uninformative

    def test_determinism_and_shards(self):
        a = measure_bound_mc(1, 2, 2.0, 1.0, 2, samples=5000, seed=3, shards=4)
        b = measure_bound_mc(1, 2, 2.0, 1.0, 2, samples=5000, seed=3, shards=4)
        assert a.estimate == b.estimate

    def test_empty_shards_cost_nothing(self):
        # 10 samples over 10**6 shards: only the 10 shards holding a sample run
        tracemalloc.start()
        try:
            measure_bound_mc(1, 2, 2.0, 1.0, 2, samples=10, seed=3, shards=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_shards_of_several_blocks_report_as_one_batch(self):
        # two shards of 50001 samples, each drawn and searched in two blocks
        got = measure_bound_mc(2, 3, 1.5, 1.0, 3, samples=100001, seed=11, shards=2)
        assert canonical_json(got) == (
            '{"estimate":0.035219647803521964,"paper_bound":0.20809835898999135,'
            '"product_bound":0.061658773034071516,"samples":100001,"seed":11,"shards":2,'
            '"stderr":0.00058291409678677014,"uninformative":false}\n')

    def test_shard_memory_does_not_grow_with_its_samples(self):
        # one batch of 600000 samples would hold 19 MB in each coefficient array
        tracemalloc.start()
        try:
            measure_bound_mc(1, -2, 2.0, 1.0, 2, samples=600_000, seed=5, shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20

    @pytest.mark.parametrize("e, a", [(0, 1), (-1, 1), (1, 0)])
    def test_degenerate_leading_term_raises(self, e, a):
        # the search span e |a| would be empty, and the estimate a false 0
        with pytest.raises(DomainError, match="leading exponent"):
            measure_bound_mc(e, a, 2.0, 1.0, 2, samples=100, seed=1)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationTooLarge):
            measure_bound_mc(3, 9, 2.0, 1.0, 4, samples=100, seed=1)

    @pytest.mark.parametrize("e, a, rho, box_radius, n", [
        (2, 2, 1.0, 3.0, 2),      # rho <= 1: every sample, most tails hit
        (1, -3, 1.5, 0.5, 3),
        (2, 3, 1.5, 1.0, 3),
        (2, -3, 3.0, 1.0, 3),
        (1, 2, 2.0, 100.0, 3),    # wide box
        (1, 1, 2.0, 0.0, 3),      # empty box
        (2, -1, 1.2, 2.0, 4),
        (3, 1, 2.0, 1.0, 1),
    ])
    def test_pruned_search_matches_all_representatives(self, e, a, rho, box_radius, n):
        samples, seed, shards = 1500, 17, 3
        got = measure_bound_mc(e, a, rho, box_radius, n, samples=samples, seed=seed,
                               shards=shards)
        hits = 0
        for shard, count in enumerate([500] * shards):
            rng = np.random.default_rng(np.random.SeedSequence((seed, shard)))
            g = np.zeros((n + 2, count))
            g[1] = 1.0
            g[2:] = rng.uniform(size=(count, n)).T
            powers, box = _powers_and_box(g, e, rho, box_radius)
            hits += int(np.sum(_all_representatives(a, e, abs(e * a), powers, box)))
        assert got.estimate == hits / samples

    @pytest.mark.parametrize("e, a, rho, box_radius, n", [
        (1, 2, 1.0, 0.5, 2), (2, -1, 2.0, 4.0, 2), (1, 3, 1.0, 0.5, 3), (2, 1, 2.0, 8.0, 3),
    ])
    def test_pruned_search_ties_on_the_box_boundary(self, e, a, rho, box_radius, n):
        # quarter-integer samples keep every coefficient exact, so many land
        # exactly on the box boundary |c| == box
        from overflow_lab.diffeo import _box_hits

        grid = np.array(list(itertools.product([0.0, 0.25, 0.5, 0.75], repeat=n)))
        g = np.zeros((n + 2, len(grid)))
        g[1] = 1.0
        g[2:] = grid.T
        powers, box = _powers_and_box(g, e, rho, box_radius)
        ties = np.abs(np.add.outer(a * powers[0][e + 1], np.arange(abs(e * a)))) == box[0]
        assert ties.any()
        want = _all_representatives(a, e, abs(e * a), powers, box)
        np.testing.assert_array_equal(_box_hits(a, e, abs(e * a), powers, box), want)
        assert 0 < want.sum() < len(want)

    def test_batched_inverse_consistency(self):
        # spot check the vectorized inverse against the exact one
        from overflow_lab.diffeo import _batched_inverse

        rng = np.random.default_rng(23)
        g = np.zeros((5, 50))
        g[1] = 1.0
        g[2:] = rng.uniform(size=(3, 50))
        inv = _batched_inverse(g, 6)
        for col in range(50):
            exact = group_invert(TruncatedDiffeo(tuple(g[2:, col])))
            approx = inv[2:5, col]
            expected = [float(c) for c in exact.coeffs]
            assert np.allclose(approx, expected, atol=1e-12)


def _powers_and_box(g, e, rho, box_radius):
    """inv^e .. inv^{e+n} of each column's inverse, and the box half-widths."""
    from overflow_lab.diffeo import _batched_inverse, _batched_truncated_product

    n = g.shape[0] - 2
    order = e + n
    inv = _batched_inverse(g, order)
    power = inv
    for _ in range(e - 1):
        power = _batched_truncated_product(power, inv, order)
    powers = [power]
    for _ in range(n):
        powers.append(_batched_truncated_product(powers[-1], inv, order))
    box = box_radius * np.array([rho ** -(e + 1 + i) for i in range(n)])
    return powers, box


def _all_representatives(a, e, span, powers, box):
    """Every domain representative tested against every sample."""
    n = len(powers) - 1
    in_event = np.zeros(powers[0].shape[1], dtype=bool)
    for tail in itertools.product(range(span), repeat=n):
        rep = np.array([0.0] * e + [a, *tail])
        moved = rep[e] * powers[0]
        for i in range(1, n + 1):
            if rep[e + i] != 0.0:
                moved = moved + rep[e + i] * powers[i]
        trailing = np.abs(moved[e + 1 :])
        in_event |= np.all(trailing <= box[:, None], axis=0)
    return in_event


# -- the sampler's skipped zeros against the full loops -----------------------

def _ref_truncated_product(u, v, order):
    out = np.zeros((order + 1, u.shape[1]))
    for i in range(min(u.shape[0], order + 1)):
        for j in range(min(v.shape[0], order + 1 - i)):
            out[i + j] += u[i] * v[j]
    return out


def _ref_inverse(g, order):
    """The fixed-point iteration inv <- X - sum_j g_j inv^j, run order times."""
    inv = np.zeros((order + 1, g.shape[1]))
    inv[1] = 1.0
    for _ in range(order):
        powers = inv
        correction = np.zeros_like(inv)
        for j in range(2, g.shape[0]):
            powers = _ref_truncated_product(powers, inv, order)
            correction += g[j] * powers
        inv = -correction
        inv[1] += 1.0
    return inv


def _batch(seed, rows, count, kind):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(size=(rows, count))
    if kind == "normal":
        return rng.normal(scale=3.0, size=(rows, count))
    return rng.integers(-4, 5, size=(rows, count)) / 4.0  # exact zeros and ties


batch_kinds = st.sampled_from(["uniform", "normal", "quarters"])


class TestSamplerAgainstFullLoops:
    @given(seed=st.integers(0, 2**32 - 1), kind=batch_kinds,
           u_rows=st.integers(1, 9), v_rows=st.integers(1, 9), order=st.integers(0, 9),
           u_val=st.integers(0, 4), v_val=st.integers(0, 4), count=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_truncated_product(self, seed, kind, u_rows, v_rows, order, u_val, v_val, count):
        from overflow_lab.diffeo import _batched_truncated_product

        u = _batch(seed, u_rows, count, kind)
        v = _batch(seed + 1, v_rows, count, kind)
        u[:u_val] = 0.0
        v[:v_val] = 0.0
        got = _batched_truncated_product(u, v, order, u_val, v_val)
        assert np.array_equal(got, _ref_truncated_product(u, v, order))

    @given(seed=st.integers(0, 2**32 - 1), kind=batch_kinds,
           n=st.integers(1, 4), e=st.integers(1, 4), count=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_inverse_and_its_powers(self, seed, kind, n, e, count):
        from overflow_lab.diffeo import _batched_inverse, _batched_truncated_product

        g = np.zeros((n + 2, count))
        g[1] = 1.0
        g[2:] = _batch(seed, n, count, kind)
        order = e + n
        inv = _batched_inverse(g, order)
        assert np.array_equal(inv, _ref_inverse(g, order))
        # inv^(k+1) as the sampler builds it, from inv^k's valuation k and inv's 1
        power = want = inv
        for k in range(1, e + n):
            power = _batched_truncated_product(power, inv, order, k, 1)
            want = _ref_truncated_product(want, inv, order)
            assert np.array_equal(power, want)
