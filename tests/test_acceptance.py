"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Corpora are fixed by explicit seeds; tolerances are pinned here
and nowhere else.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction as F

import numpy as np
import pytest

from overflow_lab.arithmetic import (
    SurfaceDescriptor,
    arithmetic_excess,
    build_morphism,
    dim_bound_C,
    grelem_construct,
    self_intersection_A1,
    self_intersection_direct_oracle,
)
from overflow_lab.cli import main as cli_main
from overflow_lab.diffeo import (
    OrbitElement,
    TruncatedDiffeo,
    act,
    jacobian_check,
    measure_bound_mc,
    reduce_to_fundamental,
)
from overflow_lab.lattice import (
    blowup_chain_fixture,
    denough_compare,
    equilibrium_divisor,
    is_negative_definite,
)
from overflow_lab.maps import DiskMap, parse_map
from overflow_lab.overflow import (
    nevanlinna_bound_check,
    overflow_definitional_oracle,
    overflow_to_C,
    overflow_to_P1,
    polynomial_asymptotics,
)
from overflow_lab.quadrature import (
    QuadratureSettings,
    circle_mean,
    nevanlinna_T,
    torus_pair_log_integral,
)
from overflow_lab.series import TruncatedSeries

CORPUS_SEED = 20240809
SWEEP = QuadratureSettings(base_grid=64, tol=1e-5, max_depth=9)
REFINE = QuadratureSettings(base_grid=64, tol=1e-6, max_depth=9)
TIGHT = QuadratureSettings(base_grid=64, tol=1e-9, max_depth=10)


def announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")


def fixed_corpus(n_maps: int = 200, seed: int = CORPUS_SEED):
    """200 polynomial maps of degree <= 5 paired with radii from {1/2, 1, 2}."""
    rng = np.random.default_rng(seed)
    radii = (0.5, 1.0, 2.0)
    corpus = []
    while len(corpus) < n_maps:
        degree = int(rng.integers(1, 6))
        coeffs = rng.normal(size=degree + 1).round(3)
        if abs(coeffs[degree]) < 0.2:
            coeffs[degree] = 1.0
        if all(abs(c) < 1e-9 for c in coeffs[1:]):
            continue
        corpus.append(
            (DiskMap(tuple(float(c) for c in coeffs)), radii[len(corpus) % 3])
        )
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return fixed_corpus()


@pytest.fixture(scope="module")
def explicit_c_values(corpus):
    """C-target excesses for the corpus, refined when close to zero."""
    values = []
    for alpha, r in corpus:
        value = overflow_to_C(alpha, r, SWEEP).value
        if value < 1e-3:
            value = overflow_to_C(alpha, r, REFINE).value
        values.append(value)
    return values


def test_criterion_1_overflow_nonnegativity(corpus, explicit_c_values):
    start = time.time()
    worst = min(explicit_c_values)
    for alpha, r in corpus:
        value = overflow_to_P1(alpha, r, SWEEP).value
        if value < 1e-3:
            value = overflow_to_P1(alpha, r, REFINE).value
        worst = min(worst, value)
    elapsed = time.time() - start
    ok = worst >= -1e-5 and elapsed <= 120
    announce(1, ok, f"min excess {worst:.3e} over 200 maps x 2 targets, "
                    f"P1 sweep {elapsed:.0f}s (C-target values shared)")
    assert worst >= -1e-5
    assert elapsed <= 120


def test_criterion_2_oracle_equivalence(corpus, explicit_c_values):
    start = time.time()
    worst = 0.0
    compared = 0
    flagged = 0
    for (alpha, r), explicit in zip(corpus, explicit_c_values):
        oracle = overflow_definitional_oracle(alpha, r, REFINE)
        if oracle.boundary_tangency:
            flagged += 1
            continue
        worst = max(worst, abs(explicit - oracle.value))
        compared += 1
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed <= 300 and compared >= 150
    announce(2, ok, f"max |explicit - definitional| = {worst:.2e} over "
                    f"{compared} maps ({flagged} tangency-flagged skipped), {elapsed:.0f}s")
    assert worst <= 1e-4
    assert compared >= 150
    assert elapsed <= 300


def test_criterion_3_vanishing_family():
    worst = 0.0
    for c in (1.0, 2.0, -3.0):
        for k in range(1, 7):
            alpha = DiskMap((0,) * k + (c,))
            for r in (0.5, 1.0, 2.0):
                worst = max(worst, abs(overflow_to_C(alpha, r, REFINE).value))
                worst = max(
                    worst, abs(overflow_definitional_oracle(alpha, r, REFINE).value)
                )
    ok = worst <= 1e-5
    announce(3, ok, f"max |excess| over the c z^k family, both methods: {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_4_polynomial_asymptotics():
    cases = [
        ("z^3+z", 2.0, 0.0),
        ("2*z^4+3*z", 3.0, -math.log(1.5)),
        ("z^5-z^2", 3.0, 0.0),
    ]
    start = time.time()
    results = []
    for expr, slope_ref, intercept_ref in cases:
        alpha, radii = parse_map(expr), [10.0, 100.0, 1000.0]
        values = [overflow_to_C(alpha, r, SWEEP).value for r in radii]
        fit = polynomial_asymptotics(radii, values)
        results.append((expr, fit, slope_ref, intercept_ref))
    elapsed = time.time() - start
    ok = elapsed <= 180 and all(
        abs(fit.slope - s) <= 0.01 * abs(s) and abs(fit.intercept - i) <= 0.05
        for _, fit, s, i in results
    )
    detail = "; ".join(
        f"{expr}: slope {fit.slope:.4f} (ref {s}), intercept {fit.intercept:+.4f} (ref {i:+.3f})"
        for expr, fit, s, i in results
    )
    announce(4, ok, f"{detail}; {elapsed:.0f}s")
    for expr, fit, s, i in results:
        assert abs(fit.slope - s) <= 0.01 * abs(s)
        assert abs(fit.intercept - i) <= 0.05
    assert elapsed <= 180


def test_criterion_5_jensen_quadrature():
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    while count < 200:
        r = float(rng.uniform(0.2, 3.0))
        c = complex(rng.normal(), rng.normal())
        if 0.99 <= abs(c) / r <= 1.01:
            continue
        count += 1
        # Jensen: the mean of log|z - c| over |z| = r is log max(r, |c|)
        got, _ = circle_mean(lambda ts: np.log(np.abs(r * np.exp(2j * np.pi * ts) - c)), TIGHT)
        worst = max(worst, abs(got - math.log(max(r, abs(c)))))

    def boundary(ts):
        z = np.exp(2j * np.pi * ts)
        return np.ones_like(z), z

    cross, _ = torus_pair_log_integral(boundary, TIGHT)
    kernel_value = -cross + math.log(2.0)
    kernel_err = abs(kernel_value - math.log(2))
    ok = worst <= 1e-8 and kernel_err <= 1e-6
    announce(5, ok, f"Jensen max error {worst:.2e} over 200 cases; "
                    f"projective kernel integral off by {kernel_err:.2e}")
    assert worst <= 1e-8
    assert kernel_err <= 1e-6


def test_criterion_6_nevanlinna():
    rng = np.random.default_rng(6)
    worst_gap = 0.0
    worst_slack = 0.0
    for _ in range(30):
        degree = int(rng.integers(1, 6))
        coeffs = rng.normal(size=degree + 1).round(3)
        if abs(coeffs[degree]) < 0.2:
            coeffs[degree] = 1.0
        if all(abs(c) < 1e-9 for c in coeffs[1:]):
            coeffs[1] = 1.0
        alpha = DiskMap(tuple(float(c) for c in coeffs))
        tb = nevanlinna_T(alpha, 1.0, "boundary", REFINE)
        ta = nevanlinna_T(alpha, 1.0, "area", REFINE)
        worst_gap = max(worst_gap, abs(tb - ta))
        bc = nevanlinna_bound_check(alpha, 1.0, SWEEP)
        worst_slack = min(worst_slack, bc.slack)
    ok = worst_gap <= 1e-4 and worst_slack >= -1e-5
    announce(6, ok, f"max |T_boundary - T_area| = {worst_gap:.2e}; "
                    f"min bound slack = {worst_slack:.2e}")
    assert worst_gap <= 1e-4
    assert worst_slack >= -1e-5


def _psi_over(r, order=12):
    return TruncatedSeries([F(0), F(1, r)] + [F(0)] * (order - 1))


def test_criterion_7_selfint_cross_check():
    rng = np.random.default_rng(7)
    worst_cross = 0.0
    built = 0
    while built < 50:
        r = int(rng.choice([2, 3, 5]))
        degree = int(rng.integers(1, 6))
        coeffs = [F(0)] + [
            F(int(rng.integers(-3, 4))) * F(r) ** k for k in range(1, degree + 1)
        ]
        if all(c == 0 for c in coeffs[1:]):
            continue
        m = build_morphism(
            SurfaceDescriptor(1.0, _psi_over(r)), DiskMap(tuple(coeffs)), 12
        )
        built += 1
        decomposition = self_intersection_A1(m, SWEEP).value
        direct = self_intersection_direct_oracle(m, SWEEP)
        worst_cross = max(worst_cross, abs(decomposition - direct))

    worst_family = 0.0
    worst_doubled = 0.0
    for r in (2, 3, 5):
        for k in (1, 2, 3):
            alpha = DiskMap((0,) * k + (F(r) ** k,))
            m = build_morphism(SurfaceDescriptor(1.0, _psi_over(r)), alpha, 12)
            got = self_intersection_A1(m, REFINE)
            worst_family = max(worst_family, abs(got.value - k * math.log(r)))
            worst_doubled = max(
                worst_doubled, abs(got.doubled_corollary_value - 2 * got.value)
            )
    ok = worst_cross <= 1e-3 and worst_family <= 1e-9 and worst_doubled <= 1e-3
    announce(7, ok, f"max |decomposition - direct| = {worst_cross:.2e} on 50 morphisms; "
                    f"family off closed form by {worst_family:.2e}; "
                    f"disputed doubled value off 2x by {worst_doubled:.2e}")
    assert worst_cross <= 1e-3
    assert worst_family <= 1e-9
    assert worst_doubled <= 1e-3


def test_criterion_8_lattice_exactness():
    for n in range(1, 51):
        for cc in (F(0), F(-3), F(2)):
            eq = equilibrium_divisor(blowup_chain_fixture(n, cc))
            assert eq.coefficients == tuple(F(n - i) for i in range(n))
            assert eq.dd == cc + n

    rng = np.random.default_rng(8)
    solved = 0
    gaps_checked = 0
    while solved < 100:
        size = int(rng.integers(1, 7))
        a = [[F(0)] * size for _ in range(size)]
        for i in range(size):
            a[i][i] = F(int(rng.integers(1, 4)))
            if i + 1 < size:
                a[i][i + 1] = F(int(rng.integers(-2, 3)))
        m = [
            [-sum(a[k][i] * a[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        for i in range(size):
            m[i][i] -= F(int(rng.integers(1, 3)))
        from overflow_lab.lattice import IntersectionLattice

        lat = IntersectionLattice(
            tuple(f"W{i}" for i in range(size)),
            tuple(tuple(row) for row in m),
            tuple(F(int(rng.integers(0, 4))) for _ in range(size)),
            F(int(rng.integers(-3, 4))),
        )
        assert is_negative_definite(lat)
        eq = equilibrium_divisor(lat)
        solved += 1
        for i in range(size):
            assert lat.c[i] + sum(
                lat.matrix[i][j] * eq.coefficients[j] for j in range(size)
            ) == 0
        if eq.effective:
            from overflow_lab.errors import CandidateNotCNB

            cand = [v * F(1, 2) for v in eq.coefficients]
            try:
                report = denough_compare(lat, eq.coefficients, cand)
            except CandidateNotCNB:
                continue
            assert report.quadratic_identity_holds
            gaps_checked += 1
    ok = gaps_checked > 0
    announce(8, ok, f"chains exact to n = 50; {solved} random chains solved exactly; "
                    f"{gaps_checked} comparison gap identities exact")
    assert ok


def test_criterion_9_grelem_certificates():
    rng = np.random.default_rng(9)
    built = 0
    while built < 100:
        lam_abs = rng.choice([F(3, 2), F(2), F(3)])
        lam = lam_abs if rng.integers(2) else -lam_abs
        coeffs = [F(0), lam] + [
            F(int(rng.integers(-5, 6)), int(rng.integers(1, 6))) for _ in range(23)
        ]
        psi = TruncatedSeries(coeffs)
        e = int(rng.integers(1, 4))
        got = grelem_construct(psi, e, 24)  # raises on certificate violation
        assert got.certificate_checked == 24
        built += 1

    worst_margin = -1e9
    for lam in (F(3, 2), F(2), F(3), F(-2)):
        for e in (1, 2, 3):
            psi = TruncatedSeries([F(0), lam] + [F(0)] * 23)
            got = grelem_construct(psi, e, 24)
            values = [
                abs(got.composed.evaluate(complex(math.cos(t), math.sin(t))))
                for t in np.linspace(0.0, 2 * math.pi, 256)
            ]
            worst_margin = max(worst_margin, max(values) - got.sup_bound)
    ok = worst_margin <= 1e-6
    announce(9, ok, f"100 exact decay certificates at order 24; linear-case sup "
                    f"exceeds its bound by at most {worst_margin:.2e}")
    assert worst_margin <= 1e-6


def test_criterion_10_dimension_counters():
    assert dim_bound_C(0, 1) == 1
    assert dim_bound_C(0, 5) == 1
    for n in (-1, -3, -100):
        for d in (1, 2, 5):
            assert dim_bound_C(n, d) == 0
    ratios = []
    n = 10**5
    for d in (1, 2, 5):
        ratios.append(dim_bound_C(n, d) * 2 * d / n**2)
    ok = all(0.95 <= x <= 1.05 for x in ratios)
    announce(10, ok, f"C(0)=1 and C(n<0)=0 exact; asymptotic ratios {ratios}")
    assert ok


def test_criterion_11_diffeo_lemmas():
    start = time.time()
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    for e in range(1, 13):
        for abs_a in range(1, 12 // e + 1):
            for sign in (1, -1):
                a = sign * abs_a
                for n in range(1, 5):
                    phi = OrbitElement(
                        e, a, tuple(float(x) for x in rng.normal(size=n))
                    )
                    g = TruncatedDiffeo(
                        tuple(float(x) for x in rng.uniform(size=n))
                    )
                    got = jacobian_check(e, a, n, phi, g)
                    worst_rel = max(worst_rel, got.relative_error)

    grid = [(1, 1, 2.0, 1.0, 3), (1, 2, 2.0, 1.0, 2), (2, 1, 1.5, 1.0, 2)]
    mc_ok = True
    mc_details = []
    for e, a, rho, box, n in grid:
        cell_start = time.time()
        got = measure_bound_mc(e, a, rho, box, n, samples=100_000, seed=CORPUS_SEED)
        cell_elapsed = time.time() - cell_start
        mc_ok &= got.estimate <= got.paper_bound + 3 * got.stderr
        mc_ok &= cell_elapsed <= 60
        mc_details.append(
            f"(e={e},a={a}): {got.estimate:.4f} <= {got.paper_bound:.4f} + 3x{got.stderr:.4f}"
        )

    reconstructed = 0
    for _ in range(500):
        e = int(rng.integers(1, 4))
        a = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        n = int(rng.integers(1, 5))
        phi = OrbitElement(
            e, a, tuple(F(int(rng.integers(-25, 26))) for _ in range(n))
        )
        gamma, delta = reduce_to_fundamental(phi)
        span = e * abs(a)
        assert all(0 <= int(c) < span for c in delta.coeffs)
        assert act(gamma, delta) == phi
        reconstructed += 1
    elapsed = time.time() - start
    ok = worst_rel <= 1e-5 and mc_ok and reconstructed == 500
    announce(11, ok, f"jacobian max rel err {worst_rel:.2e}; {'; '.join(mc_details)}; "
                     f"{reconstructed} exact reductions; {elapsed:.0f}s")
    assert worst_rel <= 1e-5
    assert mc_ok
    assert reconstructed == 500


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "quad.json"
    cfg.write_text('{"grid": 64, "tol": 1e-6, "depth": 9}')
    commands = [
        ["overflow", "--map", "z^2-z/10", "--radius", "0.5,1,2",
         "--method", "both", "--config", str(cfg)],
        ["measure-mc", "--e", "1", "--a", "2", "--rho", "2", "--box-radius", "1",
         "--level", "2", "--samples", "20000", "--seed", "12", "--shards", "4"],
        ["sample-diffeo", "--level", "5", "--seed", "77"],
        ["blowup-chain", "--n", "7", "--cc", "-2"],
        ["jacobian-check", "--e", "2", "--a", "3", "--level", "3", "--seed", "4"],
    ]
    all_ok = True
    for argv in commands:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        all_ok &= code1 == 0 and code2 == 0 and out1 == out2
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        json.loads(out1)  # reports stay machine-readable
    announce(12, all_ok, f"{len(commands)} CLI commands byte-identical across reruns")
    assert all_ok
