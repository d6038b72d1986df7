"""Tests of the benchmark itself; run from the checkout root:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import perlayer  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _listing(workload, seed, rounds=1):
    cmds, files = workloads.build(workload, seed, rounds, ".perfbench_work/test")
    return [(c.kind, c.argv) for c in cmds], files.contents


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _listing(workload, 3) == _listing(workload, 3)
    assert _listing(workload, 3)[0] != _listing(workload, 4)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_repeat_the_mix(workload):
    cmds, _ = workloads.build(workload, 5, 2, ".perfbench_work/test")
    half = len(cmds) // 2
    assert sorted(c.kind for c in cmds[:half]) == sorted(c.kind for c in cmds[half:])


def test_generated_lattices_have_effective_equilibria():
    from overflow_lab.lattice import IntersectionLattice, equilibrium_divisor

    import random
    rng = random.Random(0)
    for size in (1, 2, 10, 50):
        lat = workloads.lattice_json(rng, size)
        got = equilibrium_divisor(IntersectionLattice(
            tuple(lat["labels"]),
            tuple(tuple(Fraction(x) for x in row) for row in lat["matrix"]),
            tuple(Fraction(x) for x in lat["c"]), Fraction(lat["cc"])))
        assert got.effective


def test_poly_expr_round_trips_through_the_parser():
    from overflow_lab.maps import parse_map

    for coeffs in ([0, -3, 0, 1], [2, 1], [-1, 0, -2], [0, 0, 0, 0, 0, 3]):
        alpha = parse_map(workloads.poly_expr(coeffs))
        want = list(coeffs)
        while want and want[-1] == 0:
            want.pop()
        assert [Fraction(c) for c in alpha.num] == want


def test_error_exits_fail_but_are_not_wrong():
    cmd = workloads.Command("overflow-sweep", ["overflow"])
    body = json.dumps({"error": {"type": "DomainError", "message": "x"}})
    assert checks.check(cmd, 2, body) == checks.Verdict(False, False, f"exit 2: {body}")
    assert checks.check(cmd, 0, "").wrong
    assert checks.check(cmd, 1, "Traceback ...").wrong


def test_selfint_gap_is_checked():
    cmd = workloads.Command("selfint-A1", ["selfint"])
    report = {"command": "selfint", "result": {
        "value": 1.0, "direct_oracle": 1.0 + 2e-3,
        "parts": {"normal": 0.5, "finite_excess": 0.25, "archimedean_excess": 0.25}}}
    got = checks.check(cmd, 0, json.dumps(report))
    assert not got.ok and got.wrong
    report["result"]["direct_oracle"] = 1.0 + 2e-4
    assert checks.check(cmd, 0, json.dumps(report)).gap == pytest.approx(2e-4)


def test_missing_hook_marks_metrics_absent():
    traces = perlayer.Traces([], [])
    traces.missing = {perlayer.TORUS}
    metrics, absent = perlayer.per_layer(traces)
    assert "quadrature.torus.pairs" in absent
    assert "quadrature.torus.pairs" not in metrics
    assert "quadrature.circle.calls" in metrics


def test_traced_counters_and_digests_repeat(monkeypatch):
    """Two traced passes over the same commands count the same work."""
    root = HERE.parent
    monkeypatch.setattr(run, "ROOT", root)
    rel = ".perfbench_work/test-repeat"
    files = workloads.InputFiles(rel)
    config = files.add("sweep.json", json.dumps(workloads.SWEEP_CONFIG))
    files.write(root)
    cmds = [
        workloads.Command("overflow-sweep", ["overflow", "--map=z^2+z", "--radius",
                                             "0.5,1,2", "--config", config]),
        workloads.Command("selfint-A1", ["selfint", "--psi", '["0","1/2"]',
                                         "--map=4*z^2+2*z", "--order", "12",
                                         "--config", config]),
        workloads.Command("measure-mc", ["measure-mc", "--e", "1", "--a", "2", "--rho", "2",
                                         "--box-radius", "1", "--level", "2",
                                         "--samples", "2000"]),
    ]
    counted = ("quadrature.torus.pairs", "quadrature.torus.calls",
               "quadrature.torus.unique_frac", "quadrature.torus.levels",
               "quadrature.circle.nodes", "diffeo.measure_mc.tests",
               "overflow.asymptotics.calls", "series.compose.calls")
    seen = []
    try:
        for _ in range(2):
            res = run.run_pass(cmds, True, root / rel, deadline=time.monotonic() + 300)
            assert all(r.verdict.ok for r in res), [r.verdict for r in res]
            metrics, absent = perlayer.per_layer(perlayer.Traces(res, res))
            assert absent == []
            seen.append(([r.digest for r in res],
                         {k: metrics[k]["value"] for k in counted}))
    finally:
        shutil.rmtree(root / rel, ignore_errors=True)
        try:
            (root / run.WORK).rmdir()
        except OSError:
            pass
    assert seen[0] == seen[1]
    counts = seen[0][1]
    assert counts["quadrature.torus.unique_frac"] < 1.0   # the sweep repeats its radii
    assert counts["diffeo.measure_mc.tests"] == 2000 * 2**2


def test_wall_s_sums_each_commands_median_over_passes():
    cmd = workloads.Command("jacobian", ["jacobian-check"])

    def res(wall, ok=True):
        return run.Result(cmd, 0, "", wall, 0.0, {"maxrss_mb": 10.0}, None,
                          checks.Verdict(ok), "d")

    passes = [[res(1.0), res(5.0)], [res(9.0), res(2.0, ok=False)], [res(2.0), res(3.0)]]
    got = run.end_to_end(passes, 0.5)
    assert got["wall_s"]["value"] == pytest.approx(2.0 + 3.0)
    assert got["ok_frac"]["value"] == pytest.approx(5 / 6)
