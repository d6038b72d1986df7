import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overflow_lab
from overflow_lab.cli import canonical_json, main
from overflow_lab.quadrature import Certificate
from overflow_lab.records import Record
from overflow_lab.series import TruncatedSeries


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


FAST_CFG = '{"grid": 64, "tol": 1e-6, "depth": 9}'


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(FAST_CFG)
    return str(path)


class TestOverflowCommand:
    def test_spec_example(self, fast_config):
        code, out = run_cli([
            "overflow", "--map", "z^3+z", "--radius", "10",
            "--target", "C", "--method", "both", "--config", fast_config,
        ])
        assert code == 0
        report = json.loads(out)
        entry = report["result"]["reports"][0]
        assert entry["explicit"]["value"] == pytest.approx(2 * math.log(10), rel=0.05)
        assert entry["residual"] <= 1e-4
        achieved = (entry["explicit"]["certificate"]["achieved"]
                    + entry["oracle"]["certificate"]["achieved"])
        values = (entry["explicit"]["value"], entry["oracle"]["value"])
        rounding = 4 * math.ulp(max(1.0, *map(abs, values)))
        assert entry["residual_within_achieved"] is (entry["residual"] <= achieved + rounding)
        assert report["settings"] == {"grid": 64, "tol": 1e-6, "depth": 9}

    def test_residual_beyond_both_certificates_is_reported(self):
        # at large r the explicit route's Richardson deltas read 1e-14 while
        # it is 2.4e-5 off; the verdict is reported, the exit code stays 0
        code, out = run_cli([
            "overflow", "--map", "3-z-3*z^2+z^3-2*z^5", "--radius", "90.5", "--method", "both",
        ])
        assert code == 0
        (entry,) = json.loads(out)["result"]["reports"]
        assert entry["residual"] > 1e-5
        assert entry["residual_within_achieved"] is False

    def test_residual_of_rounding_alone_is_within_achieved(self):
        # the excess is 0 here: the oracle reads 0 with achieved 0, and the
        # explicit route -8.9e-16 with achieved 4.4e-16, four ulps of 1 and
        # rounding of its sums of logarithms of order one
        code, out = run_cli(["overflow", "--map=-3+3*z^2", "--radius", "2.163",
                             "--method", "both"])
        assert code == 0
        (entry,) = json.loads(out)["result"]["reports"]
        achieved = (entry["explicit"]["certificate"]["achieved"]
                    + entry["oracle"]["certificate"]["achieved"])
        assert achieved < entry["residual"] <= 4 * math.ulp(1.0)
        assert entry["residual_within_achieved"] is True

    @pytest.mark.parametrize("config", ['{"grid": 64, "tol": 1e-8, "depth": 11}', None],
                             ids=["tight", "defaults"])
    def test_map_of_z_to_the_k_agrees_with_the_oracle(self, config, tmp_path):
        # alpha = P(z^4): alpha's n-node rule is P's n/4-node rule, so on
        # alpha's own boundary the tight ladder accepted 5.6e-4 off with
        # achieved 3.6e-15, and the defaults exited 3
        argv = ["overflow", "--map", "7*z^8-z^4+2", "--radius", "3", "--method", "both"]
        if config:
            (tmp_path / "quad.json").write_text(config)
            argv += ["--config", str(tmp_path / "quad.json")]
        code, out = run_cli(argv)
        assert code == 0
        (entry,) = json.loads(out)["result"]["reports"]
        assert entry["residual"] <= entry["explicit"]["certificate"]["tol"]
        assert entry["residual_within_achieved"] is True
        assert (entry["explicit"]["radius"], entry["explicit"]["ramification_index"]) == (3, 4)

    def test_oracle_judges_the_reduced_map(self):
        # 1 + z^5 + 3 z^15 = P(z^5) with P of degree 3, which is within the
        # oracle's degree bound although alpha's degree 15 is not
        code, out = run_cli(["overflow", "--map", "1+z^5+3*z^15", "--radius", "0.97",
                             "--method", "both"])
        assert code == 0
        (entry,) = json.loads(out)["result"]["reports"]
        assert entry["residual_within_achieved"] is True
        assert entry["oracle"]["ramification_index"] == 5

    @pytest.mark.parametrize("expr,free", [
        ("1e20+z", "z"), ("1e12+z", "z"), ("1e10+z+z^2", "z+z^2"), ("1e14+z+z^2", "z+z^2"),
    ])
    def test_large_constant_term_cancels(self, expr, free):
        # the constant cancels in every kernel difference and fiber row; kept,
        # 1e20+z read -log 2, 1e12+z read -1.1e-6 off, 1e10+z+z^2's oracle
        # read 5.1e-8 off with achieved 2.7e-8, and 1e14+z+z^2 exited 3
        def entry(map_):
            code, out = run_cli(["overflow", "--map", map_, "--radius", "1",
                                 "--method", "both"])
            assert code == 0
            (report,) = json.loads(out)["result"]["reports"]
            return report

        got, want = entry(expr), entry(free)
        for route in ("explicit", "oracle"):
            # within the route's own certificate, which is within its tol
            achieved = got[route]["certificate"]["achieved"]
            assert achieved <= got[route]["certificate"]["tol"]
            assert abs(got[route]["value"] - want[route]["value"]) <= achieved
        assert got["residual_within_achieved"] is True

    @pytest.mark.parametrize("expr", [
        "(3*10^20+(10^20+3)*z)/(3+z)", "(3*10^12+(10^12+3)*z)/(3+z)",
    ])
    def test_value_at_zero_of_a_rational_map_cancels(self, expr):
        # p - alpha(0) q = 3 z, so (p, q) has the kernel of 3 z/(3 + z); with
        # p kept, f = p/q near alpha(0) rounded it away: the first map exited
        # 3 and the second read 2.3e-5 off with achieved 7.9e-7 at grid 4096
        def explicit(map_):
            code, out = run_cli(["overflow", "--map", map_, "--radius", "1", "--target", "P1"])
            assert code == 0
            (report,) = json.loads(out)["result"]["reports"]
            return report["explicit"]

        got, want = explicit(expr), explicit("3*z/(3+z)")
        assert abs(got["value"] - want["value"]) <= got["certificate"]["achieved"]

    @pytest.mark.parametrize("radius", ["0.5", "1", "3"])
    def test_pole_near_zero_keeps_the_numerator(self, radius):
        # a Moebius map, excess 0, with alpha(0) = 1e10: p - alpha(0) q is
        # about 1e10 on the circle where p is about 1, so p stays
        code, out = run_cli(["overflow", "--map", "(1+z)/(1/10^10+z)", "--radius", radius,
                             "--target", "P1"])
        assert code == 0
        (report,) = json.loads(out)["result"]["reports"]
        assert abs(report["explicit"]["value"]) <= 1e-12

    @pytest.mark.parametrize("expr,radius", [
        ("1+(1/(10^60))^3*z^16", "1e20"),  # r^16 overflows
        ("1+1e300*z^2", "1e-155"),  # r^2 is subnormal
    ])
    def test_radius_to_the_power_beyond_float_range_exits_2(self, expr, radius):
        # the boundary values of alpha = P(z^K) fit float64 at r, but r^K,
        # the radius both routes integrate P at, does not
        code, out = run_cli(["overflow", "--map", expr, "--radius", radius, "--method", "both"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "DomainError" and "to the power" in err["message"]

    def test_csv_sweep(self, fast_config):
        code, out = run_cli([
            "overflow", "--map", "z^2", "--radius", "0.5,1,2",
            "--format", "csv", "--config", fast_config,
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,method"
        assert len(lines) == 4
        assert all(line.endswith("explicit") for line in lines[1:])

    def test_parse_error_exit_code(self):
        code, out = run_cli(["overflow", "--map", "z^3 + $", "--radius", "1"])
        assert code == 2
        err = json.loads(out)
        assert err["error"]["type"] == "ParseError"
        assert "position" in err["error"]["message"]

    def test_no_convergence_exit_code(self, tmp_path):
        cfg = tmp_path / "tight.json"
        cfg.write_text('{"grid": 4, "tol": 1e-15, "depth": 1}')
        code, out = run_cli([
            "overflow", "--map", "z^5+z^2+z", "--radius", "1.3",
            "--config", str(cfg),
        ])
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "NoConvergence"
        assert "no convergence at grid 8 (no two combined levels, tol 1e-15)" in error["message"]

    @pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf", "1,-inf"])
    def test_bad_radius_rejected(self, radius):
        code, out = run_cli(["overflow", "--map", "z^2+z", "--radius", radius])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ConfigError"
        assert "positive and finite" in err["message"]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"grid": 64, "wild": 1}')
        code, out = run_cli([
            "overflow", "--map", "z", "--radius", "1", "--config", str(cfg),
        ])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"


    @pytest.mark.parametrize("body", [
        '{"grid": "x"}', '{"tol": null}', '{"depth": [1]}',
        # bools, fractional integers and an infinite tol are refused, not coerced
        '{"tol": true}', '{"depth": false}', '{"depth": 2.5}', '{"grid": 256.9}',
        '{"tol": 1e999}',
        pytest.param('{"tol": 1%s}' % ("0" * 400), id="tol-beyond-float"),
        pytest.param('{"tol": 1%s}' % ("0" * 5000), id="tol-beyond-digit-limit"),
        # lattices past the 2^24-node ceiling are refused before any is allocated
        pytest.param('{"grid": %d}' % 2**100, id="grid-2^100"),
        pytest.param('{"grid": %d}' % 2**30, id="grid-2^30"),
        pytest.param('{"grid": 64, "depth": 19}', id="grid-64-depth-19"),
        pytest.param('{"grid": 2, "depth": 1000000000}', id="depth-10^9"),
    ])
    def test_bad_config_value_rejected(self, body, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(body)
        code, out = run_cli([
            "overflow", "--map", "z", "--radius", "1", "--config", str(cfg),
        ])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("kind,error", [
        ("parentheses", "ParseError"), ("minus signs", "ParseError"),
        ("psi", "ConfigError"), ("config", "ConfigError"), ("lattice", "ConfigError"),
    ])
    def test_input_nested_past_the_recursion_limit_exits_2(self, kind, error, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        argv = {
            "parentheses": ["overflow", "--map=" + "(" * 300 + "z" + ")" * 300, "--radius", "1"],
            "minus signs": ["overflow", "--map=" + "-" * 1000 + "z", "--radius", "1"],
            "psi": ["grelem", "--psi", "[" * 1000, "--e", "1", "--order", "3"],
            "config": ["overflow", "--map", "z", "--radius", "1", "--config", str(deep)],
            "lattice": ["equilibrium", "--lattice", str(deep)],
        }[kind]
        proc = _run_module(*argv)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == error
        assert proc.stderr == ""

    def test_huge_exponent_rejected(self):
        code, out = run_cli(["overflow", "--map", "z^100000", "--radius", "1"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_overflowing_boundary_exits_fast(self):
        # |p|^2 ~ 1e600 on this circle: rejected before any integral runs
        start = time.monotonic()
        code, out = run_cli(["overflow", "--map", "z^2+z", "--radius", "1e150"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "DomainError" and "overflow" in err["message"]
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("expr,radius", [
        ("z^2+z", "1e-300"), ("1e308*z^2+z", "1"), ("1/(1e-160+z)", "1"),
        # exact products of 156-digit integers met a float literal in is_constant
        pytest.param("({0}+1e0*z)/(1+{0}*z^2)".format("9" * 156), "1", id="huge-mixed-ratio"),
        # the jet, about -1e-324, underflowed to 0.0 before its log was taken
        pytest.param("z^2/(1.00e-18*z^3+{0}*z^2)".format("9" * 153), "1", id="jet-underflow"),
    ])
    def test_unsquarable_boundary_rejected_quietly(self, expr, radius):
        proc = _run_module("overflow", "--map", expr, "--radius", radius,
                           "--target", "P1")
        assert proc.returncode == 2
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "DomainError" and "float64" in err["message"]
        assert proc.stderr == ""

    @pytest.mark.parametrize("expr,radius", [
        ("z/(1e150+z)", "1.5"), ("1e150*z/(1+z)", "1.5"), ("(1e-150*z)/(2+z)", "1.5"),
        # |f(t) - f(s)|^2 about 1e311 and 1e-310 unscaled
        ("(1e5*z)/(2e-150+1e-150*z)", "1.5"), ("(1e-5*z)/(2e150+1e150*z)", "1.5"),
        # f about 1e-310, a subnormal, though p is about 1e-210
        ("(1e-200*z)/(1e100+z)", "1e-10"),
    ])
    def test_scaled_moebius_excess_is_zero(self, expr, radius):
        # a Moebius map's excess is 0 in closed form; here f = p/q on the
        # circle is far from modulus 1, and far from the pair's own scale
        proc = _run_module("overflow", "--map", expr, "--target", "P1", "--radius", radius)
        assert proc.returncode == 0
        # unscaled, the 1e-310 squares of the 1e-5/1e150 case read 2.3e-11
        assert abs(json.loads(proc.stdout)["result"]["reports"][0]["explicit"]["value"]) <= 1e-12
        assert proc.stderr == ""

    def test_oracle_fiber_beyond_float_range_exits_2(self, fast_config):
        # the boundary data is tiny, but the monic fiber polynomial overflows
        code, out = run_cli([
            "overflow", "--map=-3e121*z^4+1.46e-228*z^8", "--radius", "6.38e-39",
            "--method", "oracle", "--config", fast_config,
        ])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "DomainError" and "fiber roots" in err["message"]

    def test_oracle_fiber_roots_overflow_rejected_quietly(self):
        # Cauchy's bound puts the fiber roots near 3e207: their residual scale overflows
        proc = _run_module("overflow", "--map", "5.91e-208*z^2+2*z",
                           "--radius", "1.56e-141", "--method", "oracle")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["overflow", "--map", "-5*z^9+2", "--radius", "1"],
        ["overflow", "--map", "z", "--radius", "1", "--bogus"],
        ["dimbound", "--n", "x"],
        [],
        # option values are converted once, by the parser
        ["selfint", "--psi", "[0,1]", "--map", "z", "--radius", "abc"],
        ["selfint", "--psi", "[0,1]", "--map", "z", "--radius", "1/2"],
        ["dinv", "--psi", "[0,1]", "--map", "z", "--radius", "1/2"],
        ["holonomy-bound", "--psi", "[0,1]", "--map", "z", "--radius", "abc"],
        ["blowup-chain", "--n", "3", "--cc", "abc"],
        ["blowup-chain", "--n", "3", "--cc", "1/0"],
        ["dimbound", "--variant", "CNB", "--n", "3", "--cd", "x", "--mu", "1"],
        ["dimbound", "--variant", "CNB", "--n", "3", "--cd", "1/0", "--mu", "1"],
        # a term too long to echo, and an exponent Fraction would expand for minutes
        ["dimbound", "--variant", "CNB", "--n", "3", "--cd", "1e5000", "--mu", "1"],
        ["blowup-chain", "--n", "3", "--cc", "1e999999999"],
        ["sample-diffeo", "--level", "2", "--seed", "-1"],
        ["jacobian-check", "--e", "1", "--a", "1", "--level", "2", "--seed", "-1"],
        ["measure-mc", "--e", "1", "--a", "1", "--rho", "2", "--box-radius", "1",
         "--level", "2", "--seed", "-1"],
    ])
    def test_argument_errors_exit_2_with_json(self, argv):
        proc = _run_module(*argv)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "ConfigError"
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["measure-mc", "--rho", "0", "--box-radius", "1"],
        ["measure-mc", "--rho", "-2", "--box-radius", "1"],
        ["measure-mc", "--rho", "2", "--box-radius", "-1"],
        ["measure-mc", "--rho", "1e-300", "--box-radius", "1"],
        ["measure-mc", "--rho", "2", "--box-radius", "1e200"],
        ["jacobian-check", "--step", "0"],
    ])
    def test_out_of_domain_numbers_exit_2_quietly(self, argv):
        # rejected before any sampling: no numpy warning, no traceback
        proc = _run_module(*argv, "--e", "1", "--a", "1", "--level", "2")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        # a degenerate leading term: the estimate read 0, from an empty search
        ["measure-mc", "--e", "0", "--a", "1", "--rho", "2", "--box-radius", "1", "--level", "2"],
        ["measure-mc", "--e", "-1", "--a", "1", "--rho", "2", "--box-radius", "1", "--level", "2"],
        ["measure-mc", "--e", "1", "--a", "0", "--rho", "2", "--box-radius", "1", "--level", "2"],
        # a level numpy cannot sample, or that the check refuses
        ["jacobian-check", "--e", "1", "--a", "1", "--level", "-1"],
        ["jacobian-check", "--e", "1", "--a", "1", "--level", "7"],
        # a leading exponent beyond the cap, whose (e a)^n also leaves the float range
        ["jacobian-check", "--e", "1" + "0" * 320, "--a", "1", "--level", "2"],
        ["jacobian-check", "--e", "65", "--a", "1", "--level", "2"],
        # (e a)^n beyond the float range from a huge leading coefficient
        ["jacobian-check", "--e", "2", "--a", "1" + "0" * 200, "--level", "2"],
    ])
    def test_rejected_before_sampling_exits_2_quietly(self, argv):
        proc = _run_module(*argv)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"
        assert proc.stderr == ""

    @pytest.mark.parametrize("step,kind", [
        ("1e-300", "StepTooSmall"), ("1e308", "NumericalError"),
    ])
    def test_jacobian_step_out_of_float_reach_exits_3_quietly(self, step, kind):
        proc = _run_module("jacobian-check", "--e", "2", "--a", "3", "--level", "3",
                           "--step", step)
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"]["type"] == kind
        assert proc.stderr == ""

    def test_help_exits_0(self):
        proc = _run_module("overflow", "--help")
        assert proc.returncode == 0 and "--radius" in proc.stdout

    @pytest.mark.parametrize("expr,target", [("(z-2)/(z+2)", "P1"), ("z^2+z", "C")])
    def test_sweep_fits_the_reported_values(self, expr, target, fast_config):
        code, out = run_cli([
            "overflow", "--map", expr, "--radius", "0.5,1,1.5",
            "--target", target, "--config", fast_config,
        ])
        assert code == 0
        result = json.loads(out)["result"]
        values = [entry["explicit"]["value"] for entry in result["reports"]]
        assert result["asymptotic_fit"]["values"] == values
        assert result["asymptotic_fit"]["radii"] == [0.5, 1.0, 1.5]


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "path", sorted(GOLDEN_DIR.glob("oracle_*.json")), ids=lambda p: p.stem
)
def test_oracle_matches_golden(path, tmp_path):
    """Canonical oracle reports (tol 1e-8) of the kink-corrected ladder."""
    golden = json.loads(path.read_text())
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(golden["settings"]))
    (want,) = golden["result"]["reports"]
    code, out = run_cli([
        "overflow", f"--map={golden['inputs']['map']}", "--radius", repr(want["radius"]),
        "--method", "oracle", "--config", str(cfg),
    ])
    assert code == 0
    (got,) = json.loads(out)["result"]["reports"]
    assert got["oracle"]["value"] == pytest.approx(want["oracle"]["value"], rel=0, abs=1e-12)
    assert got["oracle"]["boundary_tangency"] == want["oracle"]["boundary_tangency"]
    assert got["oracle"]["certificate"]["grid"] == want["oracle"]["certificate"]["grid"]


def _assert_close(got, want, path="report"):
    """Same structure and non-float leaves; float leaves within 1e-8."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=0, abs=1e-8), path
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{k}]")
    else:
        assert got == want, path


@pytest.mark.parametrize(
    "path",
    sorted(p for p in GOLDEN_DIR.glob("*.json") if not p.name.startswith("oracle_")),
    ids=lambda p: p.stem,
)
def test_report_matches_golden(path, tmp_path):
    """Canonical tol-1e-8 reports recorded before the P1 route became one formula."""
    golden = json.loads(path.read_text())
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(golden["settings"]))
    inputs = dict(golden["inputs"])
    if golden["command"] == "overflow":
        inputs["radius"] = golden["result"]["reports"][0]["radius"]
    argv = [golden["command"], "--config", str(cfg)]
    argv += [f"--{key}={value}" for key, value in inputs.items()]
    code, out = run_cli(argv)
    assert code == 0
    _assert_close(json.loads(out), golden)


EXACT_DIR = GOLDEN_DIR / "exact"


@pytest.mark.parametrize(
    "case",
    json.loads((EXACT_DIR / "commands.json").read_text()),
    ids=lambda case: "-".join(case["argv"][:1] + case["argv"][2::2]),
)
def test_exact_layers_match_golden_bytes(case):
    """Reports of the exact layers (series, lattice, diffeo), recorded before
    series lost its float backend; they must match byte for byte."""
    argv = [a.replace("{dir}", str(EXACT_DIR)) for a in case["argv"]]
    code, out = run_cli(argv)
    assert code == case["exit"]
    if case["argv"][0] == "equilibrium":
        # inputs echo the lattice path, which depends on the checkout
        assert json.loads(out)["result"] == json.loads(case["stdout"])["result"]
    else:
        assert out == case["stdout"]


class TestMorphismCommands:
    def test_selfint_borel(self, fast_config):
        code, out = run_cli([
            "selfint", "--psi", '["0","1/3"]', "--map", "3*z",
            "--config", fast_config,
        ])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["value"] == pytest.approx(math.log(3), abs=1e-8)
        assert result["doubled_corollary_status"] == "disputed"
        assert result["doubled_corollary_value"] == pytest.approx(
            2 * math.log(3), abs=1e-6
        )
        assert result["direct_oracle"] == pytest.approx(math.log(3), abs=1e-4)

    def test_selfint_not_integral(self, fast_config):
        code, out = run_cli([
            "selfint", "--psi", '["0","1/2"]', "--map", "z",
            "--config", fast_config,
        ])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotIntegral"

    def test_dinv_power(self, fast_config):
        code, out = run_cli([
            "dinv", "--psi", '["0","1/2"]', "--map", "8*z^3",
            "--config", fast_config,
        ])
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(3.0, abs=1e-8)

    def test_holonomy_bound(self, fast_config):
        code, out = run_cli([
            "holonomy-bound", "--psi", '["0","1/2"]', "--map", "2*z",
            "--config", fast_config,
        ])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["degree_bound"] == 1
        assert result["cdt_bound"] > 0

    def test_holonomy_bound_across_kinks_at_tight_settings(self, tmp_path):
        # |alpha| crosses 1 on the circle; the kink-corrected mean accepts at
        # grid 1024 where the uncorrected one ran out of levels
        cfg = tmp_path / "tight.json"
        cfg.write_text('{"grid": 64, "tol": 1e-8, "depth": 11}')
        code, out = run_cli([
            "holonomy-bound", "--psi", '["0","1"]', "--map=1-z+z^3+z^4",
            "--radius", "1.429", "--config", str(cfg),
        ])
        assert code == 0
        # e log+ mean / log r, with the mpmath mean of log+|alpha|
        cdt = math.e * 1.4613465489499957 / math.log(1.429)
        assert json.loads(out)["result"]["cdt_bound"] == pytest.approx(cdt, abs=1e-7)

    def test_underflowing_coefficient_rejected(self):
        # 1e-400 * z^2 became 0.0, and the float copy of the map read as constant
        big, huge = "1" + "0" * 200, "1" + "0" * 400
        code, out = run_cli([
            "selfint", "--psi", f'["0","{big}"]', "--map", f"z/{big}+z^2/{huge}",
            "--radius", "1e250", "--order", "4",
        ])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ParseError" and "float64 range" in err["message"]

    def test_dinv_on_tiny_exact_coefficient(self, fast_config):
        # the routes read the exact map, so 1e-200 * z is not taken for a constant
        big = "1" + "0" * 200
        code, out = run_cli([
            "dinv", "--psi", f'["0","{big}"]', "--map", f"z/{big}",
            "--radius", "1e250", "--order", "4", "--config", fast_config,
        ])
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_pseudoconvex_exit(self, fast_config):
        code, out = run_cli([
            "dinv", "--psi", '["0","2"]', "--map", "2*z", "--config", fast_config,
        ])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotPseudoconcave"


class TestLatticeCommands:
    def test_blowup_chain(self):
        code, out = run_cli(["blowup-chain", "--n", "3", "--cc", "0"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["equilibrium"]["coefficients"] == ["3", "2", "1"]
        assert result["equilibrium"]["dd"] == "3"
        assert result["cnb"]["holds"] is True

    def test_equilibrium_from_file(self, tmp_path):
        lattice_file = tmp_path / "lat.json"
        lattice_file.write_text(json.dumps({
            "labels": ["a", "b"],
            "matrix": [["-1", "1"], ["1", "-2"]],
            "c": ["1", "0"],
            "cc": "0",
        }))
        code, out = run_cli(["equilibrium", "--lattice", str(lattice_file)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["equilibrium"]["coefficients"] == ["2", "1"]

    def test_bad_lattice_schema(self, tmp_path):
        lattice_file = tmp_path / "bad.json"
        lattice_file.write_text(json.dumps({"labels": [], "matrix": []}))
        code, out = run_cli(["equilibrium", "--lattice", str(lattice_file)])
        assert code == 2


class TestOtherCommands:
    def test_dimbound_c(self):
        code, out = run_cli(["dimbound", "--variant", "C", "--n", "2", "--d", "1"])
        assert code == 0
        assert json.loads(out)["result"]["value"] == 6

    def test_dimbound_cnb(self):
        code, out = run_cli([
            "dimbound", "--variant", "CNB", "--n", "3", "--cd", "2", "--mu", "1",
        ])
        assert code == 0
        assert json.loads(out)["result"]["value"] == 6

    @pytest.mark.parametrize("argv,value", [
        (["--variant", "CNB", "--n", "3", "--cd", "1/1000000000", "--mu", "1"], 6 * 10**9 + 4),
        (["--variant", "C", "--n", "100000000000", "--d", "1"],
         (10**11 + 1) * (10**11 + 2) // 2),
    ])
    def test_dimbound_finishes_on_huge_counts(self, argv, value):
        start = time.monotonic()
        code, out = run_cli(["dimbound", *argv])
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert json.loads(out)["result"]["value"] == value

    def test_dimbound_unprintable_value_exits_2(self):
        # the count has about 4400 digits, past Python's 4300-digit limit
        proc = _run_module("dimbound", "--variant", "C", "--n", "9" * 2200, "--d", "1")
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"

    def test_grelem(self):
        code, out = run_cli(["grelem", "--psi", '["0","2"]', "--e", "1", "--order", "8"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["alpha_hat"][1] == "1"
        assert result["convergent"] is True

    def test_sample_diffeo_deterministic(self):
        code1, out1 = run_cli(["sample-diffeo", "--level", "4", "--seed", "9"])
        code2, out2 = run_cli(["sample-diffeo", "--level", "4", "--seed", "9"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_jacobian_check(self):
        code, out = run_cli([
            "jacobian-check", "--e", "2", "--a", "3", "--level", "3", "--seed", "4",
        ])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["expected"] == 216.0
        assert result["relative_error"] < 1e-5

    def test_measure_mc(self):
        code, out = run_cli([
            "measure-mc", "--e", "1", "--a", "1", "--rho", "2",
            "--box-radius", "1", "--level", "3", "--samples", "20000", "--seed", "3",
        ])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["estimate"] <= result["paper_bound"] + 3 * result["stderr"]


class TestDeterminismAndRoundTrip:
    def test_byte_identical_runs(self, fast_config):
        argv = [
            "overflow", "--map", "z^2-z/10", "--radius", "1",
            "--method", "both", "--config", fast_config,
        ]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2

    def test_measure_mc_byte_identical(self):
        argv = [
            "measure-mc", "--e", "1", "--a", "2", "--rho", "2",
            "--box-radius", "1", "--level", "2", "--samples", "5000",
            "--seed", "11", "--shards", "4",
        ]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2

    def test_records_serialize_by_field_name(self):
        class Example(Record):
            certificate: Certificate
            radii: tuple
            ratio: Fraction
            series: TruncatedSeries
            bound: object

        record = Example(Certificate(1e-6, 0.25, 512), (0.5, 2),
                         Fraction(-3, 4), TruncatedSeries([0, 1, Fraction(1, 2)]), None)
        assert canonical_json(record) == (
            '{"bound":null,'
            '"certificate":{"achieved":0.25,"grid":512,"tol":9.9999999999999995e-07},'
            '"radii":[0.5,2],"ratio":"-3/4","series":["0","1","1/2"]}\n'
        )

    def test_json_round_trip_stable(self, fast_config):
        _, out = run_cli([
            "selfint", "--psi", '["0","1/3"]', "--map", "3*z",
            "--config", fast_config,
        ])
        reparsed = json.loads(out)
        assert canonical_json(reparsed) == out

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli([
            "--output", str(target), "dimbound", "--variant", "C",
            "--n", "0", "--d", "3",
        ])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["result"]["value"] == 1

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_output_that_cannot_be_written(self, tmp_path, where):
        target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        code, out = run_cli(["--output", str(target), "overflow", "--map=z", "--radius", "1"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ConfigError" and str(target) in err["message"]


_README = Path(__file__).resolve().parents[1] / "README.md"
_README_EXAMPLES = [
    shlex.split(line)[1:]
    for line in _README.read_text().splitlines()
    if line.startswith("overflow-lab ")
]
_TAKES_CONFIG = {"overflow", "selfint", "dinv", "holonomy-bound"}


@pytest.mark.parametrize("argv", _README_EXAMPLES, ids=lambda argv: " ".join(argv))
def test_readme_examples_share_one_report_envelope(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = Path(__file__).parent / "golden" / "exact" / "lattice25.json"
    (tmp_path / "lattice.json").write_text(golden.read_text())
    code, out = run_cli(argv)
    assert code == 0
    if "csv" in argv:
        assert out.startswith("x,value,method\n")
    else:
        keys = {"command", "inputs", "result"}
        if argv[0] in _TAKES_CONFIG:
            keys.add("settings")
        report = json.loads(out)
        assert report["command"] == argv[0]
        assert set(report) == keys
    target = tmp_path / "report.out"
    assert run_cli(["--output", str(target), *argv]) == (0, "")
    assert target.read_text() == out


def _run_module(*argv):
    src = str(Path(overflow_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "overflow_lab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point_prints_report():
    proc = _run_module("dimbound", "--variant", "C", "--n", "2", "--d", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["value"] == 6


def test_float_psi_literal_is_a_parse_error():
    proc = _run_module("selfint", "--psi", '["0","0.5"]', "--map", "z")
    assert proc.returncode == 2
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ParseError"
    assert "(at position 1)" in error["message"]


def test_boolean_psi_literal_is_a_parse_error():
    proc = _run_module("grelem", "--psi", "[0,true,false]", "--order", "4")
    assert proc.returncode == 2
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ParseError"
    assert "(at position 1)" in error["message"]


_LONG_INTEGER = "1" * 5000  # past Python's 4300-digit limit for int(str)


def test_over_long_psi_integer_exits_2():
    proc = _run_module("selfint", "--psi", f"[0,{_LONG_INTEGER}]", "--map", "z")
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("cc", ['"1e5000"', '"1e999999999"', "1e5000", "true", "false"])
def test_lattice_entries_pass_the_rational_guard(cc, tmp_path):
    # a term too long to print, an exponent Fraction would expand for
    # minutes, a JSON number that loads as inf, and booleans, which
    # Fraction would read as 1 and 0
    path = tmp_path / "lattice.json"
    path.write_text('{"labels": ["E"], "matrix": [["-1"]], "c": ["1"], "cc": %s}' % cc)
    proc = _run_module("equilibrium", "--lattice", str(path))
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "ConfigError"


def test_over_long_lattice_integer_exits_2(tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text('{"labels": ["E"], "matrix": [[-%s]], "c": [1], "cc": 0}' % _LONG_INTEGER)
    proc = _run_module("equilibrium", "--lattice", str(path))
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "ConfigError"


_ENTRY_LITERALS = [
    # integer literals, which int() reads without Fraction's regex
    "0", "-3", "+5", "-0", "007", " 7 ", "\t-12\n", "1_000", "1_0_0", "٣", "　7",
    "\x1c7", "9" * 4300, "1" * 4301, "0" * 4301,
    # everything else, read by _rational alone
    "3/2", " -6/4 ", "1/0", "0.25", "-.5", "1e3", "1E-2", "2.5e+1", "1e99999", "1e4301",
    "", " ", "abc", "+-5", "- 5", "1__0", "_1", "1_", "0x10", "1 000", "7.", "inf", "nan",
]


def _assert_entry_reads_as_rational_does(literal, path):
    from overflow_lab.cli import _load_lattice, _rational
    from overflow_lab.errors import ConfigError

    path.write_text(json.dumps({"labels": ["E"], "matrix": [[literal]], "c": [literal],
                                "cc": literal}))
    try:
        expected = _rational(literal)
    except argparse.ArgumentTypeError as exc:  # _load_lattice makes it a ConfigError
        with pytest.raises(ConfigError) as caught:
            _load_lattice(str(path))
        assert str(caught.value) == f"bad lattice entry: {exc}"
    else:
        lattice = _load_lattice(str(path))
        for value in (lattice.matrix[0][0], lattice.c[0], lattice.cc):
            assert type(value) is Fraction and value == expected


@pytest.mark.parametrize("literal", _ENTRY_LITERALS,
                         ids=lambda x: ascii(x) if len(x) < 20 else f"{x[0]}*{len(x)}")
def test_lattice_entry_literals_read_as_rational_does(literal, tmp_path):
    _assert_entry_reads_as_rational_does(literal, tmp_path / "lattice.json")


@pytest.mark.parametrize("literal", ["1" * 4301, "-" + "9" * 5000], ids=["4301", "-5000"])
def test_lattice_entry_past_the_term_bound_without_a_digit_limit(literal, tmp_path):
    # with the interpreter's digit limit off, int() reads any integer literal
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _assert_entry_reads_as_rational_does(literal, tmp_path / "lattice.json")
    finally:
        sys.set_int_max_str_digits(limit)


def test_lattice_entry_true_is_not_a_number(tmp_path):
    from overflow_lab.cli import _load_lattice
    from overflow_lab.errors import ConfigError

    path = tmp_path / "lattice.json"
    path.write_text('{"labels": ["E"], "matrix": [[true]], "c": ["1"], "cc": "0"}')
    with pytest.raises(ConfigError, match="bad lattice entry: true is not a number"):
        _load_lattice(str(path))


# -- the argv contract of the overflow command --------------------------------

_COEFFICIENT = st.one_of(
    st.integers(1, 9).map(str),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-400, 400)),
    st.builds("{}.{:02d}e-{}".format, st.integers(1, 9), st.integers(0, 99), st.integers(0, 330)),
    st.integers(1, 400).map(lambda digits: "9" * digits),
)
_POLY = st.builds(
    lambda sign, terms: sign + "+".join(terms),
    st.sampled_from(["", "-"]),
    st.lists(st.builds("{}*z^{}".format, _COEFFICIENT, st.integers(0, 12)), min_size=1, max_size=4),
)
_MAP = st.one_of(_POLY, st.builds("({})/({})".format, _POLY, _POLY))
_RADIUS = st.one_of(
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-330, 330)),
    st.sampled_from(["-1", "-2.5e3", "0", "nan", "inf", "1e-400"]),
)


@pytest.fixture(scope="module")
def cheap_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "cheap.json"
    path.write_text('{"grid": 8, "tol": 1e-3, "depth": 3}')
    return str(path)


@settings(max_examples=300, deadline=None)
@given(expr=_MAP, radius=_RADIUS, target=st.sampled_from(["C", "P1"]),
       method=st.sampled_from(["explicit", "oracle", "both"]), joined=st.booleans())
def test_overflow_argv_exits_0_2_or_3_with_json(cheap_config, expr, radius, target, method,
                                                 joined):
    # values go as --opt=value or as --opt value; a map starting with "-" is
    # then taken for an option, which must also end in a JSON error
    values = [("--map", expr), ("--radius", radius)]
    argv = [f"{k}={v}" for k, v in values] if joined else [x for kv in values for x in kv]
    start = time.monotonic()
    code, out = run_cli([
        "overflow", *argv, "--target", target, "--method", method, "--config", cheap_config,
    ])
    assert code in (0, 2, 3)
    body = json.loads(out)
    assert ("error" in body) == (code != 0)
    assert time.monotonic() - start < 1.0
