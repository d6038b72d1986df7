import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overflow_lab
from overflow_lab.cli import canonical_json, main


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
        assert report["settings"] == {"grid": 64, "tol": 1e-6, "depth": 9}

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
        assert json.loads(out)["error"]["type"] == "NoConvergence"

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


    @pytest.mark.parametrize("body", ['{"grid": "x"}', '{"tol": null}', '{"depth": [1]}'])
    def test_bad_config_value_rejected(self, body, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(body)
        code, out = run_cli([
            "overflow", "--map", "z", "--radius", "1", "--config", str(cfg),
        ])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"

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
    ])
    def test_argument_errors_exit_2_with_json(self, argv):
        proc = _run_module(*argv)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "ConfigError"
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
    """Canonical oracle reports (tol 1e-8) recorded before the root solver changed."""
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
