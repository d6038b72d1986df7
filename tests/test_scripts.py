import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overflow_lab
from overflow_lab.quadrature import QuadratureSettings

SCRIPTS = Path(overflow_lab.__file__).resolve().parents[2] / "scripts"


def _run_script(name, *argv, cwd):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each script puts src/ on its own path
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def test_measure_grid_writes_one_report_per_cell(tmp_path):
    out = tmp_path / "grid.json"
    proc = _run_script("run_measure_grid.py", "--samples", "200", "--out", str(out),
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    grid = json.loads(out.read_text())["grid"]
    assert len(grid) == 5
    for cell in grid:
        assert cell["report"]["samples"] == 200
        assert set(cell["report"]) >= {"estimate", "stderr", "paper_bound", "product_bound"}


def test_asymptotics_writes_csv_and_fit(tmp_path):
    proc = _run_script("run_asymptotics.py", "--maps", "z^3+z", "--radii", "10,31.6,100",
                       "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    (sweep,) = json.loads((tmp_path / "out" / "summary.json").read_text())["sweeps"]
    assert sweep["map"] == "z^3+z"
    assert sweep["fit"]["radii"] == [10.0, 31.6, 100.0]
    # z^3 + z has d - e = 2 and excess (d - e) log r - log|a_e / a_d| at large r
    assert abs(sweep["fit"]["slope"] - 2.0) < 1e-2
    rows = (tmp_path / "out" / "excess_z3+z.csv").read_text().splitlines()
    assert rows[0] == "x,value,method" and len(rows) == 4


def test_torus_kernel_agreement_on_two_maps(tmp_path):
    proc = _run_script("torus_kernel_agreement.py", "--set", "adversarial", "--limit", "2",
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    *rows, summary = proc.stdout.splitlines()
    assert [row.split()[1] for row in rows] == ["3-z-3*z^2-z^3-z^4+3*z^5", "z^8"]
    summary = json.loads(summary)
    assert summary["largest_gap"] <= 1e-12
    assert summary["fallback_rows"] == 0 and summary["rows"] > 0
    assert 0.0 <= summary["direct_s"] <= summary["seconds"]


def test_overclaim_report_on_two_maps(tmp_path):
    proc = _run_script("overclaim_report.py", "--limit", "2", "--settings", "defaults",
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    *rows, summary = proc.stdout.splitlines()
    assert [row.split()[:2] for row in rows] == [["defaults", "explicit"], ["defaults", "oracle"]]
    summary = json.loads(summary)
    assert list(summary) == ["defaults"]
    for counts in summary["defaults"].values():
        assert counts["entries"] == 2 and counts["failed"] == 0
        assert 0 <= counts["over_tol"] <= counts["over_achieved"] <= 2


#: Upper bounds on the overclaims of the 48 excess-c entries, (over_achieved,
#: over_tol) per setting and route.  A change that lowers a count lowers its
#: bound with it; none may rise.
OVERCLAIM_BOUNDS = {
    "defaults": {"explicit": (11, 4), "oracle": (0, 0)},
    "criterion_7": {"explicit": (9, 2), "oracle": (0, 0)},
}


@pytest.mark.parametrize("setting", sorted(OVERCLAIM_BOUNDS))
@pytest.mark.parametrize("route", ["explicit", "oracle"])
def test_overclaims_do_not_rise(setting, route):
    spec = importlib.util.spec_from_file_location("overclaim_report",
                                                  SCRIPTS / "overclaim_report.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    table = json.loads(report.TABLE.read_text())
    entries = [e for e in table["entries"] if e["source"] == "excess-c"]
    cfg = table["settings"][setting]
    settings = QuadratureSettings(cfg["grid"], cfg["tol"], cfg["depth"])
    counts = report.count(report.ROUTES[route], entries, settings)
    over_achieved, over_tol = OVERCLAIM_BOUNDS[setting][route]
    assert counts["entries"] == 48
    assert counts["failed"] == 0
    assert counts["over_achieved"] <= over_achieved, counts
    assert counts["over_tol"] <= over_tol, counts
