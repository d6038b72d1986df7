import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overflow_lab

SOURCES = sorted(Path(overflow_lab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_from_sibling_modules(path):
    # a name a module keeps private stays inside it; siblings use its public API
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("overflow_lab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def _numpy_or_float(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"]
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        return [node.module]
    if isinstance(node, ast.Name) and node.id == "float":
        return ["float"]
    return []


@pytest.mark.parametrize("name", ["series.py", "lattice.py"])
def test_exact_layers_stay_exact_and_numpy_free(name):
    # exact arithmetic only, and importing them must not pull in numpy
    path = Path(overflow_lab.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"line {node.lineno}: {label}"
        for node in ast.walk(tree)
        for label in _numpy_or_float(node)
    ]
    assert not found, f"{name} uses numpy or float: {found}"


# -- what each command loads ---------------------------------------------------

REPO = Path(overflow_lab.__file__).resolve().parents[2]
NUMERIC_LAYERS = {f"overflow_lab.{name}" for name in (
    "maps", "quadrature", "potential", "overflow", "arithmetic", "lattice", "diffeo")}
LATTICE = REPO / "tests" / "golden" / "exact" / "lattice25.json"


def _modules_after(code):
    """Names in sys.modules after running code in a fresh interpreter."""
    src = str(Path(overflow_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_numeric_layer():
    loaded = _modules_after("import overflow_lab.cli")
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded  # reports find records by their fields
    assert not loaded & NUMERIC_LAYERS
    assert {"overflow_lab.errors", "overflow_lab.series"} <= loaded


def test_importing_the_float_layers_calls_no_lapack():
    # the first LAPACK call raises resident memory by about 1 MB, a cost only
    # the commands that solve roots should pay, when they run
    _modules_after(
        "import numpy.linalg\n"
        "calls = []\n"
        "for name in numpy.linalg.__all__:\n"
        "    f = getattr(numpy.linalg, name)\n"
        "    if callable(f) and not isinstance(f, type):\n"
        "        setattr(numpy.linalg, name,\n"
        "                lambda *a, _name=name, _f=f, **k: calls.append(_name) or _f(*a, **k))\n"
        "import overflow_lab.overflow, overflow_lab.quadrature\n"
        "assert 'overflow_lab.overflow' in sys.modules\n"
        "assert calls == [], calls"
    )


def test_lattice_commands_never_load_numpy():
    loaded = _modules_after(
        "from overflow_lab.cli import main\n"
        f"assert main(['equilibrium', '--lattice', {str(LATTICE)!r}]) == 0\n"
        "assert main(['blowup-chain', '--n', '5', '--cc', '1/2']) == 0"
    )
    assert "overflow_lab.lattice" in loaded
    assert "numpy" not in loaded


def test_grelem_and_dimbound_never_load_numpy():
    loaded = _modules_after(
        "from overflow_lab.cli import main\n"
        "assert main(['grelem', '--psi', '[0, 2, 1]', '--order', '6']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "assert main(['dimbound', '--variant', 'CNB', '--n', '7', '--cd', '3/2',"
        " '--mu', '2']) == 0\n"
        "assert main(['dimbound', '--n', '7', '--d', '2']) == 0"
    )
    assert "overflow_lab.arithmetic" in loaded
    assert "numpy" not in loaded
    assert not loaded & (NUMERIC_LAYERS - {"overflow_lab.arithmetic"})


COMMANDS = {
    "overflow": ["overflow", "--map", "z^2+z", "--radius", "1"],
    "selfint": ["selfint", "--psi", '["0","1/3"]', "--map", "3*z"],
    "equilibrium": ["equilibrium", "--lattice", str(LATTICE)],
    "blowup-chain": ["blowup-chain", "--n", "5", "--cc", "1/2"],
    "grelem": ["grelem", "--psi", "[0, 2, 1]", "--order", "6"],
    "dimbound": ["dimbound", "--n", "7", "--d", "2"],
    "measure-mc": ["measure-mc", "--e", "1", "--a", "2", "--rho", "2", "--box-radius", "1",
                   "--level", "2", "--samples", "500"],
}
NUMPY_FREE = {"equilibrium", "blowup-chain", "grelem", "dimbound"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_load_no_dataclasses(command):
    # records are plain classes; the commands that never load numpy also
    # never load inspect, which dataclasses would import
    loaded = _modules_after(
        "from overflow_lab.cli import main\n"
        f"assert main({COMMANDS[command]!r}) == 0"
    )
    assert "dataclasses" not in loaded
    if command in NUMPY_FREE:
        assert "inspect" not in loaded and "numpy" not in loaded


def test_overflow_command_loads_no_exact_layer(tmp_path):
    config = tmp_path / "cheap.json"
    config.write_text('{"grid": 16, "tol": 1e-4, "depth": 6}')
    loaded = _modules_after(
        "from overflow_lab.cli import main\n"
        f"assert main(['overflow', '--map', 'z^2+z', '--radius', '1', '--method', 'both',"
        f" '--config', {str(config)!r}]) == 0"
    )
    assert "overflow_lab.overflow" in loaded
    assert not loaded & {"overflow_lab.arithmetic", "overflow_lab.lattice",
                         "overflow_lab.diffeo"}


def test_every_traced_hook_is_defined_by_its_layer():
    # the benchmark tracer imports every layer and hooks each public function
    # by its __module__; no hook may go missing when imports move
    loaded = _modules_after(
        "sys.path.insert(0, 'perfbench')\n"
        "import tracer\n"
        "assert tracer.install(tracer.Recorder()) == []\n"
        "assert len(tracer.LAYERS) == 9"
    )
    assert NUMERIC_LAYERS <= loaded
