import ast
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
