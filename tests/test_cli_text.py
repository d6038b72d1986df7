"""The command line's own text, byte for byte: the top-level and per-command
``--help`` and the usage errors, with their exit codes, at 80 columns.

The texts in ``data/cli_text.json`` come from the parser that built every
subcommand's arguments up front; a parser that builds them later must print
the same bytes.  argparse words its messages differently between Python
versions, so the comparison runs under the version that wrote the file.
Regenerate (only when the text is meant to change) with
``COLUMNS=80 PYTHONPATH=src python tests/test_cli_text.py``.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from overflow_lab.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_text.json"
COMMANDS = ["overflow", "selfint", "dinv", "holonomy-bound", "dimbound", "grelem",
            "equilibrium", "blowup-chain", "sample-diffeo", "jacobian-check",
            "measure-mc"]
CASES = {
    "help": ["--help"],
    **{f"help-{name}": [name, "--help"] for name in COMMANDS},
    "unknown-command": ["nosuch"],
    "no-command": [],
    "missing-required": ["overflow", "--radius", "1"],
    "bad-choice": ["overflow", "--map", "z", "--radius", "1", "--target", "Q"],
    "bad-type": ["selfint", "--psi", "[0, 1]", "--map", "z", "--order", "x"],
    "unrecognized": ["dimbound", "--n", "3", "--bogus"],
}
VERSION = f"{sys.version_info[0]}.{sys.version_info[1]}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_text_is_byte_identical(case, monkeypatch):
    golden = _golden()
    if golden["python"] != VERSION:
        pytest.skip(f"texts written under Python {golden['python']}, running {VERSION}")
    monkeypatch.setenv("COLUMNS", "80")
    assert golden["cases"][case]["argv"] == CASES[case]
    got = _run(CASES[case])
    want = {key: golden["cases"][case][key] for key in ("code", "stdout", "stderr")}
    assert got == want


def test_every_command_has_its_help_pinned():
    # a command added to the parser is added here too
    from overflow_lab.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert list(sub.choices) == COMMANDS


if __name__ == "__main__":
    cases = {name: {"argv": argv, **_run(argv)} for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps({"python": VERSION, "cases": cases}, indent=1,
                                 sort_keys=True) + "\n")
