"""The console command's exit: ``entrypoint`` against ``main`` run in process.

``entrypoint`` runs ``main`` with the cyclic collector off and leaves by
``os._exit`` after flushing both streams.  These tests pin that a spawned
command writes exactly what ``main`` writes, with the same exit code, and
that ``main`` itself touches neither the collector nor the process exit.
"""

import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import overflow_lab
from overflow_lab.cli import entrypoint, main

_SRC = str(Path(overflow_lab.__file__).resolve().parents[1])
_ENTRYPOINT = "from overflow_lab.cli import entrypoint; entrypoint()"
#: how the console command left before it skipped teardown
_SYS_EXIT = "import sys; from overflow_lab.cli import main; sys.exit(main())"

_DIMBOUND = ["dimbound", "--variant", "C", "--n", "2", "--d", "1"]
_CASES = {
    "report": (_DIMBOUND, 0),
    # about 28 KB, more than the stream buffer
    "long report": (["grelem", "--psi", '[0,1,"123456789123456789/987654321987654321"]',
                     "--order", "60"], 0),
    "domain error": (["overflow", "--map", "z^2+z", "--radius", "1e-300"], 2),
    "no convergence": (["overflow", "--map", "z^5+z^2+z", "--radius", "1.3",
                        "--config", "{tight}"], 3),
    # the rejected value is echoed: a body of about 100 KB
    "argument error": (["blowup-chain", "--n", "1", "--cc", "x" * 100000], 2),
    "help": (["overflow", "--help"], 0),
}


def _env(buffered=True):
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    # buffered streams hold the tail of a report until the final flush
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _in_process(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width --help is laid out for
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, buffer.getvalue()


@pytest.fixture()
def tight_config(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text('{"grid": 4, "tol": 1e-15, "depth": 1}')
    return str(path)


@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("case", list(_CASES))
def test_spawned_command_writes_what_main_writes(case, sink, tight_config, tmp_path,
                                                 monkeypatch):
    argv, code = _CASES[case]
    argv = [arg.format(tight=tight_config) for arg in argv]
    want_code, want = _in_process(argv, monkeypatch)
    assert want_code == code
    command = [sys.executable, "-c", _ENTRYPOINT, *argv]
    if sink == "pipe":
        proc = subprocess.run(command, capture_output=True, env=_env(), timeout=60)
        out = proc.stdout
    else:
        with open(tmp_path / "stdout", "wb") as stdout:
            proc = subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE,
                                  env=_env(), timeout=60)
        out = (tmp_path / "stdout").read_bytes()
    assert proc.returncode == code
    assert proc.stderr == b""
    assert out.decode() == want


def test_spawned_output_file_holds_the_report(tmp_path, monkeypatch):
    _, want = _in_process(_DIMBOUND, monkeypatch)
    target = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", _ENTRYPOINT, "--output", str(target),
                           *_DIMBOUND], capture_output=True, env=_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert target.read_text() == want


def _to_closed_pipe(code, argv, buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the command writes
    try:
        return subprocess.run([sys.executable, "-c", code, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_env(buffered), timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [_DIMBOUND, _CASES["domain error"][0]],
                         ids=["report", "error"])
def test_closed_pipe_exits_as_sys_exit_does(argv, buffered):
    got = _to_closed_pipe(_ENTRYPOINT, argv, buffered)
    want = _to_closed_pipe(_SYS_EXIT, argv, buffered)
    assert got.returncode == want.returncode
    assert got.stderr.splitlines()[-1] == want.stderr.splitlines()[-1]
    assert got.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")
    if not buffered:  # the write itself fails, and its traceback escapes main
        assert got.returncode == 1 and b"Traceback" in got.stderr


@pytest.fixture()
def no_os_exit(monkeypatch):
    calls = []

    def refuse(code):
        calls.append(code)
        raise AssertionError(f"os._exit({code}) called")

    monkeypatch.setattr(os, "_exit", refuse)
    yield calls
    assert calls == []


@pytest.mark.parametrize("collector", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("argv", [
    _DIMBOUND,
    ["--output", "{tmp}/report.json", *_DIMBOUND],
    ["overflow", "--map", "z^2+z", "--radius", "1e-300"],
    ["overflow", "--bogus"],
    ["overflow", "--help"],
], ids=["report", "output file", "domain error", "argument error", "help"])
def test_main_leaves_the_collector_and_the_exit_alone(argv, collector, no_os_exit,
                                                      tmp_path, monkeypatch):
    was = gc.isenabled()
    (gc.enable if collector else gc.disable)()
    try:
        _in_process([arg.format(tmp=tmp_path) for arg in argv], monkeypatch)
        assert gc.isenabled() is collector
    finally:
        (gc.enable if was else gc.disable)()


def test_entrypoint_turns_the_collector_off_and_leaves_by_os_exit(monkeypatch, capsys):
    class Left(Exception):
        pass

    calls = []

    def record(code):
        calls.append((code, gc.isenabled()))
        raise Left

    monkeypatch.setattr(os, "_exit", record)
    monkeypatch.setattr(sys, "argv", ["overflow-lab", *_DIMBOUND])
    was = gc.isenabled()
    try:
        with pytest.raises(Left):
            entrypoint()
    finally:
        (gc.enable if was else gc.disable)()
    assert calls == [(0, False)]
    assert '"value":6' in capsys.readouterr().out
