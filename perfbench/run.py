#!/usr/bin/env python3
"""Benchmark the overflow-lab CLI on a seeded workload.

    python3 perfbench/run.py --workload excess-c --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each command of the workload runs
the way a CLI user runs it: in a fresh interpreter through
``overflow_lab.cli``, one after another (closed loop, one client), with
BLAS and OVERFLOW_LAB_THREADS capped at one thread.  Every report is checked.

``--trace 0`` prints the end-to-end metrics; on a workload with several
passes (``workloads.PASSES``) it runs the list that many times and sums each
command's median time.  ``--trace 1`` builds the list
for half of ``--seconds``, runs it twice, untraced and then under
``tracer.py``, and prints the per-layer metrics.  The last stdout line is the JSON result; the lines
before it give the machine block, one line per command and absent metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import machine  # noqa: E402
import perlayer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
WORK = ".perfbench_work"
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 5

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "OVERFLOW_LAB_THREADS": "1",
}

CLI_CODE = "from overflow_lab.cli import entrypoint; entrypoint()"


@dataclass
class Result:
    cmd: workloads.Command
    rc: int
    stdout: str
    wall: float
    t_spawn: float
    rusage: Optional[dict]
    trace: Optional[dict]
    verdict: checks.Verdict
    digest: str


def child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, env: dict, workdir: Path, deadline: float):
    """Run argv to completion; (rc, stdout, wall, t_spawn, rusage)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(deadline - t_spawn, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
    rusage = {"user_s": ru.ru_utime, "sys_s": ru.ru_stime,
              "maxrss_mb": ru.ru_maxrss / 1024.0, "minflt": ru.ru_minflt}
    return proc.returncode, out_path.read_text(errors="replace"), wall, t_spawn, rusage


def run_pass(cmds: list, traced: bool, workdir: Path, deadline: float) -> list:
    env = child_env()
    results = []
    for i, cmd in enumerate(cmds):
        if time.monotonic() >= deadline:
            results.append(Result(cmd, -1, "", 0.0, 0.0, None, None,
                                  checks.Verdict(False, False, "not run: time limit"), ""))
            continue
        if traced:
            trace_path = workdir / f"trace-{i}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *cmd.argv]
        else:
            argv = [sys.executable, "-c", CLI_CODE, *cmd.argv]
        rc, stdout, wall, t_spawn, rusage = spawn(argv, env, workdir, deadline)
        trace = None
        if traced and trace_path.is_file():
            trace = json.loads(trace_path.read_text())
        verdict = checks.check(cmd, rc, stdout)
        digest = hashlib.sha256(stdout.encode()).hexdigest()[:16]
        results.append(Result(cmd, rc, stdout, wall, t_spawn, rusage, trace, verdict, digest))
    return results


def setup(workload: str, seed: int, rounds: int, workdir_rel: str):
    """Generate the inputs and warm the OS file cache with one interpreter start.

    Done SETUP_REPEATS times; returns the last command list and the median time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        cmds, files = workloads.build(workload, seed, rounds, workdir_rel)
        files.write(ROOT)
        subprocess.run([sys.executable, "-c", "import overflow_lab.cli"],
                       env=child_env(), cwd=ROOT, check=True)
        times.append(time.monotonic() - t0)
    return cmds, statistics.median(times)


def end_to_end(untraced: list, setup_s: float) -> dict:
    """Metrics of one or more untraced passes over the same command list."""
    results = [r for results in untraced for r in results]
    passed = sum(r.verdict.ok for r in results)
    wall = sum(statistics.median(r.wall for r in runs) for runs in zip(*untraced))
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "mean_rss_mb": {"value": statistics.mean(r.rusage["maxrss_mb"] for r in results
                                                 if r.rusage), "unit": "MB"},
        "ok_frac": {"value": passed / len(results), "unit": "ratio"},
    }


def check_metrics(results: list) -> dict:
    gaps = [r.verdict.gap for r in results if r.verdict.ok and r.verdict.gap is not None]
    failed = sum(not r.verdict.ok for r in results)
    return {
        "checks.route_gap_max": {"value": max(gaps, default=0.0), "unit": "abs"},
        "checks.fail_frac": {"value": failed / len(results), "unit": "ratio"},
    }


def describe(results: list, label: str) -> None:
    for i, r in enumerate(results):
        status = "ok" if r.verdict.ok else ("WRONG" if r.verdict.wrong else "failed")
        note = "" if r.verdict.ok else f"  ({r.verdict.reason})"
        print(f"{label} {i:3d} {r.wall:7.3f}s rc={r.rc} {status:6s} {r.digest} "
              f"{' '.join(r.cmd.argv)[:110]}{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every command's record to this JSON file")
    args = parser.parse_args()

    t_start = time.monotonic()
    if not (ROOT / "src" / "overflow_lab" / "cli.py").is_file():
        print(f"perfbench: no src/overflow_lab/cli.py under {ROOT}; "
              "run from the root of an overflow-lab checkout", file=sys.stderr)
        return 2

    rel = f"{WORK}/{args.workload}-{args.seed}"
    workdir = ROOT / rel
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = 1 if args.trace else workloads.PASSES.get(args.workload, 1)
        rounds = workloads.rounds_for(args.workload, seconds, passes)
        cmds, setup_s = setup(args.workload, args.seed, rounds, rel)
        machine_block = machine.describe(ROOT, args.seed, THREAD_CAPS)
        print("machine " + json.dumps(machine_block, sort_keys=True))
        deadline = t_start + RUN_LIMIT_S
        plain = run_pass(cmds, False, workdir, deadline)
        describe(plain, "run")
        checked = list(plain)
        untraced = [plain]
        for k in range(2, passes + 1):
            again = run_pass(cmds, False, workdir, deadline)
            describe(again, f"run{k}")
            for p, a in zip(plain, again):
                if a.rc != -1 and p.digest != a.digest:
                    a.verdict = checks.Verdict(False, True, "report differs between passes")
            untraced.append(again)
            checked += again
        if args.trace:
            traced = run_pass(cmds, True, workdir, deadline)
            describe(traced, "traced")
            for p, t in zip(plain, traced):
                if p.digest != t.digest:
                    t.verdict = checks.Verdict(False, True, "tracing changed the report")
            checked += traced
            metrics, absent = perlayer.per_layer(perlayer.Traces(traced, plain))
            metrics.update(check_metrics(plain))
            if absent:
                print("absent (hook missing): " + ", ".join(absent))
        else:
            metrics = end_to_end(untraced, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORK).rmdir()
        except OSError:
            pass

    digest = hashlib.sha256("".join(r.digest for r in plain).encode()).hexdigest()[:16]
    print(f"workload {args.workload} seed {args.seed}: {len(cmds)} commands, "
          f"{rounds} rounds, {passes} passes, output digest {digest}")
    result = {
        "correct": not any(r.verdict.wrong for r in checked),
        "attempted": sum(len(results) for results in untraced),
        "failed": sum(not r.verdict.ok for results in untraced for r in results),
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "passes": passes, "machine": machine_block,
            "output_digest": digest, "result": result,
            "commands": [{"argv": r.cmd.argv, "rc": r.rc, "digest": r.digest,
                          "wall_s": r.wall, "pass_wall_s": [u[i].wall for u in untraced],
                          "rusage": r.rusage, "ok": r.verdict.ok,
                          "reason": r.verdict.reason} for i, r in enumerate(plain)],
        }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
