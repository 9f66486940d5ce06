"""Self-test of the benchmark harness.

Run from the root of a checkout::

    python3 benchmarks/selftest.py

It measures two quick CLI tasks instead of a real workload and checks that
every declared metric is printed with its unit, that a wrong expectation
counts as a failed task, that the tracing wrappers are gone after a traced
run, and that the benchmark refuses to run without the package sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS thread variables before numpy is imported
import tracing
import workloads
from workloads import Task, check_closure, check_dfs

problems: list[str] = []


def expect(ok: bool, message: str):
    if not ok:
        problems.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def tiny_tasks(one_qubit_rank: int = 3) -> list[Task]:
    return [Task(("check", "--model", "one_qubit"),
                 check_closure("one_qubit", one_qubit_rank, 3, True, 2)),
            Task(("dfs", "--qubits", "2"), check_dfs(2, 6, 2))]


def measure(tasks, trace: bool) -> tuple[run.Runner, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runner = run.benchmark("selftest", tasks, run.DEFAULT_SEED, 0.1, trace)
    return runner, out.getvalue().splitlines()


def check_printed(lines: list[str], units: dict[str, str], label: str):
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    declared = {k: v for k, v in units.items() if k != run.FAILED_FRAC[0]}
    expect({k: m["unit"] for k, m in result["metrics"].items()} == declared,
           f"{label}: result metrics differ from BENCHMARK.json")
    for name, unit in units.items():
        expect(any(ln.startswith(f"metric {name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), f"{label}: {name} not printed with unit {unit}")


def main() -> int:
    runner, lines = measure(tiny_tasks(), trace=False)
    expect(runner.failed == 0, f"correct tiny tasks failed: {runner.problems}")
    check_printed(lines, dict([*run.END_TO_END.items(), run.FAILED_FRAC]), "untraced")

    before = [(id(ns), attr, fn) for ns, attr, fn in tracing.bindings()]
    expect(len(before) > 40, f"only {len(before)} traced bindings found")
    runner, lines = measure(tiny_tasks(), trace=True)
    expect(runner.failed == 0, f"traced tiny tasks failed: {runner.problems}")
    check_printed(lines, run.PER_LAYER, "traced")
    after = [(id(ns), attr, fn) for ns, attr, fn in tracing.bindings()]
    expect(len(after) == len(before) and all(
        a[:2] == b[:2] and a[2] is b[2] for a, b in zip(before, after)),
        "tracing wrappers left in place after a traced run")
    from qdecouple import cli
    original = cli.run_command
    with tracing.installed(tracing.Tracer()):
        expect(cli.run_command.__wrapped__ is original,
               "installed() did not wrap cli.run_command")
    expect(cli.run_command is original, "cli.run_command not restored")

    # the wrongly pinned task comes first in the list, so it runs on every
    # odd attempt
    runner, lines = measure(tiny_tasks(one_qubit_rank=4), trace=False)
    frac = f"metric {run.FAILED_FRAC[0]} = {runner.failed / runner.attempted:.6g} ratio"
    expect(runner.failed and runner.failed == (runner.attempted + 1) // 2 and frac in lines
           and json.loads(lines[-1])["correct"] is False,
           f"a wrong expected rank gave {runner.failed} of {runner.attempted} failed")

    # a directory holding only BENCHMARK.json and the benchmark must be refused
    run.RUNS_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.RUNS_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).parent, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                               workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=120)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"bare directory gave exit {proc.returncode}: {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)

    print("selftest: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
