"""qdecouple benchmark: CLI workloads timed end to end, and a traced run per layer.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload verdicts --seed 1 --seconds 58 --trace 0

The workload's task list (see ``workloads.py``) runs through
``qdecouple.cli.run_command`` in this one process, one command after the
other (a closed loop with a single client), and goes round the list while
the next task still fits in ``--seconds``.  Every task's exit code, report
and CSV are checked against pinned expectations.  The CLI has no lazy
set-up worth warming: a command's first call costs a few ms more than the
next.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s`` - time of one pass over the task list at the rate of the
  whole run: the sum over tasks of each task's mean wall time;
* ``setup_s`` - median wall time of a fresh interpreter that imports
  ``qdecouple.cli`` (with NumPy and SciPy), over several interpreters
  started between tasks across the run;
* ``peak_rss_mb`` - peak resident set size of this process.

``failed_frac`` (failed tasks / attempted tasks) is printed beside them and
feeds the ``failed`` count of the result; it is 0 when the program is right,
so it is not a bounded metric.

``--trace 1`` alternates untraced and traced passes over the same inputs,
checks that their reports and CSVs are byte-identical, and prints the
per-layer metrics of the traced passes (medians over passes) plus
``trace.overhead_frac``.  The spans are written, gzipped, into the run's
directory under ``.bench_runs/``.

Only ``trajectories`` has seeded inputs: the seed draws the random initial
state of its ``simulate`` command.  The default seed is 20101; seed 77003
is held back for checking claims made with the default one.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# pinned before anything imports numpy, here and in the set-up interpreters
for _var in THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
DEFAULT_SEED = 20101
SETUP_REPEATS = 7

# metric names and units are declared once, in BENCHMARK.json
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# printed beside the end-to-end metrics but reported through the result's
# `failed` count: it is 0 whenever the program is right
FAILED_FRAC = ("failed_frac", "ratio")

_RUNTIME = re.compile(rb"runtime [0-9.]+s")


def run_record(seed: int, workload: str, trace: bool) -> dict:
    """Host, library and source facts stored with every run."""
    import numpy
    import scipy

    def blas(config) -> str:
        try:
            dep = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError):
            return "unknown"

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_env": {v: os.environ[v] for v in THREAD_VARIABLES},
        "src_lines": src_lines,
    }


def time_setup() -> float:
    """Wall time of a fresh interpreter importing qdecouple.cli."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import qdecouple.cli"], env=env,
                          cwd=str(ROOT), capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"importing qdecouple.cli failed:\n{proc.stderr.decode()}")
    return elapsed


class Runner:
    """Runs task lists into one scratch output directory and checks them."""

    def __init__(self, run_dir: Path, config_path: Path):
        self.out_dir = run_dir / "out"
        self.config_path = config_path
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.python_warnings = 0

    def run_pass(self, tasks) -> tuple[float, list[bytes], int]:
        """One pass: summed task wall time, per-task output digests, bytes out."""
        results = [self.run_task(task) for task in tasks]
        return (sum(r[0] for r in results), [r[1] for r in results],
                sum(r[2] for r in results))

    def run_task(self, task) -> tuple[float, bytes, int]:
        """One task: its wall time, its output digest and the bytes it wrote.

        A task that fails gets an empty digest.
        """
        # looked up on every call, so that a traced pass gets the wrapper
        from qdecouple.cli import run_command

        argv = [str(self.config_path) if a == workloads.CONFIG_PLACEHOLDER else a
                for a in task.argv]
        argv += ["--output-dir", str(self.out_dir)]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        stdout = io.StringIO()
        self.attempted += 1
        wall = 0.0
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout):
                warnings.simplefilter("always")
                start = time.perf_counter()
                code = run_command(argv)
                wall = time.perf_counter() - start
            self.python_warnings += len(caught)
        except Exception:
            self.fail(task, ["raised:\n" + traceback.format_exc()])
            return wall, b"", 0
        files = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        shutil.rmtree(self.out_dir, ignore_errors=True)
        outputs = workloads.Outputs(code, stdout.getvalue(), files)
        try:
            problems = task.check(outputs)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            self.fail(task, problems)
        out_bytes = len(outputs.stdout.encode()) + sum(map(len, files.values()))
        return wall, b"" if problems else digest(outputs), out_bytes

    def fail(self, task, problems: list[str]):
        self.failed += 1
        for p in problems:
            line = f"FAILED {task.label}: {p}"
            self.problems.append(line)
            print(line, file=sys.stderr)


def digest(outputs) -> bytes:
    """Hash of stdout, exit code and every file, with compare's runtime masked.

    The compare report prints each run's wall time, the only output that
    legitimately differs between two runs of the same inputs.
    """
    h = hashlib.sha256(f"{outputs.exit_code}\n".encode())
    h.update(_RUNTIME.sub(b"runtime <masked>", outputs.stdout.encode()))
    for name, data in outputs.files.items():
        h.update(name.encode() + b"\0" + _RUNTIME.sub(b"runtime <masked>", data) + b"\0")
    return h.digest()


def measure(tasks, seconds: float, trace: bool, run_dir: Path,
            config_path: Path) -> tuple[Runner, dict[str, float], dict[str, list]]:
    """Run `tasks` over and over for about `seconds`.

    Returns the runner, the metrics and the wall times measured.
    """
    runner = Runner(run_dir, config_path)
    start = time.perf_counter()
    if not trace:
        # Task by task, round the list, until the next task would end past
        # `seconds`, and never before every task has run once.  wall_s is a
        # pass's time at the rate the whole run achieved: the sum of each
        # task's mean time.  The host's speed drifts over tens of seconds,
        # and a mean over the full run averages that drift better than the
        # median of the few passes that fit in it.
        # The set-up interpreters are spread over the run in the same way.
        times: list[list[float]] = [[] for _ in tasks]
        setups: list[float] = []
        for i in itertools.cycle(range(len(tasks))):
            elapsed = time.perf_counter() - start
            if all(times) and elapsed + statistics.fmean(times[i]) > seconds:
                break
            if len(setups) < SETUP_REPEATS * elapsed / seconds:
                setups.append(time_setup())
            times[i].append(runner.run_task(tasks[i])[0])
        while len(setups) < SETUP_REPEATS:
            setups.append(time_setup())
        metrics = {"wall_s": sum(statistics.fmean(t) for t in times),
                   "setup_s": statistics.median(setups)}
        return runner, metrics, {"untraced_by_task": times, "setup": setups}

    import tracing

    plain, traced, layers = [], [], []
    while not plain or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        wall, reference, out_bytes = runner.run_pass(tasks)
        plain.append(wall)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            wall, seen, _ = runner.run_pass(tasks)
        traced.append(wall)
        for task, a, b in zip(tasks, reference, seen):
            if a != b:
                runner.fail(task, ["traced outputs differ from the untraced run's"])
        layers.append({**tracer.layer_metrics(), "cli.output_bytes": out_bytes})
    tracer.write(str(run_dir / "spans.tsv.gz"))
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return runner, metrics, {"untraced": plain, "traced": traced}


def result_line(runner: Runner, metrics: dict[str, float], trace: bool) -> str:
    units = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qdecouple" / "cli.py").is_file():
        print(f"error: no qdecouple sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    benchmark(args.workload, workloads.workload_tasks(args.workload), args.seed,
              args.seconds, bool(args.trace))
    return 0


def benchmark(workload: str, tasks, seed: int, seconds: float, trace: bool) -> Runner:
    """Measure one workload and print its metrics, ending with the result line."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=RUNS_DIR))
    config_path = run_dir / "random_state.cfg"
    config_path.write_text(workloads.random_state_config(seed), encoding="utf-8")

    record = run_record(seed, workload, trace)
    runner, metrics, timings = measure(tasks, seconds, trace, run_dir, config_path)
    if not trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics[FAILED_FRAC[0]] = runner.failed / runner.attempted
    record.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, python_warnings=runner.python_warnings,
                  timings=timings)
    (run_dir / "run.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1)
                                      + "\n", encoding="utf-8")

    units = PER_LAYER if trace else dict([*END_TO_END.items(), FAILED_FRAC])
    print("run " + json.dumps(record))
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(result_line(runner, metrics, trace))
    return runner


if __name__ == "__main__":
    sys.exit(main())
