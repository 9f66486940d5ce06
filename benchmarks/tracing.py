"""Span tracing for the benchmark, installed from outside the package.

:func:`installed` replaces every public function of the traced modules at
every place it is bound (the defining module, each ``from .x import f``
copy, the package namespace and ``cli.MODEL_BUILDERS``) and the two
``sample`` methods with wrappers that record one span per call.  The
originals are put back when the context exits, also on error.

Spans stay in memory as ``(name, parent, start, end)`` tuples, parent being
the index of the enclosing span or -1; :meth:`Tracer.write` saves them when
the run ends.  Counts the per-layer metrics need (ranks, steps, warnings,
aborts) are taken from arguments, return values and exceptions seen at the
wrapped boundary.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict

TRACED_MODULES = ("operators", "invariance", "geometry", "models", "synthesis",
                  "simulator", "cli")

# private functions that are a layer boundary of their own: the comparison
# CSV is written by compare_decoupling through this helper
EXTRA_FUNCTIONS = {"simulator": ("_write_compare_csv",)}

SAMPLE_METHODS = {"synthesis.FeedbackSynthesizer.sample": "synthesis.lsq_sample",
                  "synthesis.ProtectiveSynthesizer.sample": "synthesis.protective_sample"}

_INTEGRATORS = {"simulator.integrate_open_loop", "simulator.integrate_closed_loop",
                "simulator.propagate_piecewise_exact"}
_CHECKS = {"invariance.check_open_loop_invariance",
           "invariance.check_controller_necessary"}
_CSV = {"simulator.write_trajectory_csv", "simulator._write_compare_csv"}


class Tracer:
    """In-memory span recorder with per-name self time and boundary counts."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, args, kwargs):
        if name == "operators.commutator" and self._active["invariance.generate_ctilde"]:
            self.counts["ctilde_commutators"] += 1
        if name == "operators.span_membership" and \
                self._active["synthesis.build_invariant_basis"]:
            self.counts["basis_span_tests"] += 1
        index = len(self.spans)
        self.spans.append((name, self._stack[-1] if self._stack else -1, 0.0, 0.0))
        self._stack.append(index)
        self._child.append(0.0)
        self._active[name] += 1
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            covered = self._child.pop()
            if self._child:
                self._child[-1] += end - start
            self.spans[index] = (name, self.spans[index][1], start, end)
            self.self_s[name] += (end - start) - covered
            self.calls[name] += 1
            self._observe(name, result if error is None else None, error)
        return result

    def _observe(self, name: str, result, error):
        c = self.counts
        if error is not None:
            kind = type(error).__name__
            if name in _INTEGRATORS and kind == "NormGuardError":
                c["norm_guard_aborts"] += 1
            if name == "synthesis.lsq_sample" and kind == "DegenerateStateError":
                c["degenerate"] += 1
            return
        if name == "invariance.generate_ctilde":
            c["ctilde_rank_sum"] += result.rank
            c["ctilde_unconverged"] += not result.converged
        elif name == "synthesis.lsq_sample":
            c["lsq_warnings"] += len(result.warnings)
        elif name in _INTEGRATORS:
            c["steps"] += result.times.size - 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def write(self, path: str):
        """Save the spans as tab-separated index, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded so far, as BENCHMARK.json names them."""
        s, n, c = self.self_s, self.calls, self.counts

        def total(names):
            return sum(s[k] for k in names)

        def per_call_us(name):
            return 1e6 * s[name] / n[name] if n[name] else 0.0

        integrate_s = total(_INTEGRATORS)
        builders = [k for k in n if k.startswith("models.build_")]
        return {
            "operators.commutator.calls": n["operators.commutator"],
            "operators.commutator.self_s": s["operators.commutator"],
            "operators.span_membership.calls": n["operators.span_membership"],
            "operators.span_membership.self_s": s["operators.span_membership"],
            "invariance.generate_ctilde.calls": n["invariance.generate_ctilde"],
            "invariance.generate_ctilde.self_s": s["invariance.generate_ctilde"],
            "invariance.generate_ctilde.rank_sum": c["ctilde_rank_sum"],
            "invariance.generate_ctilde.unconverged": c["ctilde_unconverged"],
            "invariance.generate_ctilde.accept_ratio":
                c["ctilde_rank_sum"] / c["ctilde_commutators"]
                if c["ctilde_commutators"] else 0.0,
            "invariance.checks.self_s": total(_CHECKS),
            "invariance.find_dfs_coherences.self_s": s["invariance.find_dfs_coherences"],
            "geometry.kernel_dy_member.calls": n["geometry.kernel_dy_member"],
            "geometry.kernel_dy_member.self_s": s["geometry.kernel_dy_member"],
            "models.build.calls": sum(n[k] for k in builders),
            "models.build.self_s": total(builders),
            "synthesis.build_invariant_basis.calls": n["synthesis.build_invariant_basis"],
            "synthesis.build_invariant_basis.self_s": s["synthesis.build_invariant_basis"],
            "synthesis.build_invariant_basis.span_tests": c["basis_span_tests"],
            "synthesis.lsq_sample.calls": n["synthesis.lsq_sample"],
            "synthesis.lsq_sample.self_s": s["synthesis.lsq_sample"],
            "synthesis.lsq_sample.us_per_call": per_call_us("synthesis.lsq_sample"),
            "synthesis.lsq_sample.degenerate": c["degenerate"],
            "synthesis.lsq_sample.warnings": c["lsq_warnings"],
            "synthesis.protective_sample.calls": n["synthesis.protective_sample"],
            "synthesis.protective_sample.self_s": s["synthesis.protective_sample"],
            "synthesis.protective_sample.us_per_call":
                per_call_us("synthesis.protective_sample"),
            "simulator.steps": c["steps"],
            "simulator.integrate.self_s": integrate_s,
            "simulator.step_self_us": 1e6 * integrate_s / c["steps"] if c["steps"] else 0.0,
            "simulator.norm_guard_aborts": c["norm_guard_aborts"],
            "simulator.compare.self_s": s["simulator.compare_decoupling"],
            "simulator.csv.self_s": total(_CSV),
            "cli.run_command.self_s": s["cli.run_command"],
        }


def _module(name: str):
    return importlib.import_module(f"qdecouple.{name}")


def bindings() -> list[tuple[object, str, object]]:
    """Every (namespace, attribute, function) place a traced callable is bound.

    The namespace is a module, the ``cli.MODEL_BUILDERS`` dict or a class.
    """
    originals: dict[int, str] = {}
    for mod_name in TRACED_MODULES:
        mod = _module(mod_name)
        names = list(mod.__all__) + list(EXTRA_FUNCTIONS.get(mod_name, ()))
        for attr in names:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                originals[id(obj)] = f"{mod_name}.{attr}"
    found = []
    package = importlib.import_module("qdecouple")
    for mod in [package] + [_module(m) for m in TRACED_MODULES]:
        for attr, obj in vars(mod).items():
            if id(obj) in originals:
                found.append((mod, attr, obj))
    builders = _module("cli").MODEL_BUILDERS
    for key, obj in builders.items():
        if id(obj) in originals:
            found.append((builders, key, obj))
    synthesis = _module("synthesis")
    for qualified in SAMPLE_METHODS:
        _, cls_name, meth = qualified.split(".")
        cls = getattr(synthesis, cls_name)
        found.append((cls, meth, vars(cls)[meth]))
    return found


def span_name(fn) -> str:
    qualified = f"{fn.__module__.removeprefix('qdecouple.')}.{fn.__qualname__}"
    return SAMPLE_METHODS.get(qualified, qualified)


def _set(namespace, attr, value):
    if isinstance(namespace, dict):
        namespace[attr] = value
    else:
        setattr(namespace, attr, value)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced callable through `tracer` for the block's duration."""
    places = bindings()
    wrappers: dict[int, object] = {}
    done = []
    try:
        for namespace, attr, fn in places:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(span_name(fn), fn)
            _set(namespace, attr, wrappers[id(fn)])
            done.append((namespace, attr, fn))
        yield tracer
    finally:
        for namespace, attr, fn in reversed(done):
            _set(namespace, attr, fn)
