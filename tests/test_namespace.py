"""Every public name a module declares, and every name the package
namespace imports, exists: tools that walk ``__all__`` (the benchmark's
tracer among them) fail on a stale entry.  And importing the package, or
running a command that needs no factorization beyond a least-squares solve,
leaves scipy.linalg unloaded; the import, check and dfs leave
multiprocessing unloaded too."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdecouple

MODULES = ["operators", "invariance", "geometry", "models", "synthesis", "simulator", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qdecouple.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _package_imports():
    tree = ast.parse(Path(qdecouple.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_exist():
    imports = _package_imports()
    assert imports
    for module, attr in imports:
        source = importlib.import_module(f"qdecouple.{module}")
        assert hasattr(source, attr), f"{module}.{attr}"
        assert getattr(qdecouple, attr) is getattr(source, attr)


# Importing scipy.linalg more than doubles a cold start, so only the
# commands and functions that factorize with it may load it.  Each script
# runs in a fresh interpreter.
_NO_SCIPY_SCRIPT = """
import json, sys, tempfile
import qdecouple.cli
loaded = {"import": "scipy.linalg" in sys.modules}
multiprocessing = {"import": "multiprocessing" in sys.modules}
codes = {}
commands = {
    "check": ["check", "--model", "restructured"],
    "dfs": ["dfs", "--qubits", "4"],
    "compare-open": ["compare", "--model", "two_qubit", "--mode", "open",
                     "--g", "0,0", "--t-end", "0.05"],
    "compare-protective": ["compare", "--model", "restructured", "--mode", "closed",
                           "--feedback", "protective", "--g", "0,10", "--t-end", "0.05"],
    # a zero drive asks the least-squares synthesis for alpha alone, one
    # minimum-norm solve; g = 0 runs in this process
    "compare-least-squares-zero": ["compare", "--model", "restructured", "--mode", "closed",
                                   "--schedule", "zero", "--g", "0,10", "--t-end", "0.01"],
    "simulate-lifted-zero": ["simulate", "--model", "restructured", "--mode", "closed",
                             "--schedule", "zero", "--lift-complement", "--t-end", "0.01"],
}
with tempfile.TemporaryDirectory() as out:
    for name, argv in commands.items():
        codes[name] = qdecouple.cli.run_command(argv + ["--output-dir", out])
        loaded[name] = "scipy.linalg" in sys.modules
        multiprocessing[name] = "multiprocessing" in sys.modules
print(json.dumps({"loaded": loaded, "multiprocessing": multiprocessing, "codes": codes}))
"""

_SCIPY_USERS = {
    "synthesize-demo": """
import tempfile
from qdecouple.cli import run_command
with tempfile.TemporaryDirectory() as out:
    assert run_command(["synthesize-demo", "--output-dir", out]) == 0
""",
    # a nonzero drive needs beta, whose completion factorizes with SciPy
    "simulate-least-squares-constant": """
import os, tempfile
import numpy as np
from qdecouple.cli import run_command
rng = np.random.default_rng(5)
xi = rng.normal(size=12) + 1j * rng.normal(size=12)
xi /= np.linalg.norm(xi)
with tempfile.TemporaryDirectory() as out:
    config = os.path.join(out, "state.cfg")
    with open(config, "w") as fh:
        fh.write("[initial_state]\\namplitudes = "
                 + ", ".join(f"{a.real:.17g}{a.imag:+.17g}j" for a in xi) + "\\n")
    assert run_command(["--config", config, "simulate", "--model", "restructured",
                        "--mode", "closed", "--schedule", "constant", "--t-end", "0.01",
                        "--output-dir", out]) == 0
""",
    "matrix_exponential": """
import numpy as np
from qdecouple import Operator, matrix_exponential
U = matrix_exponential(Operator(np.zeros((3, 3)), "skew_hermitian"))
assert np.allclose(U.matrix, np.eye(3))
""",
    "propagate_piecewise_exact": """
import numpy as np
from qdecouple import (ControlSchedule, ModelParams, build_two_qubit, preset_state,
                       propagate_piecewise_exact)
model = build_two_qubit(ModelParams())
traj = propagate_piecewise_exact(model, ControlSchedule.zero(len(model.controls)),
                                 preset_state(model), 0.01, 1e-3)
assert abs(traj.norm[-1] - 1) < 1e-10
""",
    "cbh_effective_generator": """
from qdecouple import ModelParams, build_two_qubit, cbh_effective_generator
model = build_two_qubit(ModelParams())
U, effective = cbh_effective_generator(model.controls[0], model.controls[1], 0.01)
assert effective.dim == model.dim
""",
}


def _fresh_interpreter(script: str) -> subprocess.Popen:
    src = str(Path(qdecouple.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out


def test_cold_start_and_scipy_free_commands_leave_scipy_linalg_unloaded():
    result = json.loads(_finish(_fresh_interpreter(_NO_SCIPY_SCRIPT)).splitlines()[-1])
    assert result["codes"] == {"check": 0, "dfs": 0, "compare-open": 0,
                               "compare-protective": 0, "compare-least-squares-zero": 0,
                               "simulate-lifted-zero": 0}
    assert result["loaded"] == dict.fromkeys(["import", *result["codes"]], False)
    # compare imports multiprocessing to run its strengths side by side; the
    # cold start and the commands that never compare leave it unloaded
    assert not any(result["multiprocessing"][k] for k in ("import", "check", "dfs"))


def test_scipy_users_import_it_on_first_use():
    # one fresh interpreter each, run side by side, so that no user finds
    # scipy.linalg already loaded by another
    procs = {name: _fresh_interpreter(
        "import sys\nassert 'scipy.linalg' not in sys.modules\n" + script
        + "\nassert 'scipy.linalg' in sys.modules\n")
        for name, script in _SCIPY_USERS.items()}
    for proc in procs.values():
        _finish(proc)
