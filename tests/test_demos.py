"""Smoke test: the demo scripts run to completion against the package.

06, the end-to-end decoupling comparisons, is the slowest: its two closed
loops integrate for several seconds (6-9 s on a 2-CPU host).
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-9]_*.py"))


def test_demo_list_is_complete():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
