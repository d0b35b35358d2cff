"""Keeps the benchmark harness runnable: every workload, small, traced and untraced.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_with_all_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("survey", "cusp", "exact"):
        for traced in (0, 1):
            assert any(line.startswith(f"smoke {name} trace={traced}: ok") for line in lines), \
                proc.stdout
