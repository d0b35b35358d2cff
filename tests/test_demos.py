"""Every demo script, and the README's library tour, runs to completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    """The demo exits with status 0 when run with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_runs():
    """The README's one ``python`` block runs as written, so it cannot drift from the API."""
    (tour,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    exec(compile(tour, "README.md", "exec"), {})
