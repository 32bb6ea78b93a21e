"""Every demo script runs to completion, as CI's Demos step runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # a warning is an error, and the package comes from src/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert out.returncode == 0, out.stderr
