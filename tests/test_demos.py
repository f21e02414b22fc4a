"""Every narrative demo runs to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    if demo.name == "demo_pencil_contact.py":
        assert ("Betti table: [[0, [0]], [1, [-2, -2, -2, -2]], [2, [-3, -3, -3, -3]], "
                "[3, [-4]]]") in done.stdout.splitlines()
