"""Every narrative demo runs to completion from a source checkout, and
prints exactly the recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; the demos are deterministic
STDOUT_SHA256 = {
    "demo_classification.py":
        "940b777a1a555e50ce3c1c9215660fea924bc71825abab645b2de06deb725983",
    "demo_cohomology_moduli.py":
        "b070dfb98adfbf147a7760661f2141b73fb4cebd03e9ac34e863643a1bdd2f91",
    "demo_pencil_contact.py":
        "8daec0cd461e4ef25877eb46fee4cf685b2d23e2c494ff1ed856cd1f55f899e9",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    if demo.name == "demo_pencil_contact.py":
        assert ("Betti table: [[0, [0]], [1, [-2, -2, -2, -2]], [2, [-3, -3, -3, -3]], "
                "[3, [-4]]]") in done.stdout.splitlines()
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
