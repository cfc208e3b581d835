"""Smoke test of the demos: each script runs to completion and prints.

Each demo runs in its own interpreter with src/ on PYTHONPATH, as a reader
would run it from a checkout.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("script", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
