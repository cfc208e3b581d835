"""The demos run to completion and print exactly the pinned bytes.

Each demo runs in its own interpreter with src/ on PYTHONPATH, as a reader
would run it from a checkout.  The demos are the only end-to-end runs of
perturbed_recover and of traces that API callers build from a flat
series, so their stdout is pinned by SHA-256.  The digests were taken
with Python 3.11.7 and numpy 2.4.6; a numpy release that changes the last
bit of an elementwise operation changes them too.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

STDOUT_DIGESTS = {
    "certified_decay.py":
        "d79b8f8ce7f9f295375ae2c6c7f4d7911ca20668238c56ab5ca17db03d3d2f01",
    "certify_point.py":
        "0a131e98a2ecfea7509566ab9e2f64d341635f713432dfdbfe4cfc387fbbfa4b",
    "contraction_rate.py":
        "9f978716225f28ec1236ec89ad3ffd4032773b198e243dfd5a6fdbdf884b871f",
    "minimal_time_table.py":
        "2bc802a826ad6e469ba799099e1dda585593cb041f802e48d0332e535a01f6c6",
    "noisy_recovery.py":
        "78940746a98d55f42889967de774d93da6c33d394cca4f3d27a528277ea13686",
    "recovery_window_split.py":
        "e2afb1e2bdae9566620c702cd5ab6b677182e6f28b93005d95c8c8d71cc57854",
    "regional_radius.py":
        "2bfab7449ff0c2724b2e57569f873cac633d8f5415e3c7694689ec3c8e3b010b",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_DIGESTS) == sorted(
        name for name in os.listdir(DEMOS) if name.endswith(".py"))


@pytest.mark.parametrize("script", sorted(STDOUT_DIGESTS))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_DIGESTS[script]
