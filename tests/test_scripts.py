"""The scripts under ``scripts/`` that later changes rely on as gates."""

import re
import subprocess
import sys
from pathlib import Path

from _entry import package_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    """Run ``scripts/<name>`` on the package this process imports; its stdout."""
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=package_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_trajectory_digest_repeats():
    first = run_script("trajectory_digest.py", "--steps", "2")
    assert re.fullmatch(r"[0-9a-f]{64}\n", first)
    assert run_script("trajectory_digest.py", "--steps", "2") == first
    # One step fewer is another trajectory, so the digest must see it.
    assert run_script("trajectory_digest.py", "--steps", "1") != first
