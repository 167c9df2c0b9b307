"""Run the command line in a child process, on the checkout pytest imports."""

import os
import subprocess
import sys
from pathlib import Path

import phonetrait


def package_env():
    """This process's environment with the imported package first on ``PYTHONPATH``.

    The path is absolute, so a relative ``PYTHONPATH=src`` or a different
    install on ``PATH`` cannot make a child run other code than this process
    does.
    """
    package_parent = str(Path(phonetrait.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p)
    return env


def run_phonetrait(args, cwd):
    """Run ``python -m phonetrait *args`` inside ``cwd`` under ``package_env()``."""
    return subprocess.run([sys.executable, "-m", "phonetrait", *args],
                          cwd=cwd, env=package_env(), capture_output=True, text=True)
