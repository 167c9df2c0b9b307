"""The scripts under ``scripts/`` that later changes rely on as gates."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _entry import package_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, **env):
    """Run ``scripts/<name>`` on the package this process imports, with
    ``env`` added to its environment; its stdout."""
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=package_env() | env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _dynamic_arch_openblas() -> bool:
    """Whether NumPy's BLAS is an OpenBLAS built with every kernel, one of
    which ``OPENBLAS_CORETYPE`` picks."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def test_trajectory_digest_repeats():
    first = run_script("trajectory_digest.py", "--steps", "2")
    assert re.fullmatch(r"[0-9a-f]{64}\n", first)
    assert run_script("trajectory_digest.py", "--steps", "2") == first
    # One step fewer is another trajectory, so the digest must see it.
    assert run_script("trajectory_digest.py", "--steps", "1") != first


def test_trajectory_digest_speakers_per_batch():
    desk = run_script("trajectory_digest.py", "--steps", "2")
    assert run_script("trajectory_digest.py", "--steps", "2", "--speakers-per-batch", "10") == desk
    # Above the desk corpus's 20 speakers the corpus grows to K+16 speakers.
    k64 = run_script("trajectory_digest.py", "--steps", "2", "--speakers-per-batch", "64")
    assert re.fullmatch(r"[0-9a-f]{64}\n", k64) and k64 != desk
    assert run_script("trajectory_digest.py", "--steps", "2", "--speakers-per-batch", "64") == k64
    done = subprocess.run([sys.executable, str(SCRIPTS / "trajectory_digest.py"),
                           "--speakers-per-batch", "1"],
                          env=package_env(), capture_output=True, text=True)
    assert done.returncode == 2 and "--speakers-per-batch must be >= 2" in done.stderr


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="OPENBLAS_CORETYPE picks a kernel only in a DYNAMIC_ARCH OpenBLAS")
def test_trajectory_digest_runs_blas_on_one_thread():
    # Haswell's kernel sums a 20-step trajectory in another order on two
    # threads than on one, so the digest holds only if the script pins one.
    one, two = (run_script("trajectory_digest.py", "--steps", "20", OPENBLAS_CORETYPE="Haswell",
                           OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n) for n in ("1", "2"))
    assert re.fullmatch(r"[0-9a-f]{64}\n", one)
    assert two == one


def test_loss_ablation_runs_one_epoch():
    lines = run_script("loss_ablation.py", "--epochs", "1").splitlines()
    assert lines[0].split() == ["run", "final", "EER", "evidence", "EER", "correlation"]
    assert [line[:16].strip() for line in lines[1:]] == ["full loss", "class. only"]
    for line in lines[1:]:
        final_eer, evidence_eer, correlation = map(float, line[16:].split())
        assert 0.0 <= final_eer <= 1.0 and 0.0 <= evidence_eer <= 1.0
        assert -1.0 <= correlation <= 1.0


def test_loss_ablation_refuses_no_epochs():
    for epochs in ("0", "-1"):
        done = subprocess.run([sys.executable, str(SCRIPTS / "loss_ablation.py"),
                               "--epochs", epochs],
                              env=package_env(), capture_output=True, text=True)
        assert done.returncode == 2 and "--epochs must be >= 1" in done.stderr
