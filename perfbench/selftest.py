"""Self-test of the benchmark harness; exits non-zero on the first problem.

    python3 perfbench/selftest.py

Runs each workload at its smallest size, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted. Then gives one score chain a
truncated checkpoint and checks that the failure is counted in ``failed``
while the run still reports. Last, checks that the command refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SECONDS = 1.0


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.measure(workload, seed=1, seconds=SECONDS, trace=trace, size="smoke")
            got = set(result["metrics"])
            check(got == names[trace],
                  f"{workload} trace={trace}: missing {sorted(names[trace] - got)}, "
                  f"unexpected {sorted(got - names[trace])}")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: {result['failed']} failures")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops and checks")

    # A smoke chain takes well under SECONDS, so chain 1 runs and gets the bad file.
    result = run.measure("score-chain", seed=1, seconds=SECONDS, trace=0, size="smoke",
                         fault="truncated-checkpoint")
    check(set(result["metrics"]) == names[0], "faulty run lost metrics")
    check(result["attempted"] >= 1, "faulty run attempted nothing")
    print(f"    faulty run: {result['failed']} of {result['attempted']} failed")
    check(result["failed"] >= 1 and not result["correct"],
          "the truncated checkpoint was not counted as a failure")
    print("ok  truncated checkpoint counted in failed")

    bare = run.RUNS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-k10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  refuses to run without the source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
