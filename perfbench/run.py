"""phonetrait benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload train-k10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout that has ``src/phonetrait``; the package
is imported from that source tree, nothing is installed. Each run starts a
worker process with every BLAS/OpenMP thread variable set to 1 before NumPy
loads. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run. The last line of standard output
is one JSON object; the exit code is 0 only when every output check passed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / "perfbench_runs"

WORKLOADS = ("train-k10", "train-k64", "score-chain")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Set-up is sampled in this many worker processes (the measured one included).
SETUP_SAMPLES = 3
# Ops that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workdir: Path, workload: str, seed: int, seconds: float, trace: int,
          extra: list[str]) -> dict:
    """Run one worker to completion and return its result."""
    result_file = workdir / "result.json"
    result_file.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--workdir", str(workdir), "--spawned-at", repr(spawned_at), *extra]
    try:
        proc = subprocess.run(argv, env=worker_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_file.exists():
        raise BenchError(f"worker for {workload} exited {proc.returncode} without a result")
    return json.loads(result_file.read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it.

    With too few values for that, the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    """The JSON metrics, and report lines in the workload's own terms."""
    wall, cpu = result["op_durations"], result["op_cpu_durations"]
    n = len(wall)
    ops_per_s = n / sum(wall)
    p50 = statistics.median(wall)
    calibration = statistics.median(result["calibration"])
    setup_s = statistics.median(setup_samples)
    rel_mean = sum(wall) / n / calibration
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_rel_p50": {"value": p50 / calibration, "unit": "ratio"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    (wall_tail, pct), (cpu_tail, _) = tail(wall), tail(cpu)
    beyond = n - round(pct * n / 100)
    tail_note = f"(p{pct:.2f} of {n} ops, {beyond} beyond; thread CPU time"
    if result["kind"] == "train":
        lines = [
            f"steps_per_s   {ops_per_s:.4f} steps/s",
            f"step_ms_p50   {1e3 * p50:.4f} ms",
            f"step_ms_tail  {1e3 * wall_tail:.4f} ms  {tail_note} {1e3 * cpu_tail:.4f} ms)",
        ]
    else:
        trials = result["trials_per_op"]
        lines = [
            f"trials_per_s  {trials * ops_per_s:.2f} trials/s  ({trials} trials per chain)",
            f"chain_s_p50   {p50:.4f} s",
            f"chain_s_tail  {wall_tail:.4f} s  {tail_note} {cpu_tail:.4f} s)",
        ]
    samples = ", ".join(f"{s:.3f}" for s in setup_samples)
    lines += [
        f"op_rel_p50    {p50 / calibration:.4f} ratio  (p50 op time / p50 calibration "
        f"kernel time, {1e3 * calibration:.4f} ms over {len(result['calibration'])} samples)",
        f"op_rel_mean   {rel_mean:.4f} ratio  (mean op time / p50 calibration kernel time)",
        f"setup_s       {setup_s:.4f} s  (median of {len(setup_samples)}: {samples})",
        f"peak_rss_mb   {result['peak_rss_mb']:.2f} MB",
    ]
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    metrics = result["layer_metrics"]
    table = result["layer_table"]
    lines = [f"spans: {result['spans']['count']} in {result['spans']['file']}",
             "layer          self ms/op     calls/op"]
    for layer, row in table["layers"].items():
        lines.append(f"{layer:<13} {row['self_ms_per_op']:>11.4f} {row['calls_per_op']:>12.1f}")
    lines.append("busiest functions (self ms/op, total ms/op, calls/op):")
    for f in table["functions"]:
        lines.append(f"  {f['name']:<45} {f['self_ms_per_op']:>10.4f} "
                     f"{f['total_ms_per_op']:>10.4f} {f['calls_per_op']:>10.1f}")
    lines += [f"{name:<36} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str = "full", fault: str | None = None) -> dict:
    """Run one workload; returns the result object plus a report for humans."""
    if not (ROOT / "src" / "phonetrait" / "__init__.py").exists():
        raise BenchError(f"no phonetrait source tree under {ROOT / 'src'}")
    workdir = RUNS_DIR / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    extra = ["--size", size] + (["--fault", fault] if fault else [])
    try:
        result = spawn(workdir, workload, seed, seconds, trace, extra)
        if trace:
            metrics, lines = per_layer(result)
        else:
            setups = [result["setup_s"]]
            for _ in range(SETUP_SAMPLES - 1):
                probe = spawn(workdir, workload, seed, seconds, 0, extra + ["--setup-only"])
                setups.append(probe["setup_s"])
            metrics, lines = end_to_end(result, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"fail_ratio    {failed / attempted:.6g} ratio  ({failed} of {attempted} "
                 "ops and checks)")
    lines += [f"FAILED: {e}" for e in result["errors"]]
    env = result["env"]
    header = (f"perfbench {workload} seed={seed} seconds={seconds:g} trace={trace} "
              f"| cpus {env['cpu_count']} (usable {env['cpus_usable']}), python {env['python']}, "
              f"numpy {env['numpy']}, blas {env['blas']}, threads {json.dumps(env['threads'])}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": [header] + ["  " + line for line in lines],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window, default run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, seconds, args.trace)
            print("\n".join(results[name].pop("report")), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
