"""One workload run in a fresh process; ``run.py`` starts it with BLAS pinned.

The worker builds the workload's inputs from the seed, runs the measured
window, checks the outputs and writes ``result.json`` into its work
directory. With ``--setup-only`` it stops when set-up is done, so the parent
can sample set-up time in several processes. With ``--trace 1`` it installs
the tracer and alternates blocks of the same operations with tracing off and
on, so the trace overhead is measured on identical work in the same seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from phonetrait import cli, corpus, presets, training

import oracle
from run import THREAD_VARS
from tracer import LAYERS, Tracer

# A traced run alternates this many untraced and traced blocks of equal work.
TRACE_BLOCKS = 3
# Layers present in every workload, reported as absolute time per op.
COMMON_LAYERS = ("encoder", "trait_layer", "corpus", "training")


class Calibration:
    """A fixed NumPy and Python kernel, timed between ops and between chain stages.

    The host's CPU speed changes within seconds and drifts over minutes. The
    kernel mixes what phonetrait spends its time on (a context gather, a
    small matmul, a scatter-add, a Python loop), so an op's time divided by
    the kernel's time measured between the same ops keeps much less of that
    drift than either time alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((107, 8))
        self.w = rng.standard_normal((16, 24))
        self.context = np.clip(np.arange(107)[:, None] + np.array([-1, 0, 1]), 0, 106)
        self.phones = np.arange(107) % 40
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(10):
            frames = np.maximum(self.x[self.context].reshape(107, -1) @ self.w.T, 0.0)
            sums = np.zeros((40, 16))
            np.add.at(sums, self.phones, frames)
            {i: float(v) for i, v in enumerate(sums[:, 0])}
        self.samples.append(time.perf_counter() - start)


class Window:
    """Timed ops of one measured window, with their failures and outputs.

    An op may be timed in pieces: ``lap`` closes a piece, ``end_op`` the op.
    The calibration kernel, when given, runs after each, outside the timing.
    """

    def __init__(self, calibration: Calibration | None = None, attempted: int = 0):
        self.durations: list[float] = []
        self.cpu_durations: list[float] = []
        self.attempted = attempted
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: list = []
        self.calibration = calibration
        self._wall = self._cpu = 0.0
        self.resume()

    @property
    def wall(self) -> float:
        return float(sum(self.durations))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def extend(self, other: "Window") -> None:
        self.durations += other.durations
        self.cpu_durations += other.cpu_durations
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.outputs += other.outputs

    def resume(self) -> None:
        self._wall_start, self._cpu_start = time.perf_counter(), time.thread_time()

    def _close_piece(self) -> None:
        self._wall += time.perf_counter() - self._wall_start
        self._cpu += time.thread_time() - self._cpu_start
        if self.calibration is not None:
            self.calibration.sample()

    def lap(self) -> None:
        self._close_piece()
        self.resume()

    def end_op(self) -> None:
        self._close_piece()
        self.durations.append(self._wall)
        self.cpu_durations.append(self._cpu)
        self._wall = self._cpu = 0.0


def _exception(window: Window, what: str) -> None:
    traceback.print_exc(file=sys.stderr)
    window.fail(f"{what}: {sys.exc_info()[1]!r}")


class TrainWorkload:
    """SGD pair-batch steps driven through ``training.train`` itself.

    ``steps_per_epoch=1`` makes the epoch callback fire after every step, so
    it timestamps steps without a second training loop. The step count of a
    window comes from the warm-up speed, so a window lasts about as long as
    asked whatever the code's speed.
    """

    kind = "train"

    def __init__(self, k, n_speakers, utts_per_speaker, warmup_steps, seeds):
        self.k = k
        self.n_speakers = n_speakers
        self.utts_per_speaker = utts_per_speaker
        self.warmup_steps = warmup_steps
        self.corpus_seed, self.train_seed = seeds[0], seeds[1]

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.inventory = corpus.default_inventory()
        kwargs = presets.desk_corpus_kwargs(self.inventory)
        kwargs.update(n_speakers=self.n_speakers, utts_per_speaker=self.utts_per_speaker,
                      seed=self.corpus_seed)
        features, alignments, _ = corpus.generate_corpus(**kwargs)
        self.index = corpus.CorpusIndex.build(features, alignments)
        self.model_cfg = presets.desk_model_config()
        self.train_cfg = dataclasses.replace(
            presets.desk_train_config(seed=self.train_seed),
            steps_per_epoch=1, speakers_per_batch=self.k,
        )
        warmup = self.window(steps=self.warmup_steps)
        if warmup.failed:
            raise RuntimeError(f"warm-up failed: {warmup.errors}")
        tail = warmup.durations[len(warmup.durations) // 2:]
        self.step_estimate = float(np.median(tail))

    def steps_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.step_estimate))

    def window(self, steps: int, tracer: Tracer | None = None,
               calibration: Calibration | None = None) -> Window:
        cfg = dataclasses.replace(self.train_cfg, epochs=steps)
        out = Window(calibration)

        def on_step(_epoch, _state):
            out.end_op()
            if tracer is not None:
                tracer.next_op()
            out.resume()

        try:
            _, history = training.train(self.index, self.inventory, self.model_cfg, cfg,
                                        epoch_callback=on_step)
        except Exception:
            out.attempted = len(out.durations) + 1
            _exception(out, f"step {len(out.durations)}")
            return out
        out.attempted = len(out.durations)
        losses = [(r.total, r.classification, r.verification, r.center) for r in history]
        for step, values in enumerate(losses):
            if not np.isfinite(values).all():
                out.fail(f"step {step}: non-finite loss {values}")
        out.outputs = losses
        return out

    def measure(self, seconds: float) -> Window:
        return self.window(self.steps_for(seconds), calibration=Calibration())

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Window, Window]:
        steps = self.steps_for(seconds / (2 * TRACE_BLOCKS))
        reference, traced = Window(), Window()
        tracer.install()
        for _ in range(TRACE_BLOCKS):
            tracer.enabled = False
            reference.extend(self.window(steps))
            tracer.enabled = True
            traced.extend(self.window(steps, tracer))
        return reference, traced

    def check(self, window: Window) -> Window:
        """The gradient certification of the ``gradcheck`` subcommand must pass."""
        out = Window(attempted=1)
        report = self.workdir / "gradcheck"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gradcheck", "--out-dir", str(report)])
        if code != 0:
            out.fail(f"gradcheck exited {code}")
        return out


class ChainWorkload:
    """The desk pipeline minus training, one chain per op, through ``cli.main``."""

    kind = "chain"

    def __init__(self, n_target, n_nontarget, corpus_args, seeds, fault=None, warmup=None):
        self.n_target, self.n_nontarget = n_target, n_nontarget
        self.corpus_args = corpus_args
        self.corpus_seed, self.trial_seed, self.model_seed = seeds[0], seeds[2], seeds[3]
        self.fault = fault
        # A smaller chain run once in set-up, so the first timed chain is not cold.
        self.warmup = warmup

    @property
    def trials(self) -> int:
        return self.n_target + self.n_nontarget

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.corpus_dir, self.run_dir = workdir / "corpus", workdir / "run"
        model_cfg = presets.desk_model_config()
        state = training.init_model(model_cfg, presets.N_SPEAKERS, self.model_seed)
        self.checkpoint = workdir / "model.ckpt"
        training.save_checkpoint(state, model_cfg, self.checkpoint)
        if self.fault == "truncated-checkpoint":
            lines = self.checkpoint.read_text().splitlines(keepends=True)
            self.truncated = workdir / "truncated.ckpt"
            self.truncated.write_text("".join(lines[: len(lines) // 2]))
        if self.warmup is not None:
            self.warmup.setup(workdir / "warmup")
            warm = Window()
            self.warmup._chain(0, warm)
            if warm.failed:
                raise RuntimeError(f"warm-up chain failed: {warm.errors}")

    def stages(self, op: int) -> list[list[str]]:
        c, r = str(self.corpus_dir), str(self.run_dir)
        checkpoint = self.checkpoint
        if self.fault == "truncated-checkpoint" and op == 1:
            checkpoint = self.truncated
        return [
            ["gen-corpus", "--out-dir", c, "--seed", str(self.corpus_seed),
             "--trial-seed", str(self.trial_seed), "--n-target", str(self.n_target),
             "--n-nontarget", str(self.n_nontarget), *self.corpus_args],
            ["score", "--corpus-dir", c, "--checkpoint", str(checkpoint), "--out-dir", r],
            ["eval", "--scores", f"{r}/scores.txt", "--out-dir", r],
            ["fratio", "--scores", f"{r}/scores.txt", "--inventory", f"{c}/inventory.txt",
             "--out-dir", r, "--seed", str(self.trial_seed)],
            ["explain", "--scores", f"{r}/scores.txt", "--inventory", f"{c}/inventory.txt",
             "--out-dir", r, "--index", "0"],
        ]

    def _digest(self) -> str:
        h = hashlib.sha256()
        for d in (self.corpus_dir, self.run_dir):
            for path in sorted(d.iterdir()):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def _chain(self, op: int, out: Window) -> None:
        out.attempted += 1
        stages = self.stages(op)
        out.resume()
        try:
            for k, argv in enumerate(stages):
                code = cli.main(argv)
                if code != 0:
                    out.end_op()
                    out.fail(f"chain {op}: {argv[0]} exited {code}")
                    return
                if k < len(stages) - 1:
                    out.lap()
        except Exception:
            out.end_op()
            _exception(out, f"chain {op}")
            return
        out.end_op()
        # Identical inputs must give byte-identical artifacts on every chain.
        digest = self._digest()
        if out.outputs and digest != out.outputs[0]:
            out.fail(f"chain {op}: artifacts differ from the first chain's")
        out.outputs.append(digest)

    def measure(self, seconds: float) -> Window:
        """Chains until ``seconds`` of chain time.

        The calibration between stages and hashing the artifacts are untimed.
        """
        out = Window(Calibration())
        while not out.durations or out.wall < seconds:
            self._chain(len(out.durations), out)
        return out

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Window, Window]:
        reference, traced = Window(), Window()
        tracer.install()
        while not reference.durations or reference.wall + traced.wall < seconds:
            tracer.enabled = False
            self._chain(len(reference.durations), reference)
            tracer.enabled = True
            self._chain(len(traced.durations), traced)
            tracer.next_op()
        return reference, traced

    def check(self, window: Window) -> Window:
        """Naive recomputation of sampled trials and a brute-force EER sweep."""
        out = Window(attempted=2)
        if not window.outputs:
            out.fail("no chain completed, nothing to check")
            return out
        scores = self.run_dir / "scores.txt"
        checks = (
            ("sampled trials", lambda: oracle.check_trials(
                self.corpus_dir, self.checkpoint, scores, sample=25, seed=self.trial_seed + 1)),
            ("EER sweep", lambda: oracle.check_eer(scores, self.run_dir / "report.txt")),
        )
        for what, check in checks:
            try:
                errors = check()
            except Exception:
                _exception(out, what)
                continue
            if errors:
                out.fail(f"{what}: {len(errors)} mismatches, first: {errors[0]}")
        return out


def make_workload(name: str, seed: int, size: str, fault: str | None):
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
    smoke = size == "smoke"
    if name == "train-k10":
        if smoke:
            return TrainWorkload(10, 10, 2, 2, seeds)
        return TrainWorkload(10, presets.N_SPEAKERS, presets.UTTS_PER_SPEAKER, 20, seeds)
    if name == "train-k64":
        return TrainWorkload(64, 64, 2, 1, seeds) if smoke else TrainWorkload(64, 80, 4, 4, seeds)
    if name == "score-chain":
        small = ChainWorkload(20, 20, ["--n-speakers", "4", "--utts-per-speaker", "3"], seeds)
        if smoke:
            return ChainWorkload(20, 20, small.corpus_args, seeds, fault)
        return ChainWorkload(2000, 2000, [], seeds, fault, warmup=small)
    raise ValueError(f"unknown workload {name!r}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def layer_metrics(tracer: Tracer, traced: Window, reference: Window) -> dict:
    """Per-layer metrics of the traced window, each as {"value", "unit"}.

    An op is one training step or one score chain. Shares are percentages of
    the traced window's wall time.
    """
    ops = max(len(traced.durations), 1)
    wall_ns = traced.wall * 1e9
    stats = tracer.stats

    def fn(name, field):
        return getattr(stats[name], field) if name in stats else 0

    def layer_sum(layer, field, io=False):
        return sum(getattr(s, field) for s in stats.values()
                   if s.layer == layer and (io is False or s.io == io))

    def share(ns):
        return {"value": 100.0 * ns / wall_ns, "unit": "%"}

    def per_op(x, unit="count"):
        return {"value": x / ops, "unit": unit}

    ref_per_op = reference.wall / max(len(reference.durations), 1)
    m = {"trace_overhead_ratio": {"value": (traced.wall / ops) / ref_per_op, "unit": "ratio"}}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = share(layer_sum(layer, "self_ns"))
        m[f"{layer}.calls_per_op"] = per_op(layer_sum(layer, "calls"))
    for layer in COMMON_LAYERS:
        m[f"{layer}.self_ms_per_op"] = per_op(layer_sum(layer, "self_ns") / 1e6, "ms")
    distinct = tracer.distinct_forwarded
    m.update({
        "encoder.frames_per_op": per_op(tracer.encoder_frames),
        "corpus.frame_phones_calls_per_op": per_op(fn("corpus.PhoneAlignment.frame_phones",
                                                      "calls")),
        "trait_layer.forwards_per_utterance": {
            "value": tracer.forwards / distinct if distinct else 0.0, "unit": "ratio"},
        "losses.verification_share": share(fn("losses.trait_verification_loss", "total_ns")),
        "corpus.generate_share": share(fn("corpus.generate_corpus", "total_ns")),
        "corpus.write_share": share(layer_sum("corpus", "total_ns", "write")),
        "corpus.read_share": share(layer_sum("corpus", "total_ns", "read")),
        "corpus.bytes_written_per_op": per_op(layer_sum("corpus", "bytes", "write"), "B"),
        "corpus.bytes_read_per_op": per_op(layer_sum("corpus", "bytes", "read"), "B"),
        "training.checkpoint_read_share": share(fn("training.load_checkpoint", "total_ns")),
        "scoring.write_share": share(layer_sum("scoring", "total_ns", "write")),
        "scoring.read_share": share(layer_sum("scoring", "total_ns", "read")),
        "scoring.reads_per_op": per_op(fn("scoring.load_scores", "calls")),
        "scoring.cosine_calls_per_op": per_op(fn("scoring.cosine_similarity", "calls")),
    })
    return m


def layer_table(tracer: Tracer, traced: Window) -> dict:
    """Absolute per-op self time of every layer and the busiest functions."""
    ops = max(len(traced.durations), 1)
    layers = {layer: {"self_ms_per_op": 0.0, "calls_per_op": 0.0} for layer in LAYERS}
    for s in tracer.stats.values():
        layers[s.layer]["self_ms_per_op"] += s.self_ns / 1e6 / ops
        layers[s.layer]["calls_per_op"] += s.calls / ops
    busiest = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_ns)[:12]
    functions = [
        {"name": name, "calls_per_op": s.calls / ops, "self_ms_per_op": s.self_ns / 1e6 / ops,
         "total_ms_per_op": s.total_ns / 1e6 / ops}
        for name, s in busiest if s.calls
    ]
    return {"layers": layers, "functions": functions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--fault", choices=("truncated-checkpoint",), default=None)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workload = make_workload(args.workload, args.seed, args.size, args.fault)
    workload.setup(workdir)
    result = {"setup_s": time.monotonic() - args.spawned_at, "env": environment()}
    if not args.setup_only:
        if args.trace:
            tracer = Tracer()
            reference, window = workload.traced(args.seconds, tracer)
            tracer.finish()
            spans_file = workdir.parent / f"trace-{args.workload}-s{args.seed}.csv"
            result["spans"] = {"file": str(spans_file), "count": tracer.write_spans(spans_file)}
            result["layer_metrics"] = layer_metrics(tracer, window, reference)
            result["layer_table"] = layer_table(tracer, window)
            if window.outputs != reference.outputs[: len(window.outputs)]:
                window.fail("traced outputs differ from the untraced reference")
        else:
            window = workload.measure(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = workload.check(window)
        result.update(
            kind=workload.kind,
            op_durations=window.durations,
            op_cpu_durations=window.cpu_durations,
            calibration=window.calibration.samples if window.calibration else None,
            attempted=window.attempted + checks.attempted,
            failed=window.failed + checks.failed,
            errors=(window.errors + checks.errors)[:20],
            trials_per_op=getattr(workload, "trials", None),
        )
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
