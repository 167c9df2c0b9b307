"""Acceptance experiments for the whole trait verification stack.

Every test prints a one-line verdict through the capture bypass, so any
pytest run shows the full scoreboard, then asserts the same condition.
Criteria 6 to 8 share one desk-scale experiment: a seeded synthetic corpus,
a full-loss training run, an ablated training run and the scored trials they
produce, all built once per session by the ``desk`` fixture.
"""

import math
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from _entry import package_env, run_phonetrait
from _oracles import naive_traits, sweep_eer, sweep_min_dcf
from phonetrait import presets
from phonetrait.analysis import (
    compute_eer,
    compute_min_dcf,
    explainability_correlation,
    f_ratio,
    labelled_scores,
)
from phonetrait.corpus import (
    CMU_PHONES,
    NON_VERBAL,
    CorpusIndex,
    PhoneAlignment,
    PhoneInventory,
    TrialList,
    UtteranceFeatures,
    default_inventory,
    generate_corpus,
    make_trials,
)
from phonetrait.encoder import EncoderConfig, EncoderParams, LayerSpec
from phonetrait.losses import AamConfig, LossWeights
from phonetrait.scoring import ScoreTable, score_trials
from phonetrait.trait_layer import ProjectionParams, extract_traits, forward_batch
from phonetrait.training import (
    ModelConfig,
    ModelState,
    batch_loss_and_grads,
    compare_gradient_tables,
    init_model,
    numeric_gradients,
    parameter_arrays,
    sample_pair_batch,
    train,
)
from phonetrait.workspace import Workspace


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients against central finite differences
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences(capsys):
    t0 = time.monotonic()
    inventory = PhoneInventory(CMU_PHONES[:5] + (NON_VERBAL,))
    features, alignments, _ = generate_corpus(
        3, 2, inventory, 5, (2, 4), (6, 8), 0.3, seed=101, speaker_spread=0.4
    )
    index = CorpusIndex.build(features, alignments)
    # 5-dim frames, 8-dim traits, 4-dim embeddings, 6 phones, 3 speaker pairs
    model_cfg = ModelConfig(EncoderConfig(5, (LayerSpec((-1, 0, 1), 8, "relu"),)), 4)
    state = init_model(model_cfg, n_classes=3, seed=102)
    selection = sample_pair_batch(index, 3, np.random.default_rng(103))

    desk = LossWeights()
    cases = {
        "classification": (LossWeights(0.0, 0.0, 0.0), True),
        "verification": (LossWeights(desk.alpha, desk.beta, 0.0), False),
        "center": (LossWeights(0.0, 0.0, desk.gamma), False),
        "combined": (desk, True),
    }
    # The loss that finite differences perturb is the training step's own.
    worst = {}
    workspace = Workspace()
    for name, (weights, with_classification) in cases.items():
        def step():
            return batch_loss_and_grads(state, index, selection, weights, AamConfig(),
                                        inventory.size, with_classification, workspace=workspace)

        _, analytic = step()
        numeric = numeric_gradients(lambda: step()[0].total, parameter_arrays(state),
                                    step_size=1e-5)
        worst[name] = compare_gradient_tables(analytic, numeric, tolerance=1e-4).worst

    elapsed = time.monotonic() - t0
    ok = all(err <= 1e-4 for err in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{name} {err:.1e}" for name, err in worst.items())
    report(capsys, "1 gradient exactness", ok, f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: trait extraction against a naive group-by mean
# ---------------------------------------------------------------------------

def test_trait_extraction_matches_naive_group_means(capsys):
    rng = np.random.default_rng(7)
    inventory = default_inventory()
    worst = 0.0
    for _ in range(100):
        segments, cursor = [], 0
        for _ in range(int(rng.integers(3, 15))):
            phone = int(rng.integers(inventory.size))
            length = int(rng.integers(1, 6))
            segments.append((cursor, cursor + length, phone))
            cursor += length
        alignment = PhoneAlignment("u", tuple(segments))
        embeddings = rng.standard_normal((cursor, 7))

        phones = alignment.frame_phones()
        traits, present = extract_traits(
            embeddings, phones, np.bincount(phones, minlength=inventory.size)[None], Workspace())
        want_traits, want_present = naive_traits(embeddings, phones, inventory.size)
        assert np.array_equal(present[0], want_present)
        worst = max(worst, float(np.abs(traits[0] - want_traits).max()))

    ok = worst <= 1e-12
    report(capsys, "2 trait extraction oracle",
           ok, f"100 utterances, worst entry diff {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: absent phones, segment order, and the presence mask
# ---------------------------------------------------------------------------

def _permute_same_label_segments(features, segments, rng):
    """Reorder segment blocks so only same-label segments trade places."""
    order = list(range(len(segments)))
    by_label: dict[int, list[int]] = {}
    for i, (_, _, phone) in enumerate(segments):
        by_label.setdefault(phone, []).append(i)
    for slots in by_label.values():
        shuffled = list(slots)
        rng.shuffle(shuffled)
        for slot, source in zip(slots, shuffled):
            order[slot] = source
    blocks = [features[start:end] for start, end, _ in segments]
    permuted = np.concatenate([blocks[i] for i in order])
    new_segments, cursor = [], 0
    for i in order:
        start, end, phone = segments[i]
        new_segments.append((cursor, cursor + (end - start), phone))
        cursor += end - start
    return permuted, tuple(new_segments)


def _forward_one(state, features, alignment, n_phones):
    return forward_batch(features, alignment.frame_phones(), [alignment.n_frames],
                         [alignment.utterance_id], state.encoder, state.projection, n_phones,
                         Workspace())


def test_absent_phones_and_segment_order_leave_embedding_alone(capsys):
    rng = np.random.default_rng(21)
    n_phones = 9
    # frame-local encoder, so segment order can only matter through the
    # summation order inside the per-phone means
    model_cfg = ModelConfig(EncoderConfig(6, (LayerSpec((0,), 10, "relu"),)), 5)
    state = init_model(model_cfg, n_classes=2, seed=22)

    worst_absent, worst_permuted = 0.0, 0.0
    for _ in range(30):
        segments, cursor = [], 0
        for _ in range(int(rng.integers(8, 13))):
            phone = int(rng.integers(4))  # few labels, so repeats are certain
            length = int(rng.integers(1, 5))
            segments.append((cursor, cursor + length, phone))
            cursor += length
        segments = tuple(segments)
        features = rng.standard_normal((cursor, 6))
        alignment = PhoneAlignment("u", segments)

        base = _forward_one(state, features, alignment, n_phones)
        widened = _forward_one(state, features, alignment, n_phones + 3)
        worst_absent = max(worst_absent,
                           float(np.abs(widened.embeddings[0] - base.embeddings[0]).max()))

        permuted, new_segments = _permute_same_label_segments(features, segments, rng)
        reordered = _forward_one(state, permuted, PhoneAlignment("u", new_segments), n_phones)
        worst_permuted = max(worst_permuted,
                             float(np.abs(reordered.embeddings[0] - base.embeddings[0]).max()))

        for fwd in (base, widened, reordered):
            nonzero_rows = np.any(fwd.traits[0] != 0.0, axis=1)
            assert np.array_equal(nonzero_rows, fwd.present[0])

    ok = worst_absent <= 1e-12 and worst_permuted <= 1e-12
    report(capsys, "3 masking and permutation invariants", ok,
           f"absent-phone diff {worst_absent:.1e}, "
           f"segment-order diff {worst_permuted:.1e}, masks consistent")


# ---------------------------------------------------------------------------
# criterion 4: evidence score against a brute-force shared-phone mean
# ---------------------------------------------------------------------------

def _random_utterance(rng, utterance_id, n_phones, dim):
    """Random traits as one utterance of one frame per present phone."""
    present = rng.random(n_phones) < 0.6
    if not present.any():
        present[int(rng.integers(n_phones))] = True
    traits = np.where(present[:, None], rng.standard_normal((n_phones, dim)), 0.0)
    phones = np.nonzero(present)[0]
    features = UtteranceFeatures(utterance_id, utterance_id, traits[phones])
    alignment = PhoneAlignment(utterance_id, [(k, k + 1, p) for k, p in enumerate(phones)])
    return traits, present, features, alignment


def test_evidence_equals_brute_force_shared_phone_mean(capsys):
    # Each pair is scored by score_trials under identity maps, so every
    # trait reaches scoring exactly as drawn.
    rng = np.random.default_rng(33)
    n_defined_pairs, n_disjoint_pairs, n_exact = 0, 0, 0
    worst_recompute = 0.0
    for _ in range(1000):
        n_phones = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 6))
        enroll, enroll_present, enroll_feats, enroll_align = _random_utterance(
            rng, "e", n_phones, dim)
        test, test_present, test_feats, test_align = _random_utterance(rng, "t", n_phones, dim)
        shared = enroll_present & test_present
        index = CorpusIndex.build([enroll_feats, test_feats], [enroll_align, test_align])
        state = ModelState(
            EncoderParams(EncoderConfig(dim, (LayerSpec((0,), dim, "identity"),)),
                          [np.eye(dim)], [np.zeros(dim)]),
            ProjectionParams(np.eye(2 * dim), np.zeros(2 * dim)),
            class_weights=np.ones((2, 2 * dim)),
        )
        got = score_trials(state, index, TrialList(["e"], ["t"], [0]), n_phones).evidence[0]

        if not shared.any():
            assert np.isnan(got)
            n_disjoint_pairs += 1
            continue

        values = [
            enroll[i] @ test[i] / (np.linalg.norm(enroll[i]) * np.linalg.norm(test[i]))
            for i in range(n_phones) if shared[i]
        ]
        n_exact += got == float(np.asarray(values).mean())
        # second pass with scalar arithmetic only
        recomputed = 0.0
        for i in range(n_phones):
            if not shared[i]:
                continue
            a, b = enroll[i], test[i]
            recomputed += float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))
        recomputed /= len(values)
        worst_recompute = max(worst_recompute, abs(got - recomputed))
        n_defined_pairs += 1

    ok = (n_exact == n_defined_pairs and n_disjoint_pairs > 0
          and worst_recompute <= 1e-12)
    report(capsys, "4 evidence score oracle", ok,
           f"{n_defined_pairs} pairs exact, {n_disjoint_pairs} disjoint pairs "
           f"undefined, recompute diff {worst_recompute:.1e}")


# ---------------------------------------------------------------------------
# criterion 5: error-rate metrics against exhaustive threshold sweeps
# ---------------------------------------------------------------------------

def test_error_rate_metrics_match_sweep_oracles(capsys):
    hand_scores = np.array([0.9, 0.7, 0.3, 0.6, 0.2, 0.1])
    hand_labels = np.array([1, 1, 1, 0, 0, 0])
    hand_eer = compute_eer(hand_scores, hand_labels)[0]

    rng = np.random.default_rng(55)
    scores = rng.normal(size=200)
    labels = rng.integers(0, 2, size=200)
    labels[:2] = (0, 1)  # keep both trial kinds present
    eer_pair = compute_eer(scores, labels)
    dcf_pair = compute_min_dcf(scores, labels, presets.P_TARGET, presets.C_MISS, presets.C_FA)

    ok = (hand_eer == 1.0 / 3.0
          and eer_pair == sweep_eer(scores, labels)
          and dcf_pair == sweep_min_dcf(scores, labels))
    report(capsys, "5 metric oracles", ok,
           f"hand EER {hand_eer:.4f}, 200-trial sweep match "
           f"EER {eer_pair[0]:.4f} minDCF {dcf_pair[0]:.4f}")


# ---------------------------------------------------------------------------
# criteria 6 to 8: the desk-scale experiment
# ---------------------------------------------------------------------------

@dataclass
class DeskRun:
    inventory: PhoneInventory
    snr: float
    history: np.recarray
    scores: ScoreTable
    ablation_scores: ScoreTable
    ranking_scores: ScoreTable
    experiment_seconds: float


# Reads pickled ``train`` arguments from stdin and writes the pickled
# (state, history) to stdout.
_TRAIN = ("import pickle, sys; from phonetrait.training import train; "
          "pickle.dump(train(*pickle.load(sys.stdin.buffer)), sys.stdout.buffer)")


def train_each(index, inventory, model_cfg, train_cfgs):
    """``train``'s (state, history) for every config, in parallel worker
    processes of one BLAS thread each while there are CPUs for them, or in
    this process one after another on a single CPU. Either way the states
    and histories are the same bits."""
    workers = min(len(train_cfgs), os.cpu_count() or 1)
    if workers == 1:
        return [train(index, inventory, model_cfg, cfg) for cfg in train_cfgs]
    env = package_env()
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                             "1"))

    def run(cfg):
        done = subprocess.run([sys.executable, "-c", _TRAIN], env=env, capture_output=True,
                              input=pickle.dumps((index, inventory, model_cfg, cfg)), timeout=600)
        assert done.returncode == 0, done.stderr.decode()
        return pickle.loads(done.stdout)

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, train_cfgs))


@pytest.fixture(scope="module")
def desk():
    inventory = default_inventory()
    t0 = time.monotonic()
    features, alignments, signatures = generate_corpus(
        **presets.desk_corpus_kwargs(inventory)
    )
    index = CorpusIndex.build(features, alignments)
    model_cfg = presets.desk_model_config()
    ablation_cfg = presets.desk_train_config(weights=LossWeights(0.0, 0.0, 0.0))
    (state, history), (ablation_state, _) = train_each(
        index, inventory, model_cfg, [presets.desk_train_config(), ablation_cfg])
    trials = make_trials(features, presets.EVAL_N_TARGET, presets.EVAL_N_NONTARGET,
                         presets.TRIAL_SEED)
    scores = score_trials(state, index, trials, inventory.size)
    experiment_seconds = time.monotonic() - t0

    snr = float(np.linalg.norm(signatures, axis=2).mean() / presets.NOISE_STD)

    ablation_scores = score_trials(ablation_state, index, trials, inventory.size)

    # a larger trial set so per-phone sample pools clear the 500 floor
    ranking_trials = make_trials(features, 2000, 2000, presets.TRIAL_SEED + 1)
    ranking_scores = score_trials(state, index, ranking_trials, inventory.size)

    return DeskRun(inventory, snr, history, scores, ablation_scores,
                   ranking_scores, experiment_seconds)


def _eer_of(table, kind):
    return compute_eer(*labelled_scores(getattr(table, kind), table.labels))[0]


def test_desk_experiment_verifies_speakers(desk, capsys):
    cfg = presets.desk_train_config()
    assert cfg.epochs <= 50
    assert (cfg.weights.alpha, cfg.weights.beta, cfg.weights.gamma) == (
        0.0007, 0.00001, 0.0001)
    assert len(desk.scores) == 500

    final_eer = _eer_of(desk.scores, "final")
    evidence_eer = _eer_of(desk.scores, "evidence")
    correlation = explainability_correlation(desk.scores)

    ok = (desk.snr >= 10.0 and final_eer <= 0.05 and evidence_eer <= 0.15
          and correlation >= 0.5 and desk.experiment_seconds < 600.0)
    report(capsys, "6 synthetic verification experiment", ok,
           f"final EER {final_eer:.3f}, evidence EER {evidence_eer:.3f}, "
           f"corr {correlation:.2f}, snr {desk.snr:.1f}, "
           f"{desk.experiment_seconds:.0f}s")


def test_loss_decreases_and_pairwise_terms_help(desk, capsys):
    history = desk.history
    first_epoch, tenth_epoch = (float(np.mean(history.total[history.epoch == epoch]))
                                for epoch in (0, 9))
    full_evidence = _eer_of(desk.scores, "evidence")
    ablated_evidence = _eer_of(desk.ablation_scores, "evidence")

    ok = tenth_epoch < first_epoch and full_evidence < ablated_evidence
    report(capsys, "7 loss behavior and ablation", ok,
           f"epoch means {first_epoch:.2f} -> {tenth_epoch:.2f}, evidence EER "
           f"full {full_evidence:.3f} < ablated {ablated_evidence:.3f}")


def _same_row(a, b):
    floats_equal = all(
        x == y or (math.isnan(x) and math.isnan(y))
        for x, y in ((a.within_mean, b.within_mean),
                     (a.between_mean, b.between_mean),
                     (a.ratio, b.ratio))
    )
    return (a.phone == b.phone and a.included == b.included
            and a.n_available == b.n_available and floats_equal)


def test_phone_discriminability_ranking(desk, capsys):
    floor = presets.F_RATIO_SAMPLES
    rows = f_ratio(desk.ranking_scores, desk.inventory, n_samples=floor, seed=presets.TRIAL_SEED)
    again = f_ratio(desk.ranking_scores, desk.inventory, n_samples=floor, seed=presets.TRIAL_SEED)
    deterministic = len(rows) == len(again) and all(
        _same_row(a, b) for a, b in zip(rows, again))

    included = [r for r in rows if r.included]
    excluded = [r for r in rows if not r.included]
    rare = next(r for r in rows if r.phone == presets.RARE_PHONE)

    ok = (deterministic
          and included and all(r.ratio > 1.0 for r in included)
          and all(r.n_available < floor for r in excluded)
          and not rare.included and rare.n_available < floor
          and math.isnan(rare.ratio))
    min_ratio = min((r.ratio for r in included), default=float("nan"))
    report(capsys, "8 phone discriminability ranking", ok,
           f"{len(included)} phones above 1.0 (min {min_ratio:.3f}), "
           f"excluded {[r.phone for r in excluded]}, deterministic")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical artifacts from repeated pipeline runs
# ---------------------------------------------------------------------------

PIPELINE_STEPS = (
    ["gen-corpus", "--out-dir", "corpus", "--seed", "5", "--trial-seed", "9",
     "--n-speakers", "6", "--utts-per-speaker", "4", "--feature-dim", "4",
     "--segment-min", "1", "--segment-max", "3",
     "--phones-min", "8", "--phones-max", "12",
     "--n-target", "40", "--n-nontarget", "40"],
    ["train", "--corpus-dir", "corpus", "--out-dir", "run", "--seed", "13",
     "--epochs", "2", "--steps-per-epoch", "8", "--speakers-per-batch", "3",
     "--layers=-1,0,1:8:relu", "--embedding-dim", "4"],
    ["score", "--corpus-dir", "corpus", "--checkpoint", "run/ckpt_epoch2",
     "--out-dir", "run"],
    ["eval", "--scores", "run/scores.txt", "--out-dir", "run"],
    ["fratio", "--scores", "run/scores.txt",
     "--inventory", "corpus/inventory.txt", "--out-dir", "run",
     "--n-samples", "2", "--seed", "3"],
    ["explain", "--scores", "run/scores.txt",
     "--inventory", "corpus/inventory.txt", "--out-dir", "run", "--index", "0"],
)


def _run_pipeline(root):
    for step in PIPELINE_STEPS:
        proc = run_phonetrait(step, cwd=root)
        assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"


def test_identical_seeds_reproduce_every_artifact(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    for root in (first, second):
        root.mkdir()
        _run_pipeline(root)

    relative = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert relative == sorted(
        p.relative_to(second) for p in second.rglob("*") if p.is_file())
    differing = [str(p) for p in relative
                 if (first / p).read_bytes() != (second / p).read_bytes()]

    ok = bool(relative) and not differing
    report(capsys, "9 pipeline reproducibility", ok,
           f"{len(relative)} files byte-identical" if ok
           else f"differing files {differing}")
