"""Independent checks of the score-chain outputs.

Everything here re-reads the written files with its own parsers and
recomputes results the slow, obvious way: a per-frame encoder loop, per-phone
means by direct summation, cosines by explicit sums, and an equal error rate
found by counting errors at every candidate threshold. Only the model's
stabilising constant ``STD_EPS`` comes from the package, as a definition.
"""

from __future__ import annotations

import math

import numpy as np
from phonetrait.trait_layer import STD_EPS

TOLERANCE = 1e-9


def read_inventory(path) -> list[str]:
    with open(path) as f:
        return [line.strip() for line in f if line.strip()]


def read_features(path) -> dict[str, np.ndarray]:
    out = {}
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    i = 0
    while i < len(lines):
        utt, _speaker, n_frames, dim = lines[i].split()
        n_frames, dim = int(n_frames), int(dim)
        rows = [[float(v) for v in lines[i + 1 + r].split()] for r in range(n_frames)]
        out[utt] = np.array(rows).reshape(n_frames, dim)
        i += 1 + n_frames
    return out


def read_alignments(path, labels: list[str]) -> dict[str, list[int]]:
    """Phone index of every frame, per utterance."""
    index = {label: i for i, label in enumerate(labels)}
    out: dict[str, list[int]] = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            utt, start, end, label = line.rstrip("\n").split("\t")
            out.setdefault(utt, []).extend([index[label]] * (int(end) - int(start)))
    return out


def read_checkpoint(path):
    """(layers as (offsets, dim, nonlinearity), tensors by name)."""
    with open(path) as f:
        lines = [line.split() for line in f if line.strip()]
    header = {fields[0]: fields[1:] for fields in lines[1:6]}
    layers = []
    for part in header["layers"][0].split(";"):
        offsets, dim, nonlinearity = part.split(":")
        layers.append(([int(o) for o in offsets.split(",")], int(dim), nonlinearity))
    tensors = {}
    pos = 6
    while pos < len(lines):
        _, name, *shape = lines[pos]
        shape = [int(d) for d in shape]
        n_rows = 1 if len(shape) == 1 else shape[0]
        rows = [[float(v) for v in lines[pos + 1 + r]] for r in range(n_rows)]
        tensors[name] = np.array(rows).reshape(shape)
        pos += 1 + n_rows
    return layers, tensors


def embed(features: np.ndarray, frame_phones: list[int], n_phones: int, model):
    """(per-phone traits with None for absent phones, speaker embedding)."""
    layers, tensors = model
    x = [list(row) for row in features]
    for l, (offsets, _dim, nonlinearity) in enumerate(layers):
        w, b = tensors[f"encoder_weight_{l}"], tensors[f"encoder_bias_{l}"]
        n_frames = len(x)
        out = []
        for t in range(n_frames):
            ctx = []
            for off in offsets:
                ctx.extend(x[min(max(t + off, 0), n_frames - 1)])
            pre = (w @ np.array(ctx) + b).tolist()
            out.append([max(v, 0.0) for v in pre] if nonlinearity == "relu" else pre)
        x = out
    width = len(x[0])
    traits: list[list[float] | None] = []
    for phone in range(n_phones):
        rows = [x[t] for t, p in enumerate(frame_phones) if p == phone]
        mean = [sum(r[d] for r in rows) / len(rows) for d in range(width)] if rows else None
        traits.append(mean if mean is not None and any(v != 0.0 for v in mean) else None)
    kept = [t for t in traits if t is not None]
    mean = [sum(t[d] for t in kept) / len(kept) for d in range(width)]
    std = [math.sqrt(sum((t[d] - mean[d]) ** 2 for t in kept) / len(kept) + STD_EPS)
           for d in range(width)]
    stats = mean + std
    w, b = tensors["projection_weight"], tensors["projection_bias"]
    embedding = (w @ np.array(stats) + b).tolist()
    return traits, embedding


def cosine(a, b) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    return dot / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))


def read_scores(path) -> list[list[str]]:
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def _differs(written: str, expected: float | None) -> bool:
    if expected is None:
        return written != "NA"
    return written == "NA" or abs(float(written) - expected) > TOLERANCE


def check_trials(corpus_dir, checkpoint, scores_path, sample: int, seed: int) -> list[str]:
    """Recompute ``sample`` seeded trials; return one message per mismatch."""
    labels = read_inventory(f"{corpus_dir}/inventory.txt")
    features = read_features(f"{corpus_dir}/features.txt")
    phones = read_alignments(f"{corpus_dir}/alignments.txt", labels)
    model = read_checkpoint(checkpoint)
    rows = read_scores(scores_path)
    picks = np.random.default_rng(seed).choice(len(rows), size=min(sample, len(rows)),
                                               replace=False)
    cache = {}

    def embedded(utt):
        if utt not in cache:
            cache[utt] = embed(features[utt], phones[utt], len(labels), model)
        return cache[utt]

    errors = []
    for r in sorted(int(p) for p in picks):
        enroll, test, _label, final, evidence, *sims = rows[r]
        (e_traits, e_emb), (t_traits, t_emb) = embedded(enroll), embedded(test)
        if _differs(final, cosine(e_emb, t_emb)):
            errors.append(f"row {r}: final {final} differs from the recomputation")
        defined = []
        for i, (a, b) in enumerate(zip(e_traits, t_traits)):
            expected = cosine(a, b) if a is not None and b is not None else None
            if expected is not None:
                defined.append(expected)
            if _differs(sims[i], expected):
                errors.append(f"row {r}: phone {labels[i]} similarity {sims[i]} differs")
        mean = sum(defined) / len(defined) if defined else None
        if _differs(evidence, mean):
            errors.append(f"row {r}: evidence {evidence} differs from the recomputation")
    return errors


def sweep_eer(scores: np.ndarray, labels: np.ndarray) -> float:
    """EER by counting errors at every distinct score plus a reject-all point.

    Accept iff score >= threshold; interpolate linearly between the last
    threshold with FRR < FAR and the first with FRR >= FAR.
    """
    target, nontarget = scores[labels == 1], scores[labels == 0]
    thresholds = sorted(set(scores.tolist()))
    thresholds.append(thresholds[-1] + 1.0)
    t = np.array(thresholds)[:, None]
    far = (nontarget[None, :] >= t).sum(axis=1) / nontarget.size
    frr = (target[None, :] < t).sum(axis=1) / target.size
    for k in range(len(thresholds)):
        gap = frr[k] - far[k]
        if gap == 0.0:
            return float(far[k])
        if gap > 0.0:
            prev_gap = frr[k - 1] - far[k - 1]
            lam = -prev_gap / (gap - prev_gap)
            return float(far[k - 1] + lam * (far[k] - far[k - 1]))
    raise ValueError("FRR never reaches FAR")


def check_eer(scores_path, report_path) -> list[str]:
    """The reported final and evidence EERs must match the brute-force sweep."""
    rows = read_scores(scores_path)
    with open(report_path) as f:
        report = dict(line.split(" ", 1) for line in f.read().splitlines() if line)
    errors = []
    for column, key in ((3, "final_eer"), (4, "evidence_eer")):
        kept = [r for r in rows if r[2] != "NA" and r[column] != "NA"]
        scores = np.array([float(r[column]) for r in kept])
        labels = np.array([int(r[2]) for r in kept])
        expected = sweep_eer(scores, labels)
        if abs(float(report[key]) - expected) > TOLERANCE:
            errors.append(f"{key} {report[key]} differs from the sweep's {expected!r}")
    return errors
