"""Deliberately naive reference implementations used to certify the package.

Everything here trades speed for obviousness: explicit Python loops, direct
counting, no vectorised shortcuts. Tests compare the package's optimised
code against these. The ``per_utterance_*`` functions are the training step
as it ran before batching, one utterance at a time; the batched step must
reproduce their sums bit for bit, summation order included. Likewise
``per_trial_scores`` is trial scoring as it ran before batching, one
utterance and one scalar cosine at a time, through ``per_utterance_forward``
alone, and batched scoring must match it exactly. The one exception is a
batch with an edge shape, which ``assert_matches`` holds to the oracles
within ``EDGE_TOLERANCE`` instead. ``traits_center_loss`` is the
trait-center loss as it ran before it read pooling's deviations, its
centers taken afresh from the traits. ``choice_generate_corpus``
is corpus generation as it ran before the phone CDF was hoisted: one
``Generator.choice`` call and one frame block per segment.
``choice_make_trials`` and ``choice_sample_pair_batch`` are the trial and
pair-batch samplers as they ran before their integers were made from 32-bit
words drawn in bulk: one ``Generator.integers`` or ``Generator.choice`` call
per draw. The ``scan_*``
readers are the alignment, score and feature loaders one row at a time, each
cell converted alone; the bulk loaders must raise their errors or return
their values.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def central_difference(loss_fn, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. one array, in place."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        upper = loss_fn()
        flat[i] = saved - step
        lower = loss_fn()
        flat[i] = saved
        flat_grad[i] = (upper - lower) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6
    )
    return float(rel.max())


# A batch has an edge shape if an utterance has one frame or a layer is one
# wide. NumPy multiplies a one-row or one-column product with gemv rather
# than GEMM, and sums a one-wide axis pairwise rather than row by row, so
# there a batch and its utterances one by one round differently. Such a batch
# must match the oracles to within this absolute tolerance, scaled up by the
# largest magnitude compared where that exceeds 1. It is absolute because a
# sum that cancels to about zero (a gradient at a ReLU's edge, say) carries
# rounding noise of the size of its terms, not of its result.
EDGE_TOLERANCE = 1e-9


def edge_shape(lengths, widths) -> bool:
    """Whether utterances of ``lengths`` frames through layers of ``widths`` form an edge shape."""
    return min(lengths) == 1 or min(widths) == 1


def assert_matches(got, want, exact: bool, name: str = "") -> None:
    """``got`` has NaN where ``want`` has, and equals it elsewhere bit for bit if
    ``exact``, else to within ``EDGE_TOLERANCE`` times the larger of 1 and
    ``want``'s largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan), name
    got, want = got[~nan], want[~nan]
    if exact:
        assert got.tobytes() == want.tobytes(), name
    else:
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=EDGE_TOLERANCE * np.abs(want).max(initial=1.0),
                                   err_msg=name)


def naive_encode(config, weights, biases, features: np.ndarray) -> np.ndarray:
    """Per-frame re-implementation of the context-window encoder."""
    x = np.asarray(features, dtype=np.float64)
    for layer, w, b in zip(config.layers, weights, biases):
        n_frames = x.shape[0]
        out = np.zeros((n_frames, layer.output_dim))
        for t in range(n_frames):
            ctx = []
            for off in layer.context_offsets:
                src = min(max(t + off, 0), n_frames - 1)
                ctx.extend(x[src])
            pre = w @ np.array(ctx) + b
            if layer.nonlinearity == "relu":
                pre = np.array([max(v, 0.0) for v in pre])
            out[t] = pre
        x = out
    return x


def _per_utterance_context(n_frames, offsets):
    return np.clip(np.arange(n_frames)[:, None] + np.asarray(offsets), 0, n_frames - 1)


def per_utterance_encode(params, features):
    """One utterance through the encoder; every layer's activation, input first."""
    x = np.asarray(features, dtype=np.float64)
    n_frames = x.shape[0]
    activations = [x]
    for layer, w, b in zip(params.config.layers, params.weights, params.biases):
        idx = _per_utterance_context(n_frames, layer.context_offsets)
        pre = x[idx].reshape(n_frames, -1) @ w.T + b
        x = np.maximum(pre, 0.0) if layer.nonlinearity == "relu" else pre
        activations.append(x)
    return activations


def per_utterance_encode_backward(params, activations, d_output):
    """One utterance's encoder weight and bias gradients, and its input gradient."""
    grad = np.asarray(d_output, dtype=np.float64)
    n_frames = grad.shape[0]
    d_weights = [np.zeros_like(w) for w in params.weights]
    d_biases = [np.zeros_like(b) for b in params.biases]
    for l in range(len(params.config.layers) - 1, -1, -1):
        layer = params.config.layers[l]
        x = activations[l]
        d_pre = grad * (activations[l + 1] > 0.0) if layer.nonlinearity == "relu" else grad
        idx = _per_utterance_context(n_frames, layer.context_offsets)
        d_weights[l] = d_pre.T @ x[idx].reshape(n_frames, -1)
        d_biases[l] = d_pre.sum(axis=0)
        d_ctx = (d_pre @ params.weights[l]).reshape(n_frames, len(layer.context_offsets), -1)
        grad = np.zeros_like(x)
        np.add.at(grad, idx.T.ravel(), d_ctx.transpose(1, 0, 2).reshape(-1, x.shape[1]))
    return d_weights, d_biases, grad


def pool_statistics(filtered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (eps-stabilised population) std over one utterance's N x D1 present traits."""
    from phonetrait.trait_layer import STD_EPS

    mean = filtered.mean(axis=0)
    var = np.mean((filtered - mean) ** 2, axis=0)
    return mean, np.sqrt(var + STD_EPS)


def per_utterance_forward(features, phones, utterance_id, encoder_params, projection, n_phones):
    """One utterance from features to embedding; a dict of every intermediate."""
    from phonetrait.errors import EmptyUtteranceError

    activations = per_utterance_encode(encoder_params, features)
    emb = activations[-1]
    counts = np.bincount(phones, minlength=n_phones)
    sums = np.zeros((n_phones, emb.shape[1]))
    np.add.at(sums, phones, emb)
    traits = np.zeros_like(sums)
    seen = counts > 0
    traits[seen] = sums[seen] / counts[seen, None]
    present = seen & np.any(traits != 0.0, axis=1)
    traits[~present] = 0.0
    kept = np.nonzero(present)[0]
    if kept.size == 0:
        raise EmptyUtteranceError(f"utterance {utterance_id!r} has no present phonetic traits")
    filtered = traits[kept]
    mean, std = pool_statistics(filtered)
    stats = np.concatenate([mean, std])
    deviations = np.zeros_like(traits)
    deviations[kept] = filtered - mean
    return dict(activations=activations, phones=phones, counts=counts, traits=traits,
                present=present, kept=kept, filtered=filtered, mean=mean, std=std, stats=stats,
                deviations=deviations, embedding=projection.weight @ stats + projection.bias)


def per_utterance_backward(cache, projection, d_emb, d_traits):
    """One utterance's projection gradients and frame-embedding gradient."""
    d_proj_w = np.outer(d_emb, cache["stats"])
    d_proj_b = d_emb.copy()
    d_stats = projection.weight.T @ d_emb
    d1 = cache["mean"].shape[0]
    d_mean, d_std = d_stats[:d1], d_stats[d1:]
    n = cache["filtered"].shape[0]
    d_var = d_std / (2.0 * cache["std"])
    d_filtered = d_mean / n + d_var * 2.0 * (cache["filtered"] - cache["mean"]) / n
    d_trait_full = np.zeros_like(cache["traits"])
    d_trait_full[cache["kept"]] = d_filtered
    d_trait_full[cache["kept"]] += d_traits[cache["kept"]]
    phones = cache["phones"]
    return d_proj_w, d_proj_b, d_trait_full[phones] / cache["counts"][phones, None]


def per_utterance_loss_and_grads(state, index, selection, weights, aam, n_phones,
                                 with_classification=True):
    """A training step's loss and gradients, one utterance at a time.

    Every utterance runs through the model alone, enrollments then tests, and
    each gradient adds its utterances' terms in that order. Returns
    (LossOutput, gradients, forward): ``forward`` stacks the utterances'
    traits, presence masks, present counts, deviations from their mean and
    embeddings, the fields of a ``BatchForward`` that ``total_loss`` reads.
    """
    from phonetrait.losses import total_loss
    from phonetrait.training import parameter_arrays
    from phonetrait.workspace import Workspace

    def run(utt):
        return per_utterance_forward(index.features[utt].features, index.phones[utt], utt,
                                     state.encoder, state.projection, n_phones)

    caches = [run(u) for u in selection.enroll_utts + selection.test_utts]
    forward = SimpleNamespace(
        traits=np.stack([c["traits"] for c in caches]),
        present=np.stack([c["present"] for c in caches]),
        n_present=np.array([c["kept"].size for c in caches]),
        deviations=np.stack([c["deviations"] for c in caches]),
        embeddings=np.stack([c["embedding"] for c in caches]),
    )
    out = total_loss(forward, selection.class_labels, weights, aam, state.class_weights,
                     with_classification, workspace=Workspace())
    grads = {name: np.zeros_like(arr) for name, arr in parameter_arrays(state).items()}
    grads["class_weights"] += out.d_class_weights
    for u, cache in enumerate(caches):
        d_proj_w, d_proj_b, d_frames = per_utterance_backward(
            cache, state.projection, out.d_embeddings[u], out.d_traits[u])
        grads["projection_weight"] += d_proj_w
        grads["projection_bias"] += d_proj_b
        d_enc_w, d_enc_b, _ = per_utterance_encode_backward(
            state.encoder, cache["activations"], d_frames)
        for l, g in enumerate(d_enc_w):
            grads[f"encoder_weight_{l}"] += g
        for l, g in enumerate(d_enc_b):
            grads[f"encoder_bias_{l}"] += g
    return out, grads, forward


def traits_center_loss(traits, present, gamma):
    """``trait_center_loss`` of one side's (K, I, D1) traits and (K, I) presence
    mask, its centers and deviations taken afresh from the traits, as before
    the loss read them from pooling. Returns (loss, d_traits)."""
    mask = present[:, :, None]
    counts = present.sum(axis=1)
    total = int(counts.sum())
    centers = (traits * mask).sum(axis=1) / counts[:, None]
    deviation = (traits - centers[:, None, :]) * mask
    loss = gamma * float(np.square(deviation).sum()) / total
    return loss, deviation * (2.0 * gamma / total)


def per_phone_trait_verification_loss(enroll, pe, test, pt, alpha, beta):
    """``trait_verification_loss`` with its distances taken one phone at a time.

    Each phone's (K, K) squared distances come from their own
    ``einsum("khd,khd->kh")`` call, as before the distances were blocked and
    then screened, in a (K, K, I) table; the nearest test speaker is found in
    a masked copy of it and the gradients are scattered with ``ufunc.at``.
    Returns (loss, d_enroll, d_test).
    """
    n_speakers = enroll.shape[0]
    sq = np.empty((n_speakers, n_speakers, enroll.shape[1]))
    for i in range(enroll.shape[1]):
        diff = enroll[:, None, i, :] - test[None, :, i, :]
        sq[:, :, i] = np.einsum("khd,khd->kh", diff, diff)
    valid = pe[:, None, :] & pt[None, :, :]

    loss = 0.0
    d_enroll = np.zeros_like(enroll)
    d_test = np.zeros_like(test)
    diag = np.arange(n_speakers)

    matched_mask = valid[diag, diag, :]
    n_matched = int(matched_mask.sum())
    if n_matched:
        loss += alpha * float(sq[diag, diag, :][matched_mask].sum()) / n_matched
        coef = 2.0 * alpha / n_matched
        matched_diff = (enroll - test) * matched_mask[:, :, None]
        d_enroll += coef * matched_diff
        d_test -= coef * matched_diff

    candidates = np.where(valid, sq, np.inf)
    candidates[diag, diag, :] = np.inf
    nearest = np.argmin(candidates, axis=1)
    nearest_sq = np.min(candidates, axis=1)
    retained = np.isfinite(nearest_sq)
    n_retained = int(retained.sum())
    if n_retained:
        loss -= beta * float(nearest_sq[retained].sum()) / n_retained
        coef = 2.0 * beta / n_retained
        ks, phones = np.nonzero(retained)
        hs = nearest[ks, phones]
        pulled = coef * (enroll[ks, phones] - test[hs, phones])
        np.subtract.at(d_enroll, (ks, phones), pulled)
        np.add.at(d_test, (hs, phones), pulled)
    return loss, d_enroll, d_test


def per_trial_scores(state, index, trials, n_phones):
    """Score trials one at a time with scalar cosines, as before batching.

    Each trial forwards both utterances afresh, takes every defined phone's
    ``a @ b / (norm(a) * norm(b))`` and averages the defined values. Returns
    one (final, evidence, values, defined) tuple per trial; evidence is None
    when no phone is shared.
    """
    def forward(utt):
        fwd = per_utterance_forward(index.features[utt].features, index.phones[utt], utt,
                                    state.encoder, state.projection, n_phones)
        return fwd["traits"], fwd["present"], fwd["embedding"]

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    scores = []
    for enroll_id, test_id in zip(trials.enroll_ids, trials.test_ids):
        enroll_traits, enroll_present, enroll_embedding = forward(enroll_id)
        test_traits, test_present, test_embedding = forward(test_id)
        defined = enroll_present & test_present
        values = np.full(n_phones, np.nan)
        for i in np.nonzero(defined)[0]:
            values[i] = cosine(enroll_traits[i], test_traits[i])
        evidence = float(values[defined].mean()) if defined.any() else None
        scores.append((cosine(enroll_embedding, test_embedding), evidence, values, defined))
    return scores


def choice_generate_corpus(n_speakers, utts_per_speaker, inventory, feature_dim,
                           segment_length_range, phones_per_utt_range, noise_std, seed,
                           speaker_spread=0.25, phone_weights=None):
    """``generate_corpus`` with ``rng.choice(n_phones, p=probs)`` per segment.

    Takes the same arguments (assumed valid) and returns, per utterance in
    generation order, ``(utterance_id, speaker_id, features, segments)``.
    """
    n_phones = inventory.size
    if phone_weights is None:
        probs = np.full(n_phones, 1.0 / n_phones)
    else:
        w = np.asarray(phone_weights, dtype=np.float64)
        probs = w / w.sum()
    streams = np.random.SeedSequence(seed).spawn(1 + n_speakers * utts_per_speaker)
    profile_rng = np.random.default_rng(streams[0])
    prototypes = profile_rng.standard_normal((n_phones, feature_dim))
    signatures = [prototypes + speaker_spread * profile_rng.standard_normal((n_phones, feature_dim))
                  for _ in range(n_speakers)]
    utterances = []
    for s in range(n_speakers):
        for u in range(utts_per_speaker):
            rng = np.random.default_rng(streams[1 + s * utts_per_speaker + u])
            n_segments = int(rng.integers(phones_per_utt_range[0], phones_per_utt_range[1] + 1))
            segments, rows, cursor = [], [], 0
            for _ in range(n_segments):
                phone = int(rng.choice(n_phones, p=probs))
                length = int(rng.integers(segment_length_range[0], segment_length_range[1] + 1))
                noise = rng.standard_normal((length, feature_dim))
                rows.append(signatures[s][phone] + noise_std * noise)
                segments.append((cursor, cursor + length, phone))
                cursor += length
            utterances.append((f"spk{s:03d}_u{u:03d}", f"spk{s:03d}",
                               np.concatenate(rows, axis=0), segments))
    return utterances


def ragged_corpus(utt_counts):
    """(features, alignments) of one-frame utterances, ``utt_counts[s]`` of
    them for speaker ``s``: a corpus for the samplers, which read only ids."""
    from phonetrait.corpus import PhoneAlignment, UtteranceFeatures

    features, alignments = [], []
    for s, n in enumerate(utt_counts):
        for u in range(n):
            utt = f"spk{s:03d}_u{u:03d}"
            features.append(UtteranceFeatures(utt, f"spk{s:03d}", np.zeros((1, 1))))
            alignments.append(PhoneAlignment(utt, [(0, 1, 0)]))
    return features, alignments


def choice_make_trials(features, n_target, n_nontarget, seed):
    """``make_trials`` with one NumPy call per draw, on valid arguments.

    Returns the trials' (enroll_ids, test_ids, labels) columns as lists.
    """
    by_speaker = {}
    for f in features:
        by_speaker.setdefault(f.speaker_id, []).append(f.utterance_id)
    speakers = sorted(by_speaker)
    by_speaker = {speaker: sorted(by_speaker[speaker]) for speaker in speakers}
    pairable = [s for s in speakers if len(by_speaker[s]) >= 2]
    rng = np.random.default_rng(seed)
    enroll_ids, test_ids = [], []
    for _ in range(n_target):
        utts = by_speaker[pairable[int(rng.integers(len(pairable)))]]
        a, b = rng.choice(len(utts), size=2, replace=False)
        enroll_ids.append(utts[int(a)])
        test_ids.append(utts[int(b)])
    for _ in range(n_nontarget):
        i, j = rng.choice(len(speakers), size=2, replace=False)
        enroll = by_speaker[speakers[int(i)]]
        test = by_speaker[speakers[int(j)]]
        enroll_ids.append(enroll[int(rng.integers(len(enroll)))])
        test_ids.append(test[int(rng.integers(len(test)))])
    return enroll_ids, test_ids, [1] * n_target + [0] * n_nontarget


def choice_sample_pair_batch(index, k, rng):
    """``sample_pair_batch`` with one NumPy call per draw, for a corpus with
    at least ``k`` speakers of two or more utterances.

    Returns the batch's (class_labels, enroll_utts, test_utts) as lists.
    """
    eligible = [s for s in index.speakers if len(index.utts_by_speaker[s]) >= 2]
    chosen = rng.choice(len(eligible), size=k, replace=False)
    enroll_utts, test_utts = [], []
    for c in chosen:
        utts = index.utts_by_speaker[eligible[int(c)]]
        a, b = rng.choice(len(utts), size=2, replace=False)
        enroll_utts.append(utts[int(a)])
        test_utts.append(utts[int(b)])
    return [index.speakers.index(eligible[int(c)]) for c in chosen], enroll_utts, test_utts


def naive_traits(frame_embeddings: np.ndarray, frame_phones, n_phones: int):
    """Group-by-phone mean with dictionaries; returns (traits, present)."""
    groups: dict[int, list[np.ndarray]] = {}
    for t, phone in enumerate(frame_phones):
        groups.setdefault(int(phone), []).append(frame_embeddings[t])
    dim = frame_embeddings.shape[1]
    traits = np.zeros((n_phones, dim))
    present = np.zeros(n_phones, dtype=bool)
    for phone, rows in groups.items():
        mean = np.zeros(dim)
        for row in rows:
            mean += row
        mean /= len(rows)
        if any(v != 0.0 for v in mean):
            traits[phone] = mean
            present[phone] = True
    return traits, present


def naive_cosine(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return num / (na * nb)


def _error_rates_at(threshold: float, target, nontarget) -> tuple[float, float]:
    """Direct counting of (far, frr) under accept-iff-score>=threshold."""
    false_accepts = sum(1 for s in nontarget if s >= threshold)
    false_rejects = sum(1 for s in target if s < threshold)
    return false_accepts / len(nontarget), false_rejects / len(target)


def sweep_eer(scores, labels) -> tuple[float, float]:
    """Exhaustive-threshold EER: scan every candidate point, interpolate."""
    target = [s for s, l in zip(scores, labels) if l == 1]
    nontarget = [s for s, l in zip(scores, labels) if l == 0]
    thresholds = sorted(set(target) | set(nontarget))
    thresholds.append(math.nextafter(thresholds[-1], math.inf))
    points = [_error_rates_at(t, target, nontarget) for t in thresholds]
    prev_gap = None
    for k, (far, frr) in enumerate(points):
        gap = frr - far
        if gap == 0.0:
            return far, thresholds[k]
        if gap > 0.0:
            far_prev, frr_prev = points[k - 1]
            lam = -prev_gap / (gap - prev_gap)
            eer = far_prev + lam * (far - far_prev)
            threshold = thresholds[k - 1] + lam * (thresholds[k] - thresholds[k - 1])
            return eer, threshold
        prev_gap = gap
    raise AssertionError("no crossing found")


def sweep_min_dcf(scores, labels, p_target=0.01, c_miss=1.0, c_fa=1.0) -> tuple[float, float]:
    target = [s for s, l in zip(scores, labels) if l == 1]
    nontarget = [s for s, l in zip(scores, labels) if l == 0]
    thresholds = sorted(set(target) | set(nontarget))
    thresholds.append(math.nextafter(thresholds[-1], math.inf))
    floor = min(c_miss * p_target, c_fa * (1.0 - p_target))
    best, best_threshold = None, None
    for t in thresholds:
        far, frr = _error_rates_at(t, target, nontarget)
        cost = (c_miss * p_target * frr + c_fa * (1.0 - p_target) * far) / floor
        if best is None or cost < best:
            best, best_threshold = cost, t
    return best, best_threshold


# ---------------------------------------------------------------------------
# row-by-row file readers
# ---------------------------------------------------------------------------
# The loaders as they read before their rules became masks over bulk-converted
# chunks: one row at a time, each cell converted alone, the first bad row
# raising. The loaders must name the same ``path:line`` with the same message,
# or return the same values bit for bit.

def _records(path):
    """(line number, text) of every non-blank line."""
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if line.strip():
                yield line_no, line.rstrip("\n")


def _na_row(path, line_no, text, width, what, sep):
    """One row of ``width`` cells, NaN where a cell is exactly NA."""
    from phonetrait.textio import _loadtxt
    from phonetrait.errors import ParseError

    cells = text.split(sep)
    try:
        if len(cells) != width:
            raise ValueError(f"expected {width} values, got {len(cells)}")
        row = _loadtxt(sep.join("nan" if cell == "NA" else cell for cell in cells), sep)[0]
    except ValueError as exc:
        raise ParseError(path, line_no, f"non-numeric {what} ({exc})") from None
    if np.count_nonzero(np.isfinite(row)) != width - cells.count("NA"):
        raise ParseError(path, line_no, f"non-finite {what}")
    return row


def scan_alignments(path, inventory):
    """``load_alignments`` one row at a time; returns [(utt, segments)]."""
    from phonetrait.textio import _loadtxt
    from phonetrait.errors import ParseError

    order, segments = [], {}
    for line_no, text in _records(path):
        def fail(message):
            return ParseError(path, line_no, message)
        parts = text.split("\t")
        if len(parts) != 4:
            raise fail(f"expected 4 fields, got {len(parts)}")
        utt_id, start_s, end_s, label = parts
        try:
            start, end = _loadtxt(f"{start_s}\t{end_s}", "\t", np.int64)[0].tolist()
        except ValueError as exc:
            raise fail(f"non-numeric frame bounds ({exc})") from None
        if label not in inventory.labels:
            raise fail(f"phone label {label!r} not in inventory")
        if utt_id not in segments:
            order.append(utt_id)
            segments[utt_id] = []
        elif order[-1] != utt_id:
            raise fail(f"rows of utterance {utt_id!r} are not consecutive")
        if end <= start:
            raise fail(f"empty segment ({start}, {end})")
        prev = segments[utt_id]
        expected = prev[-1][1] if prev else 0
        if start != expected:
            kind = "overlap" if start < expected else "gap"
            raise fail(f"{kind} at frame {expected} of utterance {utt_id!r}")
        prev.append((start, end, inventory.index_of(label)))
    return [(utt, segments[utt]) for utt in order]


def scan_scores(path, n_phones=None):
    """``load_scores`` one row at a time; returns (enroll_ids, test_ids,
    labels, values), ``values`` the (n, 2 + I) final, evidence and per-phone
    columns."""
    from phonetrait.errors import ParseError

    enroll_ids, test_ids, labels, rows = [], [], [], []
    for line_no, text in _records(path):
        if n_phones is None:
            n_phones = max(text.count("\t") - 4, 1)
        n_fields = text.count("\t") + 1
        if n_fields != 5 + n_phones:
            raise ParseError(path, line_no, f"expected {5 + n_phones} fields, got {n_fields}")
        enroll, test, label, cells = text.split("\t", 3)
        if label not in ("0", "1", "NA"):
            raise ParseError(path, line_no, f"label must be 1, 0 or NA, got {label!r}")
        if cells.startswith("NA\t"):
            raise ParseError(path, line_no, "final score is NA")
        row = _na_row(path, line_no, cells, 2 + n_phones, "score", "\t")
        if np.isnan(row[1]) != np.isnan(row[2:]).all():
            raise ParseError(path, line_no, "evidence must be NA exactly when no phone is defined")
        enroll_ids.append(enroll)
        test_ids.append(test)
        labels.append(-1 if label == "NA" else int(label))
        rows.append(row)
    values = np.array(rows).reshape(len(rows), 2 + (n_phones or 0))
    return enroll_ids, test_ids, labels, values


def scan_features(path):
    """``load_features`` one row at a time; returns [(utt, speaker, features)]."""
    from phonetrait.textio import _loadtxt
    from phonetrait.errors import ParseError

    out = []
    with open(path) as f:
        lines = enumerate(f, start=1)
        for line_no, header in lines:
            if not header.strip():
                continue
            parts = header.split()
            if len(parts) != 4:
                raise ParseError(path, line_no, f"expected 4 fields, got {len(parts)}")
            utt_id, speaker_id, t_s, f_s = parts
            try:
                n_frames, dim = int(t_s), int(f_s)
            except ValueError as exc:
                raise ParseError(path, line_no, f"non-numeric T or F ({exc})") from None
            if n_frames < 1 or dim < 1:
                raise ParseError(path, line_no, f"T and F must be >= 1, got {n_frames}, {dim}")
            what = f"feature block for {utt_id!r}"
            block = [(n, text.rstrip("\n")) for _, (n, text) in zip(range(n_frames), lines)]
            if len(block) < n_frames:  # reported before any bad row in the block
                raise ParseError(path, block[-1][0] if block else line_no, f"truncated {what}")
            rows = []
            for line_no, text in block:
                cells = text.split()
                if len(cells) != dim:
                    raise ParseError(path, line_no, f"expected {dim} values, got {len(cells)}")
                try:
                    row = _loadtxt(text, None)[0]
                except ValueError as exc:
                    raise ParseError(path, line_no, f"non-numeric value in {what} ({exc})") from None
                if not np.isfinite(row).all():
                    raise ParseError(path, line_no, f"non-finite value in {what}")
                rows.append(row)
            out.append((utt_id, speaker_id, np.array(rows)))
    return out
