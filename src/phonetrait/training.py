"""Model assembly, pair-batch training loop, gradient checking, checkpoints.

The trainable parameters are the frame encoder, the statistics projection and
the classification class weights. Updates are plain SGD with momentum on
minibatches of K speakers, two utterances (enrollment, test) per speaker.

Checkpoints are a versioned plain-text format written atomically; floats are
serialised with ``repr`` so a save/load/save cycle is byte identical and no
timestamps or environment details ever enter the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusIndex, PhoneInventory, _LineReader, _write_row, atomic_write
from .encoder import (
    EncoderConfig,
    EncoderParams,
    encode_backward,
    format_layer_string,
    init_encoder,
    parse_layer_string,
)
from .errors import (
    BatchError,
    ConfigurationError,
    DivergenceError,
)
from .losses import AamConfig, LossOutput, LossWeights, PairBatch, total_loss
from .trait_layer import (
    ProjectionParams,
    UtteranceForward,
    forward_utterance,
    init_projection,
    trait_layer_backward,
)

CHECKPOINT_MAGIC = "phonetrait-checkpoint v1"


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    embedding_dim: int

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ConfigurationError("embedding_dim must be >= 1")

    @property
    def trait_dim(self) -> int:
        return self.encoder.output_dim


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings; the loss weights ride along."""

    epochs: int = 20
    steps_per_epoch: int = 25
    speakers_per_batch: int = 8
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    aam: AamConfig = field(default_factory=AamConfig)

    def __post_init__(self):
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigurationError("epochs and steps_per_epoch must be >= 1")
        if self.speakers_per_batch < 2:
            raise ConfigurationError("speakers_per_batch must be >= 2")
        # A zero rate is allowed so a frozen model is expressible.
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")


@dataclass
class ModelState:
    encoder: EncoderParams
    projection: ProjectionParams
    class_weights: np.ndarray  # (n_classes, D2)
    step: int = 0

    @property
    def n_classes(self) -> int:
        return self.class_weights.shape[0]


def init_model(
    model_cfg: ModelConfig,
    n_classes: int,
    seed: int | np.random.SeedSequence,
) -> ModelState:
    if n_classes < 1:
        raise ConfigurationError("n_classes must be >= 1")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    enc_stream, proj_stream, cls_stream = seq.spawn(3)
    encoder = init_encoder(model_cfg.encoder, np.random.default_rng(enc_stream))
    projection = init_projection(
        model_cfg.trait_dim, model_cfg.embedding_dim, np.random.default_rng(proj_stream)
    )
    bound = 1.0 / np.sqrt(model_cfg.embedding_dim)
    class_weights = np.random.default_rng(cls_stream).uniform(
        -bound, bound, (n_classes, model_cfg.embedding_dim)
    )
    return ModelState(encoder, projection, class_weights, step=0)


def parameter_arrays(state: ModelState) -> dict[str, np.ndarray]:
    """Named views of every trainable array, shared with the live state."""
    out: dict[str, np.ndarray] = {}
    for l, w in enumerate(state.encoder.weights):
        out[f"encoder_weight_{l}"] = w
    for l, b in enumerate(state.encoder.biases):
        out[f"encoder_bias_{l}"] = b
    out["projection_weight"] = state.projection.weight
    out["projection_bias"] = state.projection.bias
    out["class_weights"] = state.class_weights
    return out


@dataclass
class PairSelection:
    """Which utterances make up one pair batch."""

    speaker_ids: list[str]
    class_labels: np.ndarray
    enroll_utts: list[str]
    test_utts: list[str]


def sample_pair_batch(index: CorpusIndex, k: int, rng: np.random.Generator) -> PairSelection:
    """Draw K distinct speakers and two distinct utterances for each."""
    eligible = [s for s in index.speakers if len(index.utts_by_speaker[s]) >= 2]
    if len(eligible) < k:
        raise BatchError(
            f"need {k} speakers with >= 2 utterances, corpus has {len(eligible)}"
        )
    chosen = rng.choice(len(eligible), size=k, replace=False)
    speaker_ids, enroll_utts, test_utts = [], [], []
    for c in chosen:
        speaker = eligible[int(c)]
        utts = index.utts_by_speaker[speaker]
        a, b = rng.choice(len(utts), size=2, replace=False)
        speaker_ids.append(speaker)
        enroll_utts.append(utts[int(a)])
        test_utts.append(utts[int(b)])
    labels = np.array([index.class_label(s) for s in speaker_ids], dtype=np.int64)
    return PairSelection(speaker_ids, labels, enroll_utts, test_utts)


def forward_pair_batch(
    state: ModelState,
    index: CorpusIndex,
    selection: PairSelection,
    n_phones: int,
) -> tuple[PairBatch, list[UtteranceForward], list[UtteranceForward]]:
    """Run every utterance of the selection through the model."""

    def run(utt_id: str) -> UtteranceForward:
        return forward_utterance(
            index.features[utt_id].features,
            index.alignments[utt_id],
            state.encoder,
            state.projection,
            n_phones,
        )

    enroll = [run(u) for u in selection.enroll_utts]
    test = [run(u) for u in selection.test_utts]
    batch = PairBatch(
        speaker_ids=selection.speaker_ids,
        class_labels=selection.class_labels,
        enroll_traits=np.stack([c.trait_set.traits for c in enroll]),
        enroll_present=np.stack([c.trait_set.present for c in enroll]),
        test_traits=np.stack([c.trait_set.traits for c in test]),
        test_present=np.stack([c.trait_set.present for c in test]),
        enroll_embeddings=np.stack([c.embedding for c in enroll]),
        test_embeddings=np.stack([c.embedding for c in test]),
    )
    return batch, enroll, test


def batch_loss_and_grads(
    state: ModelState,
    index: CorpusIndex,
    selection: PairSelection,
    weights: LossWeights,
    aam: AamConfig,
    n_phones: int,
    with_classification: bool = True,
) -> tuple[LossOutput, dict[str, np.ndarray]]:
    """Loss components and gradients for every trainable array on one batch."""
    batch, enroll_caches, test_caches = forward_pair_batch(state, index, selection, n_phones)
    out = total_loss(batch, weights, aam, state.class_weights, with_classification)

    grads = {name: np.zeros_like(arr) for name, arr in parameter_arrays(state).items()}
    grads["class_weights"] += out.d_class_weights
    sides = (
        (enroll_caches, out.d_enroll_embeddings, out.d_enroll_traits),
        (test_caches, out.d_test_embeddings, out.d_test_traits),
    )
    for caches, d_embeddings, d_traits in sides:
        for k, cache in enumerate(caches):
            d_proj_w, d_proj_b, d_frames = trait_layer_backward(
                cache, state.projection, d_embeddings[k], d_traits[k]
            )
            grads["projection_weight"] += d_proj_w
            grads["projection_bias"] += d_proj_b
            d_enc_w, d_enc_b, _ = encode_backward(state.encoder, cache.activations, d_frames)
            for l, g in enumerate(d_enc_w):
                grads[f"encoder_weight_{l}"] += g
            for l, g in enumerate(d_enc_b):
                grads[f"encoder_bias_{l}"] += g
    return out, grads


@dataclass
class StepRecord:
    epoch: int
    step: int
    total: float
    classification: float
    verification: float
    center: float


def train(
    index: CorpusIndex,
    inventory: PhoneInventory,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    epoch_callback=None,
) -> tuple[ModelState, list[StepRecord]]:
    """Train a fresh model on the indexed corpus.

    Batch sampling and initialisation derive from ``train_cfg.seed`` alone, so
    the same corpus and config reproduce the exact same trajectory.
    ``epoch_callback(epoch_number, state)`` runs after each epoch (1-based),
    e.g. to save per-epoch checkpoints.
    """
    init_stream, sample_stream = np.random.SeedSequence(train_cfg.seed).spawn(2)
    state = init_model(model_cfg, len(index.speakers), init_stream)
    rng = np.random.default_rng(sample_stream)
    params = parameter_arrays(state)
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    history: list[StepRecord] = []
    for epoch in range(train_cfg.epochs):
        for _ in range(train_cfg.steps_per_epoch):
            selection = sample_pair_batch(index, train_cfg.speakers_per_batch, rng)
            out, grads = batch_loss_and_grads(
                state, index, selection, train_cfg.weights, train_cfg.aam, inventory.size
            )
            if not np.isfinite(out.total):
                raise DivergenceError(
                    f"non-finite loss {out.total} at step {state.step}; lower the learning rate"
                )
            for name, arr in params.items():
                if not np.isfinite(grads[name]).all():
                    raise DivergenceError(
                        f"non-finite {name} gradient at step {state.step}; lower the learning rate"
                    )
                velocity[name] = train_cfg.momentum * velocity[name] + grads[name]
                arr -= train_cfg.learning_rate * velocity[name]
                if not np.isfinite(arr).all():
                    raise DivergenceError(
                        f"non-finite {name} after step {state.step}; lower the learning rate"
                    )
            history.append(
                StepRecord(
                    epoch=epoch,
                    step=state.step,
                    total=out.total,
                    classification=out.classification,
                    verification=out.verification,
                    center=out.center,
                )
            )
            state.step += 1
        if epoch_callback is not None:
            epoch_callback(epoch + 1, state)
    return state, history


def epoch_mean_losses(history: list[StepRecord]) -> dict[int, float]:
    sums: dict[int, list[float]] = {}
    for rec in history:
        sums.setdefault(rec.epoch, []).append(rec.total)
    return {epoch: float(np.mean(vals)) for epoch, vals in sums.items()}


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def batch_loss_value(
    state: ModelState,
    index: CorpusIndex,
    selection: PairSelection,
    weights: LossWeights,
    aam: AamConfig,
    n_phones: int,
    with_classification: bool = True,
) -> float:
    """Scalar total loss of one batch (forward only), for finite differences."""
    batch, _, _ = forward_pair_batch(state, index, selection, n_phones)
    return total_loss(batch, weights, aam, state.class_weights, with_classification).total


def numeric_gradients(
    loss_fn,
    params: dict[str, np.ndarray],
    step_size: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central finite differences of ``loss_fn()`` over the given arrays.

    ``loss_fn`` takes no arguments and must read the arrays in ``params``
    (live views into model state), which are perturbed in place and restored.
    """
    grads = {}
    for name, arr in params.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step_size
            upper = loss_fn()
            flat[i] = saved - step_size
            lower = loss_fn()
            flat[i] = saved
            flat_grad[i] = (upper - lower) / (2.0 * step_size)
        grads[name] = grad
    return grads


@dataclass
class GradCheckReport:
    tolerance: float
    max_errors: dict[str, float]

    @property
    def worst(self) -> float:
        return max(self.max_errors.values())

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def lines(self) -> list[str]:
        out = [f"{name} max_rel_err={repr(err)}" for name, err in sorted(self.max_errors.items())]
        out.append(f"worst={repr(self.worst)} tolerance={repr(self.tolerance)} "
                   f"{'PASS' if self.passed else 'FAIL'}")
        return out


def compare_gradient_tables(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Elementwise relative error |a - n| / max(|a|, |n|, 1e-6), max per array."""
    if set(analytic) != set(numeric):
        raise ConfigurationError("gradient tables cover different parameters")
    max_errors = {}
    for name in analytic:
        a, n = analytic[name], numeric[name]
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        max_errors[name] = float(rel.max())
    return GradCheckReport(tolerance=tolerance, max_errors=max_errors)


def grad_check(
    state: ModelState,
    index: CorpusIndex,
    selection: PairSelection,
    weights: LossWeights,
    aam: AamConfig,
    n_phones: int,
    step_size: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Certify the analytic gradients of one batch against finite differences."""
    _, analytic = batch_loss_and_grads(state, index, selection, weights, aam, n_phones)
    numeric = numeric_gradients(
        lambda: batch_loss_value(state, index, selection, weights, aam, n_phones),
        parameter_arrays(state),
        step_size,
    )
    return compare_gradient_tables(analytic, numeric, tolerance)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    dims = " ".join(str(d) for d in arr.shape)
    f.write(f"tensor {name} {dims}\n")
    for row in arr.reshape(1, -1) if arr.ndim == 1 else arr:
        _write_row(f, row)


def save_checkpoint(state: ModelState, model_cfg: ModelConfig, path) -> None:
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        f.write(f"input_dim {model_cfg.encoder.input_dim}\n")
        f.write(f"layers {format_layer_string(model_cfg.encoder.layers)}\n")
        f.write(f"embedding_dim {model_cfg.embedding_dim}\n")
        f.write(f"n_classes {state.n_classes}\n")
        f.write(f"step {state.step}\n")
        for name, arr in parameter_arrays(state).items():
            _write_tensor(f, name, arr)


def load_checkpoint(path, expected: ModelConfig | None = None) -> tuple[ModelState, ModelConfig]:
    """Read a checkpoint; reject version or configuration mismatches.

    A repeated tensor block or a non-finite value is a ParseError.

    When ``expected`` is given the stored architecture must match it exactly.
    """
    with _LineReader(path) as lines:
        if lines.next_line() != CHECKPOINT_MAGIC:
            raise lines.error(f"not a {CHECKPOINT_MAGIC!r} file", 1)
        header: dict[str, str] = {}
        for key in ("input_dim", "layers", "embedding_dim", "n_classes", "step"):
            text = lines.next_line()
            if text is None:
                raise lines.error(f"missing header field {key!r}")
            name, value = lines.key_value(text)
            if name != key or not value:
                raise lines.error(f"expected header field {key!r}, got {text!r}")
            header[key] = value
        try:
            input_dim = int(header["input_dim"])
            embedding_dim = int(header["embedding_dim"])
            n_classes = int(header["n_classes"])
            step = int(header["step"])
            layers = parse_layer_string(header["layers"])
        except (ValueError, ConfigurationError) as exc:
            raise lines.error(f"bad checkpoint header: {exc}", 2) from None
        model_cfg = ModelConfig(EncoderConfig(input_dim, layers), embedding_dim)
        if expected is not None and model_cfg != expected:
            raise ConfigurationError(
                "checkpoint architecture does not match the requested configuration: "
                f"stored input_dim={input_dim} layers={header['layers']!r} "
                f"embedding_dim={embedding_dim}"
            )

        tensors: dict[str, np.ndarray] = {}
        for text in lines.records():
            parts = text.split()
            if parts[0] != "tensor" or len(parts) < 3:
                raise lines.error(f"expected a tensor header, got {text!r}")
            name = lines.unique_key(tensors, parts[1], "tensor")
            shape = tuple(lines.parse(parts[2:], int, "tensor shape"))
            if min(shape) < 0:
                raise lines.error(f"negative dimension in tensor {name!r}")
            n_rows = 1 if len(shape) == 1 else shape[0]
            row_len = shape[0] if len(shape) == 1 else int(np.prod(shape[1:]))
            tensors[name] = lines.block(n_rows, row_len, f"tensor {name!r}").reshape(shape)

    state = init_model(model_cfg, n_classes, seed=0)
    expected_names = set(parameter_arrays(state))
    if set(tensors) != expected_names:
        missing = expected_names - set(tensors)
        extra = set(tensors) - expected_names
        raise lines.error(
            f"checkpoint tensors do not match the architecture "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    for name, arr in parameter_arrays(state).items():
        if tensors[name].shape != arr.shape:
            raise ConfigurationError(
                f"tensor {name!r} has shape {tensors[name].shape}, "
                f"architecture requires {arr.shape}"
            )
        arr[...] = tensors[name]
    state.step = step
    return state, model_cfg
