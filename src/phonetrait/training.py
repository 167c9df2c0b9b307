"""Model assembly, pair-batch training loop, gradient checking, checkpoints.

The trainable parameters are the frame encoder, the statistics projection and
the classification class weights. Updates are plain SGD with momentum on
minibatches of K speakers, two utterances (enrollment, test) per speaker.

A ``train`` run keeps one ``Workspace`` for all its steps. Each step writes
its frame-sized arrays into the workspace's buffers: the packed features,
every encoder layer's context index, context rows and output, the pooling's
segment bins, the verification loss's score table and GEMM operands, the
frame gradient, the encoder's context gradients and ReLU masks. The
buffers grow to the largest step seen and are freed when the run ends. So a
``BatchForward`` made inside training is valid only until the next step,
its deviations only until the step's backward pass; the loss output and the
gradients are fresh arrays.

Checkpoints are a versioned plain-text format written atomically: floats as
``repr``, so a save/load/save cycle is byte identical, and no timestamps or
environment details. The writer refuses, before writing, what the loader
rejects; the loader builds the state through the constructors that check it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .corpus import (
    CorpusIndex,
    PhoneInventory,
    bounded_draws,
    check_seed,
    choice_words,
    generator_words,
)
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
    DimensionError,
    DivergenceError,
)
from .losses import AamConfig, LossOutput, LossWeights, total_loss
from .trait_layer import (
    ProjectionParams,
    forward_batch,
    init_projection,
    trait_layer_backward,
)
from .textio import LineReader, atomic_write, write_row
from .workspace import Workspace

CHECKPOINT_MAGIC = "phonetrait-checkpoint v1"
_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    embedding_dim: int

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ConfigurationError("embedding_dim must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings; the loss weights ride along. Desk run: ``presets``."""

    epochs: int
    steps_per_epoch: int
    speakers_per_batch: int
    learning_rate: float
    momentum: float
    seed: int
    weights: LossWeights = field(default_factory=LossWeights)
    aam: AamConfig = field(default_factory=AamConfig)

    def __post_init__(self):
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigurationError("epochs and steps_per_epoch must be >= 1")
        if self.speakers_per_batch < 2:
            raise ConfigurationError("speakers_per_batch must be >= 2")
        # A zero rate is allowed so a frozen model is expressible.
        if not 0.0 <= self.learning_rate < np.inf:
            raise ConfigurationError("learning_rate must be finite and >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        check_seed(self.seed)


@dataclass
class ModelState:
    """The model's one description: ``config`` and ``n_classes`` are read off its arrays."""

    encoder: EncoderParams
    projection: ProjectionParams
    class_weights: np.ndarray  # (n_classes, D2)
    step: int = 0

    def __post_init__(self):
        d1, d2 = self.encoder.config.output_dim, self.projection.embedding_dim
        if self.projection.trait_dim != d1:
            raise DimensionError(f"projection trait dim {self.projection.trait_dim}, want {d1}")
        if self.class_weights.ndim != 2 or self.class_weights.shape[1] != d2:
            raise DimensionError(f"class weights shape {self.class_weights.shape}, want (n, {d2})")
        if self.n_classes < 1:
            raise ConfigurationError("n_classes must be >= 1")

    @property
    def n_classes(self) -> int:
        return self.class_weights.shape[0]

    @property
    def config(self) -> ModelConfig:
        return ModelConfig(self.encoder.config, self.projection.embedding_dim)


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
        model_cfg.encoder.output_dim, model_cfg.embedding_dim, np.random.default_rng(proj_stream)
    )
    bound = 1.0 / np.sqrt(model_cfg.embedding_dim)
    class_weights = np.random.default_rng(cls_stream).uniform(
        -bound, bound, (n_classes, model_cfg.embedding_dim)
    )
    return ModelState(encoder, projection, class_weights, step=0)


def _named(enc_weights, enc_biases, proj_weight, proj_bias, class_weights) -> dict:
    """One value per trainable array, under its checkpoint name, in checkpoint order."""
    out = {f"encoder_weight_{l}": w for l, w in enumerate(enc_weights)}
    out.update({f"encoder_bias_{l}": b for l, b in enumerate(enc_biases)})
    out.update(projection_weight=proj_weight, projection_bias=proj_bias,
               class_weights=class_weights)
    return out


def parameter_arrays(state: ModelState) -> dict[str, np.ndarray]:
    """Named views of every trainable array, shared with the live state."""
    return _named(state.encoder.weights, state.encoder.biases, state.projection.weight,
                  state.projection.bias, state.class_weights)


@dataclass
class PairSelection:
    """Which utterances make up one pair batch."""

    class_labels: np.ndarray
    enroll_utts: list[str]
    test_utts: list[str]


def sample_pair_batch(index: CorpusIndex, k: int, rng: np.random.Generator) -> PairSelection:
    """Draw K distinct speakers and two distinct utterances for each."""
    eligible, labels = index.pair_speakers
    if len(eligible) < k:
        raise BatchError(
            f"need {k} speakers with >= 2 utterances, corpus has {len(eligible)}"
        )
    # The draws of ``rng.choice`` calls, from the words of two bulk draws that
    # end where those calls would (a rejected word draws one more).
    _, choice = bounded_draws(generator_words(rng, choice_words([len(eligible)], k)))
    chosen = choice(len(eligible), k)
    speaker_utts = [index.utts_by_speaker[eligible[c]] for c in chosen]
    _, choice = bounded_draws(generator_words(rng, choice_words(map(len, speaker_utts), 2)))
    enroll_utts, test_utts = [], []
    for utts in speaker_utts:
        a, b = choice(len(utts), 2)
        enroll_utts.append(utts[a])
        test_utts.append(utts[b])
    return PairSelection(labels[chosen], enroll_utts, test_utts)


def batch_loss_and_grads(
    state: ModelState,
    index: CorpusIndex,
    selection: PairSelection,
    weights: LossWeights,
    aam: AamConfig,
    n_phones: int,
    with_classification: bool = True,
    *,
    workspace: Workspace,
) -> tuple[LossOutput, dict[str, np.ndarray]]:
    """Loss components and gradients for every trainable array on one batch.

    The selection's enrollments, then its tests, run as one packed batch,
    and every gradient sums its per-utterance terms in that order. The desk
    experiment's trajectory depends on that summation order, down to its
    EERs. Training steps with this function; ``grad_check`` certifies it.

    The step's frame-sized arrays live in ``workspace``; the returned loss
    and gradients are fresh arrays.
    """
    utts = selection.enroll_utts + selection.test_utts
    features, phones, lengths = index.pack(utts, workspace)
    cache = forward_batch(features, phones, lengths, utts, state.encoder, state.projection,
                          n_phones, workspace)
    out = total_loss(cache, selection.class_labels, weights, aam, state.class_weights,
                     with_classification, workspace=workspace)
    d_proj_w, d_proj_b, d_frames = trait_layer_backward(
        cache, state.projection, out.d_embeddings, out.d_traits, workspace
    )
    d_enc_w, d_enc_b = encode_backward(state.encoder, cache.activations, cache.packing, d_frames,
                                       workspace)
    # Added into zeros, so a -0.0 gradient element reads +0.0.
    grads = {name: np.zeros_like(arr) for name, arr in parameter_arrays(state).items()}
    for name, g in _named(d_enc_w, d_enc_b, d_proj_w, d_proj_b, out.d_class_weights).items():
        grads[name] += g
    return out, grads


# One row per SGD step; ``train`` returns them as a record array, so a row
# reads as ``rec.step``, ``rec.total`` and so on.
LOSS_HISTORY_DTYPE = np.dtype([
    ("epoch", np.int64),
    ("step", np.int64),
    ("total", np.float64),
    ("classification", np.float64),
    ("verification", np.float64),
    ("center", np.float64),
])


def train_epochs(
    index: CorpusIndex,
    inventory: PhoneInventory,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
):
    """Train a fresh model, yielding after each epoch.

    Yields ``(epoch_number, state, history)`` after each epoch (1-based):
    the live state, and the ``LOSS_HISTORY_DTYPE`` rows of every step so far.
    Batch sampling and initialisation derive from ``train_cfg.seed`` alone, so
    the same corpus and config reproduce the exact same trajectory.
    """
    init_stream, sample_stream = np.random.SeedSequence(train_cfg.seed).spawn(2)
    state = init_model(model_cfg, len(index.speakers), init_stream)
    rng = np.random.default_rng(sample_stream)
    # One workspace for the run: every step writes its frame-sized arrays
    # into the same buffers, and they are freed with the generator.
    workspace = Workspace()
    params = parameter_arrays(state)
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    # Grown by doubling, so its memory follows the steps run, not the steps asked for.
    history = np.recarray(0, dtype=LOSS_HISTORY_DTYPE)
    for epoch in range(train_cfg.epochs):
        for _ in range(train_cfg.steps_per_epoch):
            selection = sample_pair_batch(index, train_cfg.speakers_per_batch, rng)
            out, grads = batch_loss_and_grads(
                state, index, selection, train_cfg.weights, train_cfg.aam, inventory.size,
                workspace=workspace,
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
                velocity[name] *= train_cfg.momentum
                velocity[name] += grads[name]
                arr -= train_cfg.learning_rate * velocity[name]
                if not np.isfinite(arr).all():
                    raise DivergenceError(
                        f"non-finite {name} after step {state.step}; lower the learning rate"
                    )
            if state.step == len(history):
                grown = np.recarray(max(1, 2 * state.step), dtype=LOSS_HISTORY_DTYPE)
                grown[:state.step] = history
                history = grown
            history[state.step] = (epoch, state.step, out.total, out.classification,
                                   out.verification, out.center)
            state.step += 1
        yield epoch + 1, state, history[:state.step]


def train(
    index: CorpusIndex,
    inventory: PhoneInventory,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    epoch_callback=None,
) -> tuple[ModelState, np.recarray]:
    """``train_epochs`` run to the end: the final state and the loss history,
    one ``LOSS_HISTORY_DTYPE`` row per step. ``epoch_callback(epoch_number,
    state)`` runs after each epoch (1-based), e.g. to save per-epoch
    checkpoints.
    """
    for epoch, state, history in train_epochs(index, inventory, model_cfg, train_cfg):
        if epoch_callback is not None:
            epoch_callback(epoch, state)
    return state, history


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def numeric_gradients(
    loss_fn,
    params: dict[str, np.ndarray],
    step_size: float,
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
    tolerance: float,
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
    step_size: float,
    tolerance: float,
) -> GradCheckReport:
    """Certify ``batch_loss_and_grads``' gradients of one batch against
    central finite differences of its own loss, so the check covers the
    function training steps with. All its passes share one workspace.

    A relative error reaches 1 where one gradient is zero and the other is
    not, so a ``tolerance`` of 1 or more would pass a missing gradient.
    """
    if not 0.0 < step_size < np.inf:
        raise ConfigurationError("step_size must be finite and > 0")
    if not 0.0 < tolerance < 1.0:
        raise ConfigurationError("tolerance must be in (0, 1)")
    step = partial(batch_loss_and_grads, state, index, selection, weights, aam, n_phones,
                   workspace=Workspace())
    _, analytic = step()
    numeric = numeric_gradients(lambda: step()[0].total, parameter_arrays(state), step_size)
    return compare_gradient_tables(analytic, numeric, tolerance)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    dims = " ".join(str(d) for d in arr.shape)
    f.write(f"tensor {name} {dims}\n")
    for row in arr.reshape(1, -1) if arr.ndim == 1 else arr:
        write_row(f, row)


def save_checkpoint(state: ModelState, model_cfg: ModelConfig, path) -> None:
    """Write ``state``; a ``model_cfg`` other than ``state.config`` or a non-finite value,
    which ``load_checkpoint`` would reject, is a ConfigurationError before any write."""
    cfg = state.config
    if model_cfg != cfg:
        raise ConfigurationError(f"{model_cfg} does not describe the state, {cfg}")
    arrays = parameter_arrays(state)
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ConfigurationError(f"non-finite value in tensor {name!r}")
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        f.write(f"input_dim {cfg.encoder.input_dim}\n")
        f.write(f"layers {format_layer_string(cfg.encoder.layers)}\n")
        f.write(f"embedding_dim {cfg.embedding_dim}\n")
        f.write(f"n_classes {state.n_classes}\n")
        f.write(f"step {state.step}\n")
        for name, arr in arrays.items():
            _write_tensor(f, name, arr)


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint's ``ModelState``; reject a version mismatch.

    A repeated tensor block, a non-finite value or a dimension past int64 is
    a ParseError, and tensors that do not give the header's architecture a
    ConfigurationError. The model is built from the tensors read; no array
    is allocated from a count in the file.
    """
    with LineReader(path) as lines:
        if lines.next_line() != CHECKPOINT_MAGIC:
            raise lines.error(f"not a {CHECKPOINT_MAGIC!r} file", 1)
        header: dict = {}
        for key in ("input_dim", "layers", "embedding_dim", "n_classes", "step"):
            text = lines.next_line()
            if text is None:
                raise lines.error(f"missing header field {key!r}")
            name, value = lines.key_value(text)
            if name != key or not value:
                raise lines.error(f"expected header field {key!r}, got {text!r}")
            try:
                header[key] = parse_layer_string(value) if key == "layers" else int(value)
            except (ValueError, ConfigurationError) as exc:
                raise lines.error(f"bad checkpoint header: {exc}") from None
            dims = [layer.output_dim for layer in header[key]] if key == "layers" else [header[key]]
            if key != "step" and max(dims) > _INT64_MAX:
                raise lines.error(f"bad checkpoint header: {key} is past int64")
        model_cfg = ModelConfig(EncoderConfig(header["input_dim"], header["layers"]),
                                header["embedding_dim"])

        tensors: dict[str, np.ndarray] = {}
        for text in lines.records():
            parts = text.split()
            if parts[0] != "tensor" or len(parts) < 3:
                raise lines.error(f"expected a tensor header, got {text!r}")
            name = lines.unique_key(tensors, parts[1], "tensor")
            shape = tuple(lines.parse(parts[2:], int, "tensor shape"))
            if min(shape) < 0:
                raise lines.error(f"negative dimension in tensor {name!r}")
            # NumPy holds no float64 array, not even an empty one, whose
            # nonzero dimensions multiply past this.
            if math.prod(max(d, 1) for d in shape) > sys.maxsize // 8:
                raise lines.error(f"tensor {name!r} shape {shape} is too large for an array")
            n_rows = 1 if len(shape) == 1 else shape[0]
            row_len = shape[0] if len(shape) == 1 else math.prod(shape[1:])
            tensors[name] = lines.block(n_rows, row_len, f"tensor {name!r}").reshape(shape)

    layer_ids = range(len(model_cfg.encoder.layers))
    names = set(_named(layer_ids, layer_ids, None, None, None))
    if set(tensors) != names:
        raise lines.error(
            f"checkpoint tensors do not match the architecture "
            f"(missing {sorted(names - set(tensors))}, unexpected {sorted(set(tensors) - names)})"
        )
    encoder = EncoderParams(model_cfg.encoder, [tensors[f"encoder_weight_{l}"] for l in layer_ids],
                            [tensors[f"encoder_bias_{l}"] for l in layer_ids])
    projection = ProjectionParams(tensors["projection_weight"], tensors["projection_bias"])
    state = ModelState(encoder, projection, tensors["class_weights"], header["step"])
    if state.config != model_cfg or state.n_classes != header["n_classes"]:
        raise ConfigurationError(
            f"tensors give embedding_dim {state.config.embedding_dim}, n_classes "
            f"{state.n_classes}; the header {model_cfg.embedding_dim}, {header['n_classes']}")
    return state
