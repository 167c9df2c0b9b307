"""Frame-level encoder: stacked context-window affine layers with ReLU.

Each layer sees, for every frame t, the concatenation of its input at frames
``t + offset`` for the layer's context offsets (clamped to the utterance
boundary, so edges repeat the first/last frame). This is a time-delay
architecture expressed directly in numpy; forward and backward passes are
hand-written so gradients can be certified against finite differences.

Both passes write their frame-sized arrays into a ``Workspace``: the
forward pass each layer's context index, context rows and output, which the
backward pass reads instead of gathering the context again, and the
backward pass its context gradients and ReLU masks. Inside a training run
the workspace lives for the whole run, so these arrays are valid until the
next step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .workspace import Workspace

_NONLINEARITIES = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    """One encoder layer: context offsets, output width, nonlinearity."""

    context_offsets: tuple[int, ...]
    output_dim: int
    nonlinearity: str = "relu"

    def __post_init__(self):
        offsets = tuple(int(o) for o in self.context_offsets)
        object.__setattr__(self, "context_offsets", offsets)
        if not offsets:
            raise ConfigurationError("layer needs at least one context offset")
        if list(offsets) != sorted(set(offsets)):
            raise ConfigurationError(f"context offsets must be strictly increasing, got {offsets}")
        if self.output_dim < 1:
            raise ConfigurationError("output_dim must be >= 1")
        if self.nonlinearity not in _NONLINEARITIES:
            raise ConfigurationError(
                f"nonlinearity must be one of {_NONLINEARITIES}, got {self.nonlinearity!r}"
            )


@dataclass(frozen=True)
class EncoderConfig:
    """Input feature width plus the layer stack."""

    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if not self.layers:
            raise ConfigurationError("encoder needs at least one layer")

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    def weight_shapes(self) -> list[tuple[int, int]]:
        """Every layer's weight shape, (output_dim, n_offsets * input width), in layer order."""
        shapes, width = [], self.input_dim
        for layer in self.layers:
            shapes.append((layer.output_dim, len(layer.context_offsets) * width))
            width = layer.output_dim
        return shapes


def format_layer_string(layers: tuple[LayerSpec, ...]) -> str:
    """Render layers as ``off,off:dim:nonlin;...`` (inverse of parse_layer_string)."""
    return ";".join(
        f"{','.join(str(o) for o in l.context_offsets)}:{l.output_dim}:{l.nonlinearity}"
        for l in layers
    )


def parse_layer_string(text: str) -> tuple[LayerSpec, ...]:
    """Parse ``-1,0,1:16:relu;0:8:identity`` into layer specs."""
    layers = []
    for part in text.split(";"):
        fields = part.split(":")
        if len(fields) != 3:
            raise ConfigurationError(f"bad layer spec {part!r}, want offsets:dim:nonlinearity")
        try:
            offsets = tuple(int(o) for o in fields[0].split(","))
            dim = int(fields[1])
        except ValueError:
            raise ConfigurationError(f"bad layer spec {part!r}") from None
        layers.append(LayerSpec(offsets, dim, fields[2]))
    return tuple(layers)


@dataclass
class EncoderParams:
    """Weights and biases for every layer of one encoder."""

    config: EncoderConfig
    weights: list[np.ndarray]  # layer l: (output_dim, n_offsets * input_dim)
    biases: list[np.ndarray]   # layer l: (output_dim,)

    def __post_init__(self):
        shapes = self.config.weight_shapes()
        if len(self.weights) != len(shapes) or len(self.biases) != len(shapes):
            raise DimensionError("one weight and bias per layer required")
        for l, (weight, bias, want) in enumerate(zip(self.weights, self.biases, shapes)):
            if weight.shape != want:
                raise DimensionError(f"layer {l} weight shape {weight.shape}, want {want}")
            if bias.shape != want[:1]:
                raise DimensionError(f"layer {l} bias shape {bias.shape}, want {want[:1]}")


def init_encoder(config: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init for weights and biases."""
    weights, biases = [], []
    for output_dim, fan_in in config.weight_shapes():
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (output_dim, fan_in)))
        biases.append(rng.uniform(-bound, bound, output_dim))
    return EncoderParams(config, weights, biases)


def _bounds(lengths, n_frames: int) -> list[list[int]]:
    """[start, end) rows of every packed utterance."""
    lengths = np.array(lengths, dtype=np.int64)
    if lengths.ndim != 1 or (lengths < 0).any() or lengths.sum() != n_frames:
        raise DimensionError(
            f"utterance lengths {lengths.tolist()} do not pack {n_frames} frames"
        )
    ends = np.cumsum(lengths)
    return np.stack([ends - lengths, ends], axis=1).tolist()


def _context_index(bounds: list[list[int]], offsets: tuple[int, ...], out: np.ndarray) -> np.ndarray:
    """``out`` filled with the source row of every context slot, N x n_offsets.

    Frame t's slot for an offset reads row t + offset, clamped to t's own
    utterance, so edges repeat that utterance's first/last frame.
    """
    starts, ends = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
    first = np.repeat(starts, ends - starts)[:, None]
    last = np.repeat(ends - 1, ends - starts)[:, None]
    np.add(np.arange(out.shape[0])[:, None], offsets, out=out)
    return np.clip(out, first, last, out=out)


@dataclass(frozen=True)
class Packing:
    """How a forward pass laid out its frames; ``encode_backward`` reuses it.

    ``bounds`` holds the [start, end) rows of every packed utterance,
    ``indices`` every layer's context index (None for a ``(0,)`` layer, whose
    gather is the identity) and ``contexts`` the N x (n_offsets * width)
    context rows each layer multiplied, which backward reads instead of
    gathering them again.
    """

    bounds: list[list[int]]
    indices: list[np.ndarray | None]
    contexts: list[np.ndarray]


def encode_layers(
    params: EncoderParams, features: np.ndarray, lengths, workspace: Workspace
) -> tuple[list[np.ndarray], Packing]:
    """Every layer's activation for N x F frames of utterances packed back to back.

    ``lengths`` gives each utterance's frame count in packing order; no
    context window crosses from one utterance into the next. Returns (activations, packing): the activations
    start with the input (as float64) and end with the N x D1 frame
    embeddings, and the packing holds the utterance bounds, context indices
    and context rows the pass built. ``encode_backward`` reads both.

    Layer l's context index, context rows and output go to the ``workspace``
    roles ``index<l>``, ``context<l>`` and ``layer<l>``, so they are valid
    until the next pass through the same workspace.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise DimensionError(
            f"features must be T x {params.config.input_dim}, got shape {x.shape}"
        )
    n_frames = x.shape[0]
    bounds = _bounds(lengths, n_frames)
    packing = Packing(bounds, [], [])
    activations = [x]
    for l, (layer, w, b) in enumerate(zip(params.config.layers, params.weights, params.biases)):
        offsets = layer.context_offsets
        # A (0,) layer's gather and scatter are identities and need no index.
        idx, ctx = None, x
        if offsets != (0,):
            idx = _context_index(bounds, offsets,
                                 workspace.take(f"index{l}", (n_frames, len(offsets)), np.int64))
            # ``take`` copies the same rows as ``x[idx]``, in a fraction of the
            # time. Every index is in range; mode "clip" writes ``out``
            # directly, where "raise" would write a temporary and copy it.
            ctx = np.take(x, idx.ravel(), axis=0, mode="clip",
                          out=workspace.take(f"context{l}", (idx.size, x.shape[1])))
            ctx = ctx.reshape(n_frames, -1)
        packing.indices.append(idx)
        packing.contexts.append(ctx)
        x = np.matmul(ctx, w.T, out=workspace.take(f"layer{l}", (n_frames, layer.output_dim)))
        x += b
        if layer.nonlinearity == "relu":
            np.maximum(x, 0.0, out=x)
        activations.append(x)
    return activations, packing


def encode_backward(
    params: EncoderParams,
    activations: list[np.ndarray],
    packing: Packing,
    d_output: np.ndarray,
    workspace: Workspace,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of a scalar loss w.r.t. every weight and bias.

    ``activations`` and ``packing`` are ``encode_layers``' result for the same
    frames, and ``d_output`` the loss gradient w.r.t. the last activation
    (N x D1, float64). ``d_output`` is overwritten: on return it holds the
    gradient w.r.t. the last layer's pre-activation, which a ReLU layer
    masks in place.

    Each weight and bias gradient is the sum, in packing order, of every
    utterance's own gradient, so a batch accumulates exactly as its
    utterances would one by one. Returns (d_weights, d_biases), aligned to
    ``params.weights`` / ``params.biases``.

    The frame gradients of the lower layers take turns in the ``workspace``
    roles ``grad_a`` and ``grad_b``, and each ReLU mask goes to ``relu_mask``.
    """
    grad = np.asarray(d_output, dtype=np.float64)
    if grad.shape != activations[-1].shape:
        raise DimensionError(f"d_output shape {grad.shape}, want {activations[-1].shape}")
    n_frames = grad.shape[0]
    d_weights = [np.zeros_like(w) for w in params.weights]
    d_biases = [np.zeros_like(b) for b in params.biases]
    # ``spare`` names the role that holds nothing still to be read.
    spare, held = "grad_a", "grad_b"
    for l in range(len(params.config.layers) - 1, -1, -1):
        layer = params.config.layers[l]
        if layer.nonlinearity == "relu":
            # A ReLU output is positive exactly where its pre-activation is.
            act = activations[l + 1]
            mask = np.greater(act, 0.0, out=workspace.take("relu_mask", act.shape, np.bool_))
            np.multiply(grad, mask, out=grad)
        ctx = packing.contexts[l]
        for start, end in packing.bounds:
            d_weights[l] += grad[start:end].T @ ctx[start:end]
            d_biases[l] += grad[start:end].sum(axis=0)
        if l == 0:
            break
        grad = np.matmul(grad, params.weights[l], out=workspace.take(spare, ctx.shape))
        spare, held = held, spare
        idx = packing.indices[l]
        if idx is None:
            continue
        d_ctx = grad
        grad = workspace.take(spare, activations[l].shape)
        spare, held = held, spare
        grad.fill(0.0)
        # Clamped gathering means edge frames receive several contributions,
        # summed offset by offset and frame by frame within an offset.
        np.add.at(grad, idx.T.ravel(),
                  d_ctx.reshape(n_frames, idx.shape[1], -1).transpose(1, 0, 2).reshape(-1, grad.shape[1]))
    return d_weights, d_biases
