"""Frame-level encoder: stacked context-window affine layers with ReLU.

Each layer sees, for every frame t, the concatenation of its input at frames
``t + offset`` for the layer's context offsets (clamped to the utterance
boundary, so edges repeat the first/last frame). This is a time-delay
architecture expressed directly in numpy; forward and backward passes are
hand-written so gradients can be certified against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError

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

    def layer_input_dims(self) -> list[int]:
        dims = [self.input_dim]
        for layer in self.layers[:-1]:
            dims.append(layer.output_dim)
        return dims


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
        in_dims = self.config.layer_input_dims()
        if len(self.weights) != len(self.config.layers) or len(self.biases) != len(self.config.layers):
            raise DimensionError("one weight and bias per layer required")
        for l, layer in enumerate(self.config.layers):
            want = (layer.output_dim, len(layer.context_offsets) * in_dims[l])
            if self.weights[l].shape != want:
                raise DimensionError(f"layer {l} weight shape {self.weights[l].shape}, want {want}")
            if self.biases[l].shape != (layer.output_dim,):
                raise DimensionError(
                    f"layer {l} bias shape {self.biases[l].shape}, want {(layer.output_dim,)}"
                )


def init_encoder(config: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init for weights and biases."""
    weights, biases = [], []
    in_dims = config.layer_input_dims()
    for l, layer in enumerate(config.layers):
        fan_in = len(layer.context_offsets) * in_dims[l]
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (layer.output_dim, fan_in)))
        biases.append(rng.uniform(-bound, bound, layer.output_dim))
    return EncoderParams(config, weights, biases)


def _context_index(n_frames: int, offsets: tuple[int, ...]) -> np.ndarray:
    """T x n_offsets source frame of every context slot: t + offset clamped to [0, T)."""
    return np.clip(np.arange(n_frames)[:, None] + np.asarray(offsets), 0, n_frames - 1)


def encode_layers(params: EncoderParams, features: np.ndarray) -> list[np.ndarray]:
    """Every layer's activation for a T x F feature matrix.

    The list starts with the input (as float64) and ends with the T x D1 frame
    embeddings; ``encode_backward`` reads the whole list.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise DimensionError(
            f"features must be T x {params.config.input_dim}, got shape {x.shape}"
        )
    n_frames = x.shape[0]
    activations = [x]
    for layer, w, b in zip(params.config.layers, params.weights, params.biases):
        idx = _context_index(n_frames, layer.context_offsets)
        pre = x[idx].reshape(n_frames, -1) @ w.T + b
        x = np.maximum(pre, 0.0) if layer.nonlinearity == "relu" else pre
        activations.append(x)
    return activations


def encode_backward(
    params: EncoderParams, activations: list[np.ndarray], d_output: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gradients of a scalar loss w.r.t. every weight, bias, and the input.

    ``activations`` is ``encode_layers``' result for the utterance and
    ``d_output`` the loss gradient w.r.t. its last entry (T x D1).

    Returns (d_weights, d_biases, d_features) with the lists aligned to
    ``params.weights`` / ``params.biases``.
    """
    grad = np.asarray(d_output, dtype=np.float64)
    if grad.shape != activations[-1].shape:
        raise DimensionError(f"d_output shape {grad.shape}, want {activations[-1].shape}")
    n_frames = grad.shape[0]
    d_weights = [np.zeros_like(w) for w in params.weights]
    d_biases = [np.zeros_like(b) for b in params.biases]
    for l in range(len(params.config.layers) - 1, -1, -1):
        layer = params.config.layers[l]
        x = activations[l]
        # A ReLU output is positive exactly where its pre-activation is.
        d_pre = grad * (activations[l + 1] > 0.0) if layer.nonlinearity == "relu" else grad
        idx = _context_index(n_frames, layer.context_offsets)
        d_weights[l] = d_pre.T @ x[idx].reshape(n_frames, -1)
        d_biases[l] = d_pre.sum(axis=0)
        d_ctx = (d_pre @ params.weights[l]).reshape(n_frames, len(layer.context_offsets), -1)
        grad = np.zeros_like(x)
        # Clamped gathering means edge frames receive several contributions,
        # summed offset by offset and frame by frame within an offset.
        np.add.at(grad, idx.T.ravel(), d_ctx.transpose(1, 0, 2).reshape(-1, x.shape[1]))
    return d_weights, d_biases, grad
