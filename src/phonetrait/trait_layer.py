"""Phonetic trait layer: per-phone pooling, utterance pooling, projection.

Sits between the frame encoder and the utterance embedding. For each phone in
the inventory the trait is the mean of the frame embeddings aligned to that
phone; phones with no frames get an all-zero row and are flagged absent. The
present rows then go through statistics pooling (mean and standard deviation
over traits) and a linear projection to the final speaker embedding.

A batch of B utterances is held as stacked arrays in packing order: B x I x D1
traits, a B x I presence mask, B x 2*D1 pooled statistics and B x D2
embeddings. Statistics pooling runs over the stacked traits with absent rows
zero: adding +0.0 leaves a sum unchanged. At a trait width D1 >= 2 NumPy sums
the I axis row by row, so each sum sees the utterance's present rows in
order, bit-equal to pooling those rows alone. At width 1 NumPy sums the
reduced axis pairwise, in blocks, and the absent zero rows regroup those
sums, so the last bits may differ from a per-utterance pool. Pooling's
present counts and deviations from the mean are kept for the trait-center
loss and the backward pass, which turns the deviations into the trait
gradient in place.

``forward_batch`` and ``trait_layer_backward`` write their frame-sized
arrays (the encoder's, the segment bins and the N x D1 frame gradient) into
a ``Workspace``; inside a training run it lives for the whole run, so a
``BatchForward``'s activations and packing are valid until the next step.

A phone whose frames average to the exact zero vector is indistinguishable
from an absent phone on purpose: presence is defined by the trait value
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, Packing, encode_layers
from .errors import ConfigurationError, DimensionError, EmptyUtteranceError
from .workspace import Workspace

# Inside the sqrt of the pooled standard deviation; keeps the gradient finite
# when every present trait is identical (e.g. a single present phone).
STD_EPS = 1e-9


def extract_traits(
    frame_embeddings: np.ndarray,
    segments: np.ndarray,
    counts: np.ndarray,
    workspace: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Average packed frame embeddings per (utterance, phone) into B x I x D1 traits.

    ``segments`` holds every frame's ``u * I + phone`` id, u being its
    utterance's place in the batch, and ``counts`` the B x I frames of each
    pair, ``np.bincount(segments, minlength=B * I).reshape(B, I)``. Every
    frame of a phone counts equally, so a phone aligned to several segments
    pools all their frames together, weighted by duration.

    Returns (traits, present) with a (B, I) presence mask. The segment sum's
    bins go to the ``workspace`` role ``bins``.
    """
    emb = np.asarray(frame_embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise DimensionError(f"frame embeddings must be T x D1, got shape {emb.shape}")
    if emb.shape[0] != segments.shape[0]:
        raise DimensionError(
            f"{segments.shape[0]} aligned frames but {emb.shape[0]} embedding rows"
        )
    # One segment sum over every (segment, column) bin of the raveled rows:
    # each bin still adds its frames in frame order.
    d1 = emb.shape[1]
    bins = np.multiply(segments[:, None], d1, out=workspace.take("bins", emb.shape, np.int64))
    bins += np.arange(d1)
    sums = np.bincount(bins.ravel(), weights=emb.ravel(), minlength=counts.size * d1)
    sums = sums.reshape(*counts.shape, d1)
    # An unseen pair's sum is 0.0, and 0.0 / 1 keeps its row zero.
    traits = sums / np.maximum(counts, 1)[..., None]
    # A phone can be present only if some value survives the mean; an exact
    # zero mean collapses onto the absent convention.
    present = np.any(traits != 0.0, axis=-1)
    traits[~present] = 0.0
    return traits, present


@dataclass
class ProjectionParams:
    """Linear map from pooled statistics (2*D1) to the speaker embedding (D2)."""

    weight: np.ndarray  # (D2, 2*D1)
    bias: np.ndarray    # (D2,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.weight.shape[1] % 2 != 0:
            raise DimensionError(f"projection weight must be D2 x 2*D1, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise DimensionError(
                f"projection bias shape {self.bias.shape}, want {(self.weight.shape[0],)}"
            )

    @property
    def trait_dim(self) -> int:
        return self.weight.shape[1] // 2

    @property
    def embedding_dim(self) -> int:
        return self.weight.shape[0]


def init_projection(trait_dim: int, embedding_dim: int, rng: np.random.Generator) -> ProjectionParams:
    if trait_dim < 1 or embedding_dim < 1:
        raise ConfigurationError("trait_dim and embedding_dim must be >= 1")
    fan_in = 2 * trait_dim
    bound = 1.0 / np.sqrt(fan_in)
    return ProjectionParams(
        weight=rng.uniform(-bound, bound, (embedding_dim, fan_in)),
        bias=rng.uniform(-bound, bound, embedding_dim),
    )


def _batch_statistics(traits: np.ndarray, present: np.ndarray, n_present: np.ndarray):
    """(B x 2*D1 mean and eps-stabilised population std, B x I x D1 deviations
    from the mean) of every utterance's present traits.

    Absent rows are zero in ``traits`` and in the deviations; see the module
    docstring for the summation order.
    """
    n = n_present[:, None]
    mean = traits.sum(axis=1) / n
    dev = traits - mean[:, None, :]
    dev[~present] = 0.0
    return np.concatenate([mean, np.sqrt(np.square(dev).sum(axis=1) / n + STD_EPS)], axis=1), dev


@dataclass
class BatchForward:
    """Cached intermediates of a packed batch's forward pass, for the losses and backprop."""

    activations: list[np.ndarray]  # packed encoder input (N, F) ... frame embeddings (N, D1)
    packing: Packing               # utterance bounds, context indices and rows of the encoder pass
    segments: np.ndarray           # (N,) u * I + phone of every frame
    counts: np.ndarray             # (B, I) frames per (utterance, phone)
    traits: np.ndarray             # (B, I, D1)
    present: np.ndarray            # (B, I)
    n_present: np.ndarray          # (B,) present traits per utterance
    deviations: np.ndarray         # (B, I, D1) present traits minus their mean; backward reuses
    stats: np.ndarray              # (B, 2*D1) pooled mean, then std, of the present traits
    embeddings: np.ndarray         # (B, D2)


def forward_batch(
    features: np.ndarray,
    phones: np.ndarray,
    lengths,
    utterance_ids: list[str],
    encoder_params: EncoderParams,
    projection: ProjectionParams,
    n_phones: int,
    workspace: Workspace,
) -> BatchForward:
    """Full path features -> frames -> traits -> stats -> embedding.

    ``features`` (N x F) and ``phones`` (N,) hold the frames of the
    utterances named by ``utterance_ids`` back to back, ``lengths`` frames
    each. Everything runs once over the whole batch. An utterance with no
    present trait raises EmptyUtteranceError naming the first such
    utterance in packing order.

    The encoder's arrays and the pooling's bins go into ``workspace``, so
    the result's ``activations`` and ``packing`` are valid until the next
    pass through it; the other fields are fresh arrays, and
    ``trait_layer_backward`` overwrites ``deviations``.
    """
    activations, packing = encode_layers(encoder_params, features, lengths, workspace)
    if phones.max() >= n_phones:
        raise ConfigurationError(
            f"alignment phone index {int(phones.max())} >= inventory size {n_phones}"
        )
    lengths = np.asarray(lengths)
    segments = np.repeat(np.arange(lengths.shape[0]) * n_phones, lengths) + phones
    counts = np.bincount(segments, minlength=lengths.shape[0] * n_phones).reshape(-1, n_phones)
    traits, present = extract_traits(activations[-1], segments, counts, workspace)
    if traits.shape[2] != projection.trait_dim:
        raise DimensionError(
            f"trait dim {traits.shape[2]} does not match projection trait dim {projection.trait_dim}"
        )
    n_present = present.sum(axis=1)
    empty = np.flatnonzero(n_present == 0)
    if empty.size:
        raise EmptyUtteranceError(
            f"utterance {utterance_ids[empty[0]]!r} has no present phonetic traits")
    stats, deviations = _batch_statistics(traits, present, n_present)
    return BatchForward(
        activations=activations,
        packing=packing,
        segments=segments,
        counts=counts,
        traits=traits,
        present=present,
        n_present=n_present,
        deviations=deviations,
        stats=stats,
        embeddings=(projection.weight @ stats[:, :, None])[:, :, 0] + projection.bias,
    )


def trait_layer_backward(
    cache: BatchForward,
    projection: ProjectionParams,
    d_embeddings: np.ndarray,
    d_traits: np.ndarray,
    workspace: Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backprop from the embeddings and the traits to frames.

    Args:
        cache: forward intermediates from ``forward_batch``. Its
            ``deviations`` become the trait gradient in place.
        d_embeddings: loss gradient w.r.t. every utterance's embedding, (B, D2).
        d_traits: loss gradient w.r.t. the B x I x D1 traits, from the
            losses that act on traits directly. Rows of absent phones are
            ignored; their traits are constant zero.
        workspace: where the N x D1 frame gradient goes (role ``d_frames``).

    Returns:
        (d_proj_weight, d_proj_bias, d_frame_embeddings). The projection
        gradients are the sums, in batch order, of every utterance's own.
    """
    d_emb = np.asarray(d_embeddings, dtype=np.float64)
    if d_emb.shape != cache.embeddings.shape:
        raise DimensionError(f"d_embeddings shape {d_emb.shape}, want {cache.embeddings.shape}")
    extra = np.asarray(d_traits, dtype=np.float64)
    if extra.shape != cache.deviations.shape:
        raise DimensionError(f"d_traits shape {extra.shape}, want {cache.deviations.shape}")
    # At D2 >= 2, bit-identical to a loop over the utterances: the stacked
    # products make the same per-utterance gemv and outer products, and both
    # sums add the utterances in batch order. At D2 = 1 NumPy sums the bias
    # gradient's B values pairwise instead.
    d_proj_w = (d_emb[:, :, None] * cache.stats[:, None, :]).sum(axis=0)
    d_proj_b = d_emb.sum(axis=0)
    d_stats = (projection.weight.T @ d_emb[:, :, None])[:, :, 0]
    d1 = cache.traits.shape[2]
    d_mean, d_std = d_stats[:, None, :d1], d_stats[:, None, d1:]
    n = cache.n_present[:, None, None]
    # d var / d row = 2 (row - mean) / N; the mean's dependence on each row
    # cancels inside the variance, so no extra cross term appears.
    d_var = d_std / (2.0 * cache.stats[:, None, d1:])
    # d_mean / n + d_var * 2 (row - mean) / n, in that order, in place in the
    # deviations, as ``encode_backward`` overwrites its upstream gradient.
    d_trait_full = cache.deviations
    d_trait_full *= d_var * 2.0
    d_trait_full /= n
    d_trait_full += d_mean / n
    d_trait_full += extra
    d_trait_full[~cache.present] = 0.0

    # Each frame contributed 1/count to its phone's mean; a phone no frame
    # reads is divided by 1 instead of 0.
    d_trait_full /= np.maximum(cache.counts, 1)[:, :, None]
    rows = d_trait_full.reshape(-1, d_trait_full.shape[2])
    # Every segment id is a row of ``rows``; see ``encode_layers`` on "clip".
    d_frames = np.take(rows, cache.segments, axis=0, mode="clip",
                       out=workspace.take("d_frames", (cache.segments.shape[0], rows.shape[1])))
    return d_proj_w, d_proj_b, d_frames
