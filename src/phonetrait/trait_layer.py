"""Phonetic trait layer: per-phone pooling, trait filtering, utterance pooling.

Sits between the frame encoder and the utterance embedding. For each phone in
the inventory the trait is the mean of the frame embeddings aligned to that
phone; phones with no frames get an all-zero row and are flagged absent. The
present rows then go through statistics pooling (mean and standard deviation
over traits) and a linear projection to the final speaker embedding.

A phone whose frames average to the exact zero vector is indistinguishable
from an absent phone on purpose: presence is defined by the trait value
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PhoneAlignment
from .errors import ConfigurationError, DimensionError, EmptyUtteranceError

# Inside the sqrt of the pooled standard deviation; keeps the gradient finite
# when every present trait is identical (e.g. a single present phone).
STD_EPS = 1e-9


@dataclass
class PhoneticTraitSet:
    """I x D1 trait matrix plus the per-phone presence mask for one utterance."""

    utterance_id: str
    traits: np.ndarray   # (I, D1)
    present: np.ndarray  # (I,) bool

    def __post_init__(self):
        self.traits = np.asarray(self.traits, dtype=np.float64)
        self.present = np.asarray(self.present, dtype=bool)
        if self.traits.ndim != 2:
            raise DimensionError(f"traits must be 2-d, got shape {self.traits.shape}")
        if self.present.shape != (self.traits.shape[0],):
            raise DimensionError(
                f"present mask shape {self.present.shape} does not match {self.traits.shape[0]} traits"
            )

    @property
    def n_phones(self) -> int:
        return self.traits.shape[0]

    def validate_mask(self) -> None:
        """Check present[i] <=> traits[i] is not the zero vector."""
        nonzero = np.any(self.traits != 0.0, axis=1)
        bad = np.nonzero(nonzero != self.present)[0]
        if bad.size:
            i = int(bad[0])
            raise ConfigurationError(
                f"trait set of {self.utterance_id!r}: phone {i} is "
                f"{'nonzero but marked absent' if nonzero[i] else 'zero but marked present'}"
            )


def extract_traits(
    frame_embeddings: np.ndarray,
    alignment: PhoneAlignment,
    n_phones: int,
    utterance_id: str | None = None,
) -> PhoneticTraitSet:
    """Average frame embeddings per phone into an I x D1 trait matrix.

    Every frame of a phone counts equally, so a phone aligned to several
    segments pools all their frames together, weighted by duration.
    """
    emb = np.asarray(frame_embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise DimensionError(f"frame embeddings must be T x D1, got shape {emb.shape}")
    if emb.shape[0] != alignment.n_frames:
        raise DimensionError(
            f"{alignment.n_frames} aligned frames but {emb.shape[0]} embedding rows"
        )
    phones = alignment.frame_phones()
    if phones.max() >= n_phones:
        raise ConfigurationError(
            f"alignment phone index {int(phones.max())} >= inventory size {n_phones}"
        )
    sums = np.zeros((n_phones, emb.shape[1]))
    np.add.at(sums, phones, emb)
    counts = np.bincount(phones, minlength=n_phones)
    traits = np.zeros_like(sums)
    seen = counts > 0
    traits[seen] = sums[seen] / counts[seen, None]
    # A phone can be present only if some value survives the mean; an exact
    # zero mean collapses onto the absent convention.
    present = seen & np.any(traits != 0.0, axis=1)
    traits[~present] = 0.0
    return PhoneticTraitSet(
        utterance_id=utterance_id if utterance_id is not None else alignment.utterance_id,
        traits=traits,
        present=present,
    )


def filter_traits(trait_set: PhoneticTraitSet) -> tuple[np.ndarray, np.ndarray]:
    """Drop absent rows. Returns (N x D1 matrix, kept phone indices ascending)."""
    kept = np.nonzero(trait_set.present)[0]
    if kept.size == 0:
        raise EmptyUtteranceError(
            f"utterance {trait_set.utterance_id!r} has no present phonetic traits"
        )
    return trait_set.traits[kept], kept


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


def pool_statistics(filtered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (eps-stabilised population) std over the N filtered traits."""
    filtered = np.asarray(filtered, dtype=np.float64)
    if filtered.ndim != 2 or filtered.shape[0] < 1:
        raise DimensionError(f"filtered traits must be N x D1 with N >= 1, got {filtered.shape}")
    mean = filtered.mean(axis=0)
    var = np.mean((filtered - mean) ** 2, axis=0)
    return mean, np.sqrt(var + STD_EPS)


@dataclass
class UtteranceForward:
    """Cached intermediates of one utterance's forward pass, for backprop."""

    utterance_id: str
    features: np.ndarray        # (T, F)
    frame_embeddings: np.ndarray  # (T, D1)
    phone_of_frame: np.ndarray  # (T,)
    counts: np.ndarray          # (I,) frames per phone
    trait_set: PhoneticTraitSet
    kept: np.ndarray            # (N,) phone indices
    filtered: np.ndarray        # (N, D1)
    mean: np.ndarray            # (D1,)
    std: np.ndarray             # (D1,)
    stats: np.ndarray           # (2*D1,)
    embedding: np.ndarray       # (D2,)


def forward_utterance(
    features: np.ndarray,
    alignment: PhoneAlignment,
    encoder_params,
    projection: ProjectionParams,
    n_phones: int,
) -> UtteranceForward:
    """Full path features -> frames -> traits -> filtered -> stats -> embedding."""
    from .encoder import encode_frames

    frames = encode_frames(encoder_params, features)
    trait_set = extract_traits(frames, alignment, n_phones)
    filtered, kept = filter_traits(trait_set)
    mean, std = pool_statistics(filtered)
    if mean.shape[0] != projection.trait_dim:
        raise DimensionError(
            f"trait dim {mean.shape[0]} does not match projection trait dim {projection.trait_dim}"
        )
    stats = np.concatenate([mean, std])
    embedding = projection.weight @ stats + projection.bias
    phones = alignment.frame_phones()
    return UtteranceForward(
        utterance_id=trait_set.utterance_id,
        features=np.asarray(features, dtype=np.float64),
        frame_embeddings=frames,
        phone_of_frame=phones,
        counts=np.bincount(phones, minlength=n_phones),
        trait_set=trait_set,
        kept=kept,
        filtered=filtered,
        mean=mean,
        std=std,
        stats=stats,
        embedding=embedding,
    )


def trait_layer_backward(
    cache: UtteranceForward,
    projection: ProjectionParams,
    d_embedding: np.ndarray,
    d_traits: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backprop from the embedding (and optionally the trait matrix) to frames.

    Args:
        cache: forward intermediates from ``forward_utterance``.
        d_embedding: loss gradient w.r.t. the utterance embedding, shape (D2,).
        d_traits: optional loss gradient w.r.t. the full I x D1 trait matrix
            (e.g. from losses that act on traits directly). Rows of absent
            phones are ignored; their traits are constant zero.

    Returns:
        (d_proj_weight, d_proj_bias, d_frame_embeddings).
    """
    d_emb = np.asarray(d_embedding, dtype=np.float64)
    if d_emb.shape != cache.embedding.shape:
        raise DimensionError(f"d_embedding shape {d_emb.shape}, want {cache.embedding.shape}")
    d_proj_w = np.outer(d_emb, cache.stats)
    d_proj_b = d_emb.copy()

    d_stats = projection.weight.T @ d_emb
    d1 = cache.mean.shape[0]
    d_mean = d_stats[:d1]
    d_std = d_stats[d1:]
    n = cache.filtered.shape[0]
    # d var / d row = 2 (row - mean) / N; the mean's dependence on each row
    # cancels inside the variance, so no extra cross term appears.
    d_var = d_std / (2.0 * cache.std)
    d_filtered = d_mean / n + d_var * 2.0 * (cache.filtered - cache.mean) / n

    d_trait_full = np.zeros_like(cache.trait_set.traits)
    d_trait_full[cache.kept] = d_filtered
    if d_traits is not None:
        extra = np.asarray(d_traits, dtype=np.float64)
        if extra.shape != d_trait_full.shape:
            raise DimensionError(f"d_traits shape {extra.shape}, want {d_trait_full.shape}")
        d_trait_full[cache.kept] += extra[cache.kept]

    # Each frame contributed 1/count to its phone's mean.
    phones = cache.phone_of_frame
    d_frames = d_trait_full[phones] / cache.counts[phones, None]
    return d_proj_w, d_proj_b, d_frames
