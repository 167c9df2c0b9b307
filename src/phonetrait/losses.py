"""Training losses: trait verification, trait centering, margin classification.

All three act on a pair batch of K speakers, each contributing one enrollment
and one test utterance. Gradients are derived by hand and returned alongside
the loss values so the whole model can be trained without autodiff; every
formula here is certified against central finite differences in the tests.

Conventions shared by the trait losses: each term function takes one side's
(K, I, D1) arrays with one row per inventory phone, and a loss term is
dropped (not zero-divided) when its averaging set is empty. ``total_loss``
reads a pair batch's ``BatchForward``, its 2K utterances stacked enrollments
first, then tests; it hands each term the side it needs and returns the
gradients stacked in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BatchError, ConfigurationError, DimensionError, NumericGuardError
from .trait_layer import BatchForward
from .workspace import Workspace

# Norms below this are treated as degenerate rather than normalised.
_NORM_FLOOR = 1e-12

# Most float64 elements in one block of ``trait_verification_loss``'s
# difference tensor (256 KB): at I=40 and D1=16 a block holds 5 enrollment
# speakers at K=10, one at K=64. In training the block shares a workspace
# buffer with the encoder's N x D1 context gradient, which a desk step's ~2.1k
# frames make 269 KB, so at the desk shape the block adds no memory.
_DIFF_BLOCK_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class LossWeights:
    """Weights of the verification (matched/unmatched) and center terms."""

    alpha: float = 0.0007
    beta: float = 0.00001
    gamma: float = 0.0001

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class AamConfig:
    """Additive angular margin softmax settings."""

    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.margin < np.pi / 2:
            raise ConfigurationError("margin must be in [0, pi/2)")
        if not 0.0 < self.scale < np.inf:
            raise ConfigurationError("scale must be finite and > 0")


def trait_verification_loss(
    enroll_traits: np.ndarray,
    enroll_present: np.ndarray,
    test_traits: np.ndarray,
    test_present: np.ndarray,
    alpha: float,
    beta: float,
    workspace: Workspace,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Pull same-speaker traits together, push nearest other-speaker traits apart.

    The attractive term averages squared distances over all (speaker, phone)
    pairs where the phone is present on both sides of that speaker's pair. The
    repulsive term, for each present enrollment trait, finds the closest test
    trait of the same phone from any *other* speaker that has it, and averages
    those minima; each term's average ignores entries with an empty candidate
    set.

    Returns (loss, d_enroll_traits, d_test_traits). The distance table and
    the difference block go to the ``workspace`` roles ``distances`` and
    ``differences``.
    """
    enroll = np.asarray(enroll_traits, dtype=np.float64)
    test = np.asarray(test_traits, dtype=np.float64)
    pe = np.asarray(enroll_present, dtype=bool)
    pt = np.asarray(test_present, dtype=bool)
    if enroll.shape != test.shape or enroll.ndim != 3:
        raise DimensionError("trait tensors must both be (K, I, D1)")
    n_speakers, n_phones, width = enroll.shape
    if n_speakers < 2:
        raise BatchError("trait verification needs >= 2 speakers in the batch")

    # (K, I, K) squared distances (enrollment speaker, phone, test speaker),
    # a block of enrollment speakers at a time: a whole (K, K, I, D1)
    # difference tensor would grow with K^2 * I * D1. Each enrollment's
    # (K, I, D1) differences are one contiguous sweep, and each distance sums
    # its own D1 products, whatever the block's size.
    sq = workspace.take("distances", (n_speakers, n_phones, n_speakers))
    block = max(1, _DIFF_BLOCK_ELEMENTS // max(1, n_speakers * n_phones * width))
    buffer = workspace.take("differences", (min(block, n_speakers),) + test.shape)
    for k in range(0, n_speakers, block):
        diff = buffer[:n_speakers - k]
        np.subtract(enroll[k:k + block, None], test[None], out=diff)
        np.einsum("khid,khid->khi", diff, diff, out=sq[k:k + block].transpose(0, 2, 1))
    valid = pe[:, :, None] & pt.T

    loss = 0.0
    d_enroll = np.zeros_like(enroll)
    d_test = np.zeros_like(test)
    diag = np.arange(n_speakers)

    matched_mask = valid[diag, :, diag]                      # (K, I)
    n_matched = int(matched_mask.sum())
    if n_matched:
        loss += alpha * float(sq[diag, :, diag][matched_mask].sum()) / n_matched
        # (enroll - test) * mask * coef, each product in place.
        matched_diff = np.subtract(enroll, test)
        matched_diff *= matched_mask[:, :, None]
        matched_diff *= 2.0 * alpha / n_matched
        d_enroll += matched_diff
        d_test -= matched_diff
        del matched_diff  # before the nearest-neighbour term's temporaries

    # The distances become the candidates in place, once the matched term
    # has read the diagonal.
    np.copyto(sq, np.inf, where=np.logical_not(valid, out=valid))
    sq[diag, :, diag] = np.inf
    nearest = np.argmin(sq, axis=2)                          # (K, I)
    nearest_sq = np.take_along_axis(sq, nearest[:, :, None], axis=2)[:, :, 0]
    retained = np.isfinite(nearest_sq)
    n_retained = int(retained.sum())
    if n_retained:
        loss -= beta * float(nearest_sq[retained].sum()) / n_retained
        coef = 2.0 * beta / n_retained
        ks, phones = np.nonzero(retained)
        hs = nearest[ks, phones]
        pulled = enroll[ks, phones]
        pulled -= test[hs, phones]
        pulled *= coef
        # Each (k, phone) is retained once, but a test trait can be the
        # nearest neighbour of several enrollments.
        d_enroll[ks, phones] -= pulled
        np.add.at(d_test, (hs, phones), pulled)
    return loss, d_enroll, d_test


def trait_center_loss(
    deviations: np.ndarray,
    n_present: np.ndarray,
    gamma: float,
) -> tuple[float, np.ndarray]:
    """Compactness of each utterance's present traits around their own mean.

    Loss is gamma times the sum of one side's squared ``deviations`` from its
    utterances' means, as pooling kept them (``BatchForward``), over the
    side's total present count. Each center's dependence on the traits
    cancels in the gradient, so d/dx is simply 2*gamma*(x - center)/total.
    Returns (loss, d_traits).
    """
    total = int(n_present.sum())
    loss = gamma * float(np.square(deviations).sum()) / total
    return loss, deviations * (2.0 * gamma / total)


def aam_softmax_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray,
    config: AamConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Additive angular margin softmax over speaker classes.

    Rows of ``embeddings`` and ``class_weights`` are length-normalised, the
    true-class cosine gets the angular margin, everything is scaled and fed to
    cross entropy, averaged over the batch.

    Returns (loss, d_embeddings, d_class_weights).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    w = np.asarray(class_weights, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError("embeddings and class weights must be 2-d with equal width")
    batch = x.shape[0]
    if y.shape != (batch,):
        raise DimensionError(f"labels shape {y.shape}, want {(batch,)}")
    if batch < 1:
        raise BatchError("classification loss needs a non-empty batch")
    if y.min() < 0 or y.max() >= w.shape[0]:
        raise ConfigurationError("label outside the class range")
    x_norm = np.linalg.norm(x, axis=1)
    w_norm = np.linalg.norm(w, axis=1)
    if (x_norm < _NORM_FLOOR).any():
        raise NumericGuardError("embedding with near-zero norm cannot be normalised")
    if (w_norm < _NORM_FLOOR).any():
        raise NumericGuardError("class weight with near-zero norm cannot be normalised")
    x_hat = x / x_norm[:, None]
    w_hat = w / w_norm[:, None]
    cos = x_hat @ w_hat.T                                    # (B, C)
    rows = np.arange(batch)
    logits = config.scale * cos
    if config.margin == 0.0:
        margin_factor = np.ones(batch)
    else:
        cos_m, sin_m = np.cos(config.margin), np.sin(config.margin)
        # Clipped only in the forward-consistent sense: the margined value and
        # its derivative both come from the clipped cosine, so finite
        # differences agree away from |cos| = 1.
        cy = np.clip(cos[rows, y], -1.0 + 1e-9, 1.0 - 1e-9)
        sin_y = np.sqrt(1.0 - cy * cy)
        logits[rows, y] = config.scale * (cy * cos_m - sin_y * sin_m)
        margin_factor = cos_m + sin_m * cy / sin_y

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1)
    loss = float(np.mean(np.log(z) - shifted[rows, y]))

    d_logits = exp / z[:, None]
    d_logits[rows, y] -= 1.0
    d_logits /= batch
    d_cos = config.scale * d_logits
    d_cos[rows, y] *= margin_factor
    d_x_hat = d_cos @ w_hat
    d_w_hat = d_cos.T @ x_hat
    d_x = (d_x_hat - x_hat * np.sum(d_x_hat * x_hat, axis=1, keepdims=True)) / x_norm[:, None]
    d_w = (d_w_hat - w_hat * np.sum(d_w_hat * w_hat, axis=1, keepdims=True)) / w_norm[:, None]
    return loss, d_x, d_w


@dataclass
class LossOutput:
    """Loss components and every gradient needed for one update step.

    ``d_traits`` and ``d_embeddings`` follow the batch's utterance order,
    enrollments first, then tests.
    """

    total: float
    classification: float
    verification: float
    center: float
    d_traits: np.ndarray      # (2K, I, D1)
    d_embeddings: np.ndarray  # (2K, D2)
    d_class_weights: np.ndarray


def total_loss(
    forward: BatchForward,
    class_labels: np.ndarray,
    weights: LossWeights,
    aam_config: AamConfig,
    class_weights: np.ndarray,
    with_classification: bool = True,
    *,
    workspace: Workspace,
) -> LossOutput:
    """Sum of the classification, verification and center losses on one pair batch.

    ``forward`` holds K speakers' 2K utterances, enrollments first, then
    tests, each side in the order of the K distinct ``class_labels``. The
    classification term runs over all 2K embeddings with each speaker's
    label repeated. The verification term pairs the enrollment side with the
    test side, and the center term averages over each side on its own.
    ``workspace`` holds the verification term's scratch arrays; every
    returned array is fresh.
    """
    labels = np.asarray(class_labels, dtype=np.int64)
    k = labels.shape[0]
    if np.unique(labels).size != k:
        raise BatchError("batch speakers must be distinct")
    traits, present = forward.traits, forward.present
    dev, n = forward.deviations, forward.n_present
    if with_classification:
        l_aam, d_embeddings, d_class_weights = aam_softmax_loss(
            forward.embeddings, np.tile(labels, 2), class_weights, aam_config
        )
    else:
        l_aam = 0.0
        d_embeddings = np.zeros_like(forward.embeddings)
        d_class_weights = np.zeros_like(np.asarray(class_weights, dtype=np.float64))

    l_veri, d_veri_e, d_veri_t = trait_verification_loss(
        traits[:k], present[:k], traits[k:], present[k:], weights.alpha, weights.beta, workspace,
    )
    # Each side's center gradient is added to its verification gradient in
    # place as soon as it exists, then the two sides are stacked.
    l_center_e, d_center = trait_center_loss(dev[:k], n[:k], weights.gamma)
    np.add(d_veri_e, d_center, out=d_veri_e)
    l_center_t, d_center = trait_center_loss(dev[k:], n[k:], weights.gamma)
    np.add(d_veri_t, d_center, out=d_veri_t)
    del d_center
    l_center = l_center_e + l_center_t
    d_traits = np.concatenate([d_veri_e, d_veri_t])

    return LossOutput(
        total=l_aam + l_veri + l_center,
        classification=l_aam,
        verification=l_veri,
        center=l_center,
        d_traits=d_traits,
        d_embeddings=d_embeddings,
        d_class_weights=d_class_weights,
    )


LOSS_LOG_HEADER = "step,L_all,L_AAM,L_veri,L_center"


def format_loss_log_line(step: int, total: float, classification: float,
                         verification: float, center: float) -> str:
    return f"{step},{repr(float(total))},{repr(float(classification))}," \
           f"{repr(float(verification))},{repr(float(center))}"
