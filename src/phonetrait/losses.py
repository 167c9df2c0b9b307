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

The verification term finds each enrollment trait's nearest other-speaker
test trait with one batched GEMM and a rounding bound, not a table of every
(enrollment, test, phone) difference. The bound only lets the GEMM pick a
neighbour that the exact distances would pick, and every distance that
enters the loss or a gradient is still an exact ``einsum`` of one
difference, so the values do not depend on how BLAS sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BatchError, ConfigurationError, DimensionError, NumericGuardError
from .trait_layer import BatchForward
from .workspace import Workspace

# Norms below this are treated as degenerate rather than normalised.
NORM_FLOOR = 1e-12


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

    Every distance that enters the loss or a gradient is the ``einsum`` of
    one ``enroll - test`` difference with itself, and the nearest test
    speaker is the first one at the least such distance. A screen finds it
    without building every (enrollment, test, phone) difference:
    ||e - t||^2 = ||e||^2 - 2s with s = e.t - ||t||^2 / 2, so the nearest
    candidate has the largest s. One batched GEMM of ``[e, 1]`` by
    ``[t, -||t||^2 / 2]`` gives each phone's (K, K) scores, -inf for a
    non-candidate. The best score is taken outright when it leads the second
    by more than c u (A + M)^2 + c 2^-1074; the other rows fall back to their
    candidates' exact distances.

    Why the bound is exact. Let u = 2^-53, n = D1, gamma_m = m u / (1 - m u)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 3.1),
    A = ||e|| and M the largest ||t|| of the phone's present test traits. A
    length-m inner product summed in any order, with or without FMA, errs by
    at most gamma_m times its sum of |products|. So the computed ||t||^2
    errs by gamma_n ||t||^2, and a length-(n + 1) GEMM score by
    gamma_{n+1} (A ||t|| + (1 + gamma_n) ||t||^2 / 2): each score errs by at
    most eps_s = (gamma_{n+1} (1 + gamma_n) + gamma_n) (A + M)^2 / 2. An
    exact distance rounds a difference, its square and n - 1 sums of
    non-negative terms, so it errs by at most gamma_{n+2} (A + M)^2. When
    the computed scores of h and h' differ by more than
    2 eps_s + gamma_{n+2} (A + M)^2, about (3n + 3) u (A + M)^2, the exact
    distance of h is strictly below that of h', whatever order BLAS and
    einsum sum in. c = 4 (n + 1) >= 3n + 4 leaves at least u (A + M)^2 for
    the second-order terms and for rounding the lead, the norms and the bound
    themselves, and the c 2^-1074 term covers products that underflow. A
    tie, an overflow or a NaN fails the test and takes the fallback.

    Returns (loss, d_enroll_traits, d_test_traits). The screen's score table
    and its two GEMM operands go to the ``workspace`` roles ``distances`` and
    ``operands``.
    """
    enroll = np.asarray(enroll_traits, dtype=np.float64)
    test = np.asarray(test_traits, dtype=np.float64)
    pe = np.asarray(enroll_present, dtype=bool)
    pt = np.asarray(test_present, dtype=bool)
    if enroll.shape != test.shape or enroll.ndim != 3:
        raise DimensionError("trait tensors must both be (K, I, D1)")
    if enroll.shape[0] < 2:
        raise BatchError("trait verification needs >= 2 speakers in the batch")

    loss = 0.0
    d_enroll = np.zeros_like(enroll)
    d_test = np.zeros_like(test)

    matched_mask = pe & pt                                   # (K, I)
    n_matched = int(matched_mask.sum())
    if n_matched:
        # (enroll - test) * mask * coef, each product in place.
        matched_diff = np.subtract(enroll, test)
        matched_sq = np.einsum("kid,kid->ki", matched_diff, matched_diff)
        loss += alpha * float(matched_sq[matched_mask].sum()) / n_matched
        matched_diff *= matched_mask[:, :, None]
        matched_diff *= 2.0 * alpha / n_matched
        d_enroll += matched_diff
        d_test -= matched_diff
        del matched_diff  # before the nearest-neighbour term's temporaries

    ks, phones, hs = _nearest_test_speakers(enroll, pe, test, pt, workspace)
    pulled = enroll[ks, phones]
    pulled -= test[hs, phones]
    nearest_sq = np.einsum("nd,nd->n", pulled, pulled)
    retained = np.isfinite(nearest_sq)
    if not retained.all():
        ks, phones, hs = ks[retained], phones[retained], hs[retained]
        pulled, nearest_sq = pulled[retained], nearest_sq[retained]
    n_retained = nearest_sq.size
    if n_retained:
        loss -= beta * float(nearest_sq.sum()) / n_retained
        pulled *= 2.0 * beta / n_retained
        # Each (k, phone) is retained once, but a test trait can be the
        # nearest neighbour of several enrollments.
        d_enroll[ks, phones] -= pulled
        np.add.at(d_test, (hs, phones), pulled)
    return loss, d_enroll, d_test


def _gram_screen(enroll, test, pt, workspace):
    """(best, decided), both (I, K): each enrollment's highest-scoring other
    test speaker for each phone, and whether its lead over the second clears
    ``trait_verification_loss``'s bound."""
    n_speakers, n_phones, width = enroll.shape
    lhs, rhs = workspace.take("operands", (2, n_phones, n_speakers, width + 1))
    np.copyto(lhs[..., :width], enroll.transpose(1, 0, 2))
    lhs[..., width] = 1.0
    np.copyto(rhs[..., :width], test.transpose(1, 0, 2))
    t_sq = np.einsum("hid,hid->ih", test, test)
    np.multiply(t_sq, -0.5, out=rhs[..., width])
    np.copyto(rhs[..., width], -np.inf, where=~pt.T)
    score = np.matmul(lhs, rhs.transpose(0, 2, 1),
                      out=workspace.take("distances", (n_phones, n_speakers, n_speakers)))
    diag = np.arange(n_speakers)
    score[:, diag, diag] = -np.inf

    rows = score.reshape(-1, n_speakers)                     # (I * K, K)
    at = np.arange(rows.shape[0])
    best = rows.argmax(axis=1)
    lead = rows[at, best]
    rows[at, best] = -np.inf
    with np.errstate(invalid="ignore"):                     # -inf - -inf: no candidate
        lead -= rows[at, rows.argmax(axis=1)]
    reach = np.sqrt(np.einsum("kid,kid->ik", enroll, enroll))     # A + M
    reach += np.sqrt(np.max(t_sq, axis=1, where=pt.T, initial=0.0))[:, None]
    c = 4.0 * (width + 1)
    bound = c * (np.finfo(np.float64).eps / 2 * np.square(reach)
                 + np.finfo(np.float64).smallest_subnormal)
    return best.reshape(bound.shape), lead.reshape(bound.shape) > bound


def _nearest_test_speakers(enroll, pe, test, pt, workspace):
    """(ks, phones, hs): each present enrollment trait (k, phone) with a
    candidate, in row-major order, and its nearest other test speaker h.

    A row the screen leaves undecided takes the first minimum of its
    candidates' exact distances, all such rows in one gather and one einsum
    of K x D1 differences each. Such a row whose least distance is not
    finite is left out, as the loss would drop it.
    """
    best, decided = _gram_screen(enroll, test, pt, workspace)
    # A row has a candidate when another test speaker has its phone.
    ks, phones = np.nonzero(pe & (pt.sum(axis=0) - pt > 0))
    hs = best[phones, ks]
    redo = np.flatnonzero(~decided[phones, ks])
    if redo.size:
        us = np.arange(redo.size)
        rk, ri = ks[redo], phones[redo]
        diff = np.take(test.transpose(1, 0, 2), ri, axis=0)  # (U, K, D1)
        np.subtract(enroll[rk, ri][:, None], diff, out=diff)
        exact = np.einsum("uhd,uhd->uh", diff, diff)
        exact[~pt[:, ri].T] = np.inf
        exact[us, rk] = np.inf
        hs[redo] = np.argmin(exact, axis=1)
        finite = np.isfinite(exact[us, hs[redo]])
        if not finite.all():
            keep = np.ones(ks.size, dtype=bool)
            keep[redo[~finite]] = False
            ks, phones, hs = ks[keep], phones[keep], hs[keep]
    return ks, phones, hs


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
    if (x_norm < NORM_FLOOR).any():
        raise NumericGuardError("embedding with near-zero norm cannot be normalised")
    if (w_norm < NORM_FLOOR).any():
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
