"""Evaluation and explanation analysis over scored trials.

Covers the detection metrics (equal error rate, minimum normalised detection
cost), the agreement between decision scores and their per-phone evidence,
and a per-phone discriminability ratio computed by resampling trial evidence.

Detection metrics follow the accept-if-score-at-least-threshold convention
and consider every observed score as a candidate threshold plus one virtual
reject-all point, so ties are handled exactly rather than by sorting tricks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PhoneInventory, check_seed
from .errors import ConfigurationError, NumericGuardError
from .scoring import ScoreTable
from .textio import NA, LineReader, atomic_write, cell, check_ids


def _split_by_label(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigurationError("scores and labels must be matching 1-d arrays")
    if not np.isfinite(scores).all():
        raise ConfigurationError("scores must be finite")
    target = np.sort(scores[labels == 1])
    nontarget = np.sort(scores[labels == 0])
    if target.size == 0 or nontarget.size == 0:
        raise ConfigurationError(
            "metrics need at least one target and one non-target trial"
        )
    return target, nontarget


def _operating_points(
    target: np.ndarray, nontarget: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, far, frr) at every distinct score plus a reject-all point."""
    thresholds = np.unique(np.concatenate([target, nontarget]))
    # The next float above the maximum rejects everything, at any magnitude:
    # ``max + 1.0`` rounds back to the maximum once scores reach 2**53.
    thresholds = np.append(thresholds, np.nextafter(thresholds[-1], np.inf))
    far = (nontarget.size - np.searchsorted(nontarget, thresholds, side="left")) / nontarget.size
    frr = np.searchsorted(target, thresholds, side="left") / target.size
    return thresholds, far, frr


def compute_eer(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Equal error rate and the threshold where it occurs.

    Walks the operating points in threshold order and linearly interpolates
    between the last point with FRR < FAR and the first with FRR >= FAR; an
    exact tie needs no interpolation.

    Returns (eer, threshold).
    """
    target, nontarget = _split_by_label(scores, labels)
    thresholds, far, frr = _operating_points(target, nontarget)
    gap = frr - far
    k = int(np.argmax(gap >= 0.0))
    if gap[k] == 0.0:
        return float(far[k]), float(thresholds[k])
    # gap is -1 at the lowest threshold, which accepts every trial, and +1 at
    # the reject-all point, which lies above every score; so a sign change
    # always exists and k >= 1 here.
    lam = -gap[k - 1] / (gap[k] - gap[k - 1])
    eer = far[k - 1] + lam * (far[k] - far[k - 1])
    threshold = thresholds[k - 1] + lam * (thresholds[k] - thresholds[k - 1])
    return float(eer), float(threshold)


def compute_min_dcf(
    scores: np.ndarray,
    labels: np.ndarray,
    p_target: float,
    c_miss: float,
    c_fa: float,
) -> tuple[float, float]:
    """Minimum normalised detection cost over all candidate thresholds.

    Cost at a threshold is c_miss*p_target*FRR + c_fa*(1-p_target)*FAR,
    normalised by the better of the two trivial systems (accept all or
    reject all).

    Returns (min_dcf, threshold).
    """
    if not 0.0 < p_target < 1.0:
        raise ConfigurationError("p_target must be in (0, 1)")
    if not (0.0 < c_miss < np.inf and 0.0 < c_fa < np.inf):
        raise ConfigurationError("c_miss and c_fa must be finite and > 0")
    target, nontarget = _split_by_label(scores, labels)
    thresholds, far, frr = _operating_points(target, nontarget)
    cost = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
    cost /= min(c_miss * p_target, c_fa * (1.0 - p_target))
    k = int(np.argmin(cost))
    return float(cost[k]), float(thresholds[k])


@dataclass
class MetricReport:
    eer: float
    min_dcf: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int


def compute_metrics(
    scores: np.ndarray,
    labels: np.ndarray,
    p_target: float,
    c_miss: float,
    c_fa: float,
) -> MetricReport:
    labels = np.asarray(labels)
    eer, threshold = compute_eer(scores, labels)
    min_dcf, _ = compute_min_dcf(scores, labels, p_target, c_miss, c_fa)
    return MetricReport(
        eer=eer,
        min_dcf=min_dcf,
        threshold_at_eer=threshold,
        n_target=int((labels == 1).sum()),
        n_nontarget=int((labels == 0).sum()),
    )


def labelled_scores(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scores, labels) of the labelled trials (label >= 0) whose score is
    defined (not NaN), in trial order."""
    keep = (labels >= 0) & ~np.isnan(scores)
    return scores[keep], labels[keep]


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that puts its largest magnitude in [0.5, 1)."""
    return np.ldexp(v, -np.frexp(np.abs(v).max())[1])


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation, refused for a set whose values are all equal. Each
    set, then its deviations from their mean, is scaled exactly to magnitudes
    near 1, so no sum overflows or underflows and a power-of-two scale of
    either set gives the same bits."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigurationError("correlation needs matching 1-d arrays")
    if x.size < 2:
        raise NumericGuardError("correlation needs at least 2 points")
    if x.min() == x.max() or y.min() == y.max():
        raise NumericGuardError("correlation undefined for a constant score set")
    xc, yc = (_unit_scaled(v - v.mean()) for v in map(_unit_scaled, (x, y)))
    return float((xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum()))


def explainability_correlation(table: ScoreTable) -> float:
    """Pearson correlation between final scores and their defined evidence scores."""
    defined = ~np.isnan(table.evidence)
    if np.count_nonzero(defined) < 2:
        raise NumericGuardError("need >= 2 trials with defined evidence")
    return pearson_correlation(table.final[defined], table.evidence[defined])


# ---------------------------------------------------------------------------
# per-phone discriminability
# ---------------------------------------------------------------------------

@dataclass
class FRatioRow:
    """Resampled same/different-speaker evidence summary for one phone."""

    phone: str
    within_mean: float   # NaN when excluded
    between_mean: float  # NaN when excluded
    ratio: float         # NaN when excluded
    n_available: int
    included: bool


def f_ratio(
    table: ScoreTable,
    inventory: PhoneInventory,
    n_samples: int,
    seed: int,
) -> list[FRatioRow]:
    """Per-phone ratio of resampled same-speaker to different-speaker evidence.

    For each phone, the within pool holds its defined per-phone cosines from
    target trials and the between pool those from non-target trials. Each pool
    is summarised by the mean of ``n_samples`` draws with replacement; the row
    is excluded (flagged, statistics NaN) when either pool has fewer than
    ``n_samples`` values. Each phone consumes its own spawned random stream,
    so excluding one phone never changes another phone's draws.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    check_seed(seed)
    _check_width(table, inventory)
    streams = np.random.SeedSequence(seed).spawn(inventory.size)
    labelled = table.labels >= 0
    values = table.similarity[labelled]
    target = table.labels[labelled] == 1
    defined = ~np.isnan(values)
    if not defined.any():
        raise ConfigurationError("no phone has any labelled similarity value to sample from")
    rows = []
    for i, phone in enumerate(inventory.labels):
        # A boolean mask keeps trial order, on which the seeded draws depend.
        within = values[defined[:, i] & target, i]
        between = values[defined[:, i] & ~target, i]
        n_available = min(within.size, between.size)
        if n_available < n_samples:
            rows.append(FRatioRow(phone, np.nan, np.nan, np.nan, n_available, False))
            continue
        rng = np.random.default_rng(streams[i])
        within_mean = float(rng.choice(within, size=n_samples, replace=True).mean())
        between_mean = float(rng.choice(between, size=n_samples, replace=True).mean())
        if between_mean == 0.0:
            ratio = np.inf if within_mean > 0.0 else np.nan
        else:
            ratio = within_mean / between_mean
        rows.append(FRatioRow(phone, within_mean, between_mean, float(ratio), n_available, True))
    return rows


FRATIO_HEADER = "phone,within,between,ratio,included"


def save_f_ratio(rows: list[FRatioRow], path) -> None:
    with atomic_write(path) as f:
        f.write(FRATIO_HEADER + "\n")
        for row in rows:
            f.write(
                f"{row.phone},{cell(row.within_mean)},{cell(row.between_mean)},"
                f"{cell(row.ratio)},{int(row.included)}\n"
            )


# ---------------------------------------------------------------------------
# per-trial explanation files
# ---------------------------------------------------------------------------

def _check_width(table: ScoreTable, inventory: PhoneInventory) -> None:
    if table.similarity.shape[1] != inventory.size:
        raise ConfigurationError(
            f"scores have {table.similarity.shape[1]} phones, inventory has {inventory.size}"
        )


def export_explanation(table: ScoreTable, row: int, inventory: PhoneInventory, path) -> None:
    """Write one trial's scores and per-phone evidence as a readable file.

    The table's values are valid by construction (``ScoreTable``); an id that
    holds a tab or a line break raises ConfigurationError (``check_ids``)
    before anything is written.
    """
    _check_width(table, inventory)
    check_ids((table.enroll_ids[row], table.test_ids[row]), "\t")
    label = int(table.labels[row])
    with atomic_write(path) as f:
        f.write(f"enroll {table.enroll_ids[row]}\n")
        f.write(f"test {table.test_ids[row]}\n")
        f.write(f"label {NA if label < 0 else label}\n")
        f.write(f"final {cell(table.final[row])}\n")
        f.write(f"evidence {cell(table.evidence[row])}\n")
        for phone, value in zip(inventory.labels, table.similarity[row]):
            f.write(f"trait\t{phone}\t{cell(value)}\n")


# ---------------------------------------------------------------------------
# key-value report files
# ---------------------------------------------------------------------------

def write_report(entries: list[tuple[str, object]], path) -> None:
    """Write ``key value`` lines, each value a ``textio.cell``."""
    with atomic_write(path) as f:
        for key, value in entries:
            f.write(f"{key} {cell(value)}\n")


def read_report(path) -> dict[str, str]:
    out = {}
    with LineReader(path) as lines:
        for text in lines.records():
            key, value = lines.key_value(text)
            out[lines.unique_key(out, key)] = value
    return out
