"""Trial scoring: overall decision score plus the per-phone evidence behind it.

A trial compares an enrollment utterance with a test utterance. The final
score is the cosine similarity of their speaker embeddings. The evidence
score averages per-phone trait cosines over the phones present in both
utterances; phones missing on either side are undefined (kept as NaN in the
similarity vector) and excluded from the average. A trial with no shared
phone has no evidence score at all.

Every cosine here comes from one kernel, ``_row_cosines``, which takes each
row pair's dot product from a stacked matmul, divides it by the product of
the two norms and refuses a norm below ``_NORM_FLOOR``. ``score_trials``
forwards each distinct utterance once, packed with others through
``forward_batch``, and caches the norms of its trait rows and of its
embedding, so a chunk of trials costs one kernel call for its per-phone
cosines and one for its final scores.

Score file format, one trial per line, tab separated::

    enroll_id  test_id  label  final  evidence  s0 .. s{I-1}

``label`` is 1/0 or NA for unlabelled trials; ``evidence`` and undefined
per-phone entries are NA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import _NA, CorpusIndex, TrialList, _LineReader, atomic_write
from .errors import (
    DimensionError,
    NumericGuardError,
    UndefinedEvidenceError,
)
from .losses import _NORM_FLOOR
from .trait_layer import forward_batch
from .training import ModelState


# Trials scored per kernel call in ``score_trials``; bounds its temporaries.
_TRIAL_CHUNK = 128
# Utterances per ``forward_batch`` call in ``score_trials``. A packed forward
# holds every layer's activations for all of its frames at once. On the desk
# corpus (200 utterances, 4000 trials, one BLAS thread) the peak RSS of
# ``score`` was 44.9 MB one utterance at a time, 45.0 MB at 32, 48.9 MB at 64
# and 52.4 MB with all 200 in one pack. The scores are the same bits at any
# chunk size.
_UTTERANCE_CHUNK = 32


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two n x D stacks.

    NumPy hands each 1 x D by D x 1 product of the stacked matmul to the same
    BLAS ddot that ``a[k] @ b[k]`` uses, so every value is bit-identical to
    the 1-d product.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dots(x, x))


def _row_cosines(
    a: np.ndarray, b: np.ndarray, norm_a: np.ndarray, norm_b: np.ndarray
) -> np.ndarray:
    """The cosine kernel: ``dot / (norm_a * norm_b)`` for each row pair.

    Every row it is given must have a norm of at least ``_NORM_FLOOR``.
    """
    if (norm_a < _NORM_FLOOR).any() or (norm_b < _NORM_FLOOR).any():
        raise NumericGuardError("cosine similarity of a near-zero vector is undefined")
    return _row_dots(a, b) / (norm_a * norm_b)


@dataclass
class TraitSimilarityVector:
    """Per-phone trait cosines for one trial; NaN where either side is absent."""

    values: np.ndarray   # (I,)
    defined: np.ndarray  # (I,) bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.defined = np.asarray(self.defined, dtype=bool)
        if self.values.shape != self.defined.shape or self.values.ndim != 1:
            raise DimensionError("values and defined must be matching 1-d arrays")

    @property
    def n_defined(self) -> int:
        return int(self.defined.sum())


def evidence_score(similarity: TraitSimilarityVector) -> float:
    """Mean of the defined per-phone cosines; the trial's explanation summary."""
    if similarity.n_defined == 0:
        raise UndefinedEvidenceError("no phone is present in both utterances")
    return float(similarity.values[similarity.defined].mean())


@dataclass
class ScoreRecord:
    """One scored trial; ``evidence`` is None when no phone is shared."""

    enroll_id: str
    test_id: str
    label: int | None
    final: float
    evidence: float | None
    similarity: TraitSimilarityVector


def score_trials(
    state: ModelState,
    index: CorpusIndex,
    trials: TrialList,
    n_phones: int,
) -> list[ScoreRecord]:
    """Score every trial, encoding each utterance only once.

    The distinct utterances are packed ``_UTTERANCE_CHUNK`` at a time through
    ``forward_batch``; their traits, presence masks and embeddings are
    stacked, and their row norms computed once. Trials are then scored
    ``_TRIAL_CHUNK`` at a time: one kernel call over the chunk's defined
    (trial, phone) trait rows and one over its embedding pairs.
    """
    trials.validate_against(index.features)
    place: dict[str, int] = {}
    for trial in trials:
        place.setdefault(trial.enroll_id, len(place))
        place.setdefault(trial.test_id, len(place))
    utterances = list(place)
    traits = np.empty((len(place), n_phones, state.encoder.config.output_dim))
    present = np.empty((len(place), n_phones), dtype=bool)
    embeddings = np.empty((len(place), state.projection.embedding_dim))
    for start in range(0, len(utterances), _UTTERANCE_CHUNK):
        chunk = utterances[start:start + _UTTERANCE_CHUNK]
        fwd = forward_batch(*index.pack(chunk), chunk, state.encoder, state.projection, n_phones)
        rows = slice(start, start + len(chunk))
        traits[rows], present[rows], embeddings[rows] = fwd.traits, fwd.present, fwd.embeddings
    trait_norms = _row_norms(traits.reshape(-1, traits.shape[2])).reshape(present.shape)
    embedding_norms = _row_norms(embeddings)

    records = []
    for start in range(0, len(trials), _TRIAL_CHUNK):
        chunk = trials.trials[start:start + _TRIAL_CHUNK]
        enroll = np.array([place[trial.enroll_id] for trial in chunk], dtype=np.intp)
        test = np.array([place[trial.test_id] for trial in chunk], dtype=np.intp)
        defined = present[enroll] & present[test]
        rows, phones = np.nonzero(defined)
        e, t = enroll[rows], test[rows]
        values = np.full(defined.shape, np.nan)
        values[rows, phones] = _row_cosines(
            traits[e, phones], traits[t, phones], trait_norms[e, phones], trait_norms[t, phones]
        )
        finals = _row_cosines(
            embeddings[enroll], embeddings[test], embedding_norms[enroll], embedding_norms[test]
        ).tolist()
        for k, trial in enumerate(chunk):
            similarity = TraitSimilarityVector(values[k], defined[k])
            try:
                evidence = evidence_score(similarity)
            except UndefinedEvidenceError:
                evidence = None
            records.append(
                ScoreRecord(
                    enroll_id=trial.enroll_id,
                    test_id=trial.test_id,
                    label=trial.label,
                    final=finals[k],
                    evidence=evidence,
                    similarity=similarity,
                )
            )
    return records


# ---------------------------------------------------------------------------
# score file I/O
# ---------------------------------------------------------------------------

def save_scores(records: list[ScoreRecord], path) -> None:
    with atomic_write(path) as f:
        for r in records:
            label = _NA if r.label is None else str(r.label)
            evidence = _NA if r.evidence is None else repr(float(r.evidence))
            cells = [r.enroll_id, r.test_id, label, repr(float(r.final)), evidence] + [
                repr(v) if d else _NA
                for v, d in zip(r.similarity.values.tolist(), r.similarity.defined.tolist())
            ]
            f.write("\t".join(cells) + "\n")


def load_scores(path, n_phones: int | None = None) -> list[ScoreRecord]:
    """Read a score file; ``n_phones`` defaults to what the first row implies."""
    records = []
    with _LineReader(path) as lines:
        for text in lines.records():
            if n_phones is None:
                n_phones = max(text.count("\t") - 4, 1)
            cells = lines.fields(text, 5 + n_phones)
            label = lines.label(cells[2])
            if cells[3] == _NA:
                raise lines.error("final score is NA")
            scores = lines.na_floats(cells[3:], "score")
            records.append(
                ScoreRecord(
                    enroll_id=cells[0],
                    test_id=cells[1],
                    label=label,
                    final=float(scores[0]),
                    evidence=None if cells[4] == _NA else float(scores[1]),
                    similarity=TraitSimilarityVector(scores[2:], np.isfinite(scores[2:])),
                )
            )
    return records
