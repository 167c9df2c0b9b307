"""Trial scoring: overall decision score plus the per-phone evidence behind it.

A trial compares an enrollment utterance with a test utterance. The final
score is the cosine similarity of their speaker embeddings. The evidence
score averages per-phone trait cosines over the phones present in both
utterances; phones missing on either side are undefined (kept as NaN in the
similarity vector) and excluded from the average. A trial with no shared
phone has no evidence score at all.

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
from .trait_layer import PhoneticTraitSet, forward_utterance
from .training import ModelState


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"vectors must share a 1-d shape, got {a.shape} and {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < _NORM_FLOOR or nb < _NORM_FLOOR:
        raise NumericGuardError("cosine similarity of a near-zero vector is undefined")
    return float(a @ b / (na * nb))


def final_score(enroll_embedding: np.ndarray, test_embedding: np.ndarray) -> float:
    """Utterance-level decision score: cosine of the two speaker embeddings."""
    return cosine_similarity(enroll_embedding, test_embedding)


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


def trait_similarity_vector(
    enroll: PhoneticTraitSet, test: PhoneticTraitSet
) -> TraitSimilarityVector:
    """Cosine of same-phone trait pairs, defined where both sides are present."""
    if enroll.traits.shape != test.traits.shape:
        raise DimensionError(
            f"trait sets have shapes {enroll.traits.shape} and {test.traits.shape}"
        )
    n_phones = enroll.n_phones
    defined = enroll.present & test.present
    values = np.full(n_phones, np.nan)
    for i in np.nonzero(defined)[0]:
        values[i] = cosine_similarity(enroll.traits[i], test.traits[i])
    return TraitSimilarityVector(values, defined)


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
    """Score every trial, encoding each utterance only once."""
    trials.validate_against(index.features)
    cache: dict[str, tuple[PhoneticTraitSet, np.ndarray]] = {}

    def forward(utt_id: str) -> tuple[PhoneticTraitSet, np.ndarray]:
        if utt_id not in cache:
            fwd = forward_utterance(
                index.features[utt_id].features,
                index.alignments[utt_id],
                state.encoder,
                state.projection,
                n_phones,
            )
            cache[utt_id] = (fwd.trait_set, fwd.embedding)
        return cache[utt_id]

    records = []
    for trial in trials:
        enroll_traits, enroll_embedding = forward(trial.enroll_id)
        test_traits, test_embedding = forward(trial.test_id)
        similarity = trait_similarity_vector(enroll_traits, test_traits)
        try:
            evidence = evidence_score(similarity)
        except UndefinedEvidenceError:
            evidence = None
        records.append(
            ScoreRecord(
                enroll_id=trial.enroll_id,
                test_id=trial.test_id,
                label=trial.label,
                final=final_score(enroll_embedding, test_embedding),
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
            cells = [r.enroll_id, r.test_id, label, repr(float(r.final)), evidence]
            for i in range(r.similarity.values.shape[0]):
                if r.similarity.defined[i]:
                    cells.append(repr(float(r.similarity.values[i])))
                else:
                    cells.append(_NA)
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
