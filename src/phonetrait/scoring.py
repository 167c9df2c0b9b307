"""Trial scoring: overall decision score plus the per-phone evidence behind it.

A trial compares an enrollment utterance with a test utterance. The final
score is the cosine similarity of their speaker embeddings. The evidence
score averages per-phone trait cosines over the phones present in both
utterances; phones missing on either side are undefined and excluded from
the average. A trial with no shared phone has no evidence score at all.

Scored trials travel as one ``ScoreTable``: id and label columns, the final
and evidence columns (n,) and the per-phone similarity matrix (n, I), with
NaN wherever a value is undefined. ``score_trials`` fills it, ``save_scores``
and ``load_scores`` write and read it, and ``phonetrait.analysis`` reads its
columns. A table refuses any row whose line ``load_scores`` would reject
for its values, so a writer checks only that no id holds a tab or a line
break (``textio.check_ids``).

Every cosine here comes from one kernel, ``_row_cosines``, which takes each
row pair's dot product from a stacked matmul, divides it by the product of
the two norms and refuses a norm below ``NORM_FLOOR``. ``score_trials``
forwards each distinct utterance once, packed with others through
``forward_batch``, and caches the norms of its trait rows and of its
embedding, so a chunk of trials costs one kernel call for its per-phone
cosines and one for its final scores.

Score file format, one trial per line, tab separated::

    enroll_id  test_id  label  final  evidence  s0 .. s{I-1}

``label`` is 1/0 or NA for unlabelled trials; ``evidence`` and undefined
per-phone entries are NA, and ``evidence`` is NA exactly when every
per-phone entry is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isnan

import numpy as np

from .corpus import CorpusIndex, TrialList
from .errors import ConfigurationError, DimensionError, NumericGuardError
from .losses import NORM_FLOOR
from .textio import NA, LineReader, atomic_write, check_ids, first_broken, numbers
from .trait_layer import forward_batch
from .training import ModelState
from .workspace import Workspace


# Trials scored per kernel call in ``score_trials``; bounds its temporaries.
_TRIAL_CHUNK = 128
# Utterances per ``forward_batch`` call in ``score_trials``. A packed forward
# holds every layer's activations for all of its frames at once. On the desk
# corpus (200 utterances, 4000 trials, one BLAS thread) the peak RSS of
# ``score`` was 44.9 MB one utterance at a time, 45.0 MB at 32, 48.9 MB at 64
# and 52.4 MB with all 200 in one pack. The scores are the same bits at any
# chunk size, unless an utterance has one frame or a layer is one wide: NumPy
# multiplies those with gemv and sums a one-wide trait axis pairwise, so
# their last bits depend on which utterances share the pack.
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

    Every row it is given must have a norm of at least ``NORM_FLOOR``.
    """
    if (norm_a < NORM_FLOOR).any() or (norm_b < NORM_FLOOR).any():
        raise NumericGuardError("cosine similarity of a near-zero vector is undefined")
    return _row_dots(a, b) / (norm_a * norm_b)


# A row's evidence is NA exactly when none of its per-phone cells is defined.
_EVIDENCE_MISMATCH = "evidence must be NA exactly when no phone is defined"


def _evidence_mismatch(evidence: np.ndarray, similarity: np.ndarray) -> np.ndarray:
    """Which rows have an evidence score NaN where some per-phone value is
    defined, or the reverse."""
    return np.isnan(evidence) != np.isnan(similarity).all(axis=1)


@dataclass
class ScoreTable:
    """Scored trials as columns, one row per trial, in trial order.

    NaN marks what is undefined: an evidence score where no phone is shared,
    a per-phone cosine where either side lacks the phone. A label other than
    1, 0 or -1 (NA), an NA final score, an infinite value, or evidence NA where
    some phone is defined or the reverse is a ConfigurationError naming the
    first such trial, so ``~np.isnan(similarity)`` is the defined mask.
    """

    enroll_ids: list[str]
    test_ids: list[str]
    labels: np.ndarray      # (n,) 1 target, 0 non-target, -1 unlabelled (NA)
    final: np.ndarray       # (n,)
    evidence: np.ndarray    # (n,)
    similarity: np.ndarray  # (n, I)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.final = np.asarray(self.final, dtype=np.float64)
        self.evidence = np.asarray(self.evidence, dtype=np.float64)
        self.similarity = np.asarray(self.similarity, dtype=np.float64)
        n = len(self.enroll_ids)
        if (len(self.test_ids) != n
                or any(a.shape != (n,) for a in (self.labels, self.final, self.evidence))
                or self.similarity.ndim != 2 or self.similarity.shape[0] != n):
            raise DimensionError("score table columns must all have one row per trial")
        if broken := first_broken(
            (~np.isin(self.labels, (-1, 0, 1)), lambda k: "label must be 1, 0 or -1 (NA)"),
            (np.isnan(self.final), lambda k: "final score is NA"),
            (np.isinf(self.final) | np.isinf(self.evidence) | np.isinf(self.similarity).any(axis=1),
             lambda k: "scores must be finite or NA"),
            (_evidence_mismatch(self.evidence, self.similarity), lambda k: _EVIDENCE_MISMATCH),
        ):
            raise ConfigurationError(f"trial {broken[0]}: {broken[1]}")

    def __len__(self) -> int:
        return len(self.enroll_ids)


def _defined_means(values: np.ndarray) -> np.ndarray:
    """Mean of each row's non-NaN values; NaN for a row with none.

    Each row's defined values are left-packed in order, and the rows that
    define the same number c of values are averaged together over their first
    c columns. Every mean is then the same pairwise sum as
    ``row[defined].mean()``; a zero-filled sum over all I columns is not,
    because NumPy's unrolled pairwise sum regroups once 8 or more values are
    summed.
    """
    defined = ~np.isnan(values)
    counts = defined.sum(axis=1)
    packed = np.take_along_axis(values, np.argsort(~defined, axis=1, kind="stable"), axis=1)
    means = np.full(len(values), np.nan)
    for c in np.unique(counts[counts > 0]).tolist():
        rows = counts == c
        means[rows] = packed[rows, :c].mean(axis=1)
    return means


def _forward_utterances(
    utterances: list[str], index: CorpusIndex, state: ModelState, n_phones: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked traits, presence masks and embeddings of the utterances.

    They go through ``forward_batch`` ``_UTTERANCE_CHUNK`` at a time, every
    pack in one workspace, which is freed on return.
    """
    traits = np.empty((len(utterances), n_phones, state.encoder.config.output_dim))
    present = np.empty((len(utterances), n_phones), dtype=bool)
    embeddings = np.empty((len(utterances), state.projection.embedding_dim))
    workspace = Workspace()
    for start in range(0, len(utterances), _UTTERANCE_CHUNK):
        chunk = utterances[start:start + _UTTERANCE_CHUNK]
        fwd = forward_batch(*index.pack(chunk, workspace), chunk, state.encoder, state.projection,
                            n_phones, workspace)
        rows = slice(start, start + len(chunk))
        traits[rows], present[rows], embeddings[rows] = fwd.traits, fwd.present, fwd.embeddings
    return traits, present, embeddings


def score_trials(
    state: ModelState,
    index: CorpusIndex,
    trials: TrialList,
    n_phones: int,
) -> ScoreTable:
    """Score every trial, encoding each utterance only once.

    The distinct utterances are packed ``_UTTERANCE_CHUNK`` at a time through
    ``forward_batch``; their traits, presence masks and embeddings are
    stacked, and their row norms computed once. Trials are then scored
    ``_TRIAL_CHUNK`` at a time into the table's columns: one kernel call over
    the chunk's defined (trial, phone) trait rows and one over its embedding
    pairs. The evidence column is computed once at the end.
    """
    trials.validate_against(index.features)
    # Each distinct utterance's row, in the order the trials first name it.
    pairs = chain.from_iterable(zip(trials.enroll_ids, trials.test_ids))
    place = {utt: k for k, utt in enumerate(dict.fromkeys(pairs))}
    traits, present, embeddings = _forward_utterances(list(place), index, state, n_phones)
    trait_norms = _row_norms(traits.reshape(-1, traits.shape[2])).reshape(present.shape)
    embedding_norms = _row_norms(embeddings)

    enroll_all = np.array([place[utt] for utt in trials.enroll_ids], dtype=np.intp)
    test_all = np.array([place[utt] for utt in trials.test_ids], dtype=np.intp)
    final = np.empty(len(trials))
    similarity = np.full((len(trials), n_phones), np.nan)
    for start in range(0, len(trials), _TRIAL_CHUNK):
        block = slice(start, start + _TRIAL_CHUNK)
        enroll, test = enroll_all[block], test_all[block]
        rows, phones = np.nonzero(present[enroll] & present[test])
        e, t = enroll[rows], test[rows]
        similarity[start + rows, phones] = _row_cosines(
            traits[e, phones], traits[t, phones], trait_norms[e, phones], trait_norms[t, phones]
        )
        final[block] = _row_cosines(
            embeddings[enroll], embeddings[test], embedding_norms[enroll], embedding_norms[test]
        )
    return ScoreTable(trials.enroll_ids, trials.test_ids, trials.labels, final,
                      _defined_means(similarity), similarity)


# ---------------------------------------------------------------------------
# score file I/O
# ---------------------------------------------------------------------------

# Score rows per ``np.loadtxt`` call in ``load_scores``; bounds the loader's
# temporaries. Loading the desk score file (4000 rows of 45 cells) peaked at
# 3.3 MB traced (tracemalloc) in chunks of 500, 4.7 MB in chunks of 1000 and
# 13.0 MB with every row converted at once.
_SCORE_CHUNK = 500


def save_scores(table: ScoreTable, path) -> None:
    """Write the table, one trial per line; an id that holds a tab or a line
    break raises ConfigurationError (``check_ids``) before anything is written."""
    check_ids(chain.from_iterable(zip(table.enroll_ids, table.test_ids)), "\t")
    with atomic_write(path) as f:
        for enroll, test, label, final, evidence, values in zip(
            table.enroll_ids, table.test_ids, table.labels.tolist(), table.final.tolist(),
            table.evidence.tolist(), table.similarity,
        ):
            cells = [enroll, test, NA if label < 0 else str(label), repr(final)] + [
                NA if isnan(v) else repr(v) for v in [evidence] + values.tolist()
            ]
            f.write("\t".join(cells) + "\n")


def load_scores(path, n_phones: int | None = None) -> ScoreTable:
    """Read a score file; ``n_phones`` defaults to what the first row implies,
    and to 0 for a file without rows.

    The rows are read ``_SCORE_CHUNK`` at a time, each chunk's numeric cells
    converted by one ``textio.numbers`` call, with NaN where a cell is
    exactly ``NA`` (``-NA`` or a padded ``NA`` is no number); every rule is a
    mask over the chunk's rows, and ``LineReader.reject`` names the first row
    that breaks one.
    """
    enroll_ids, test_ids, labels, blocks = [], [], [], []
    with LineReader(path) as lines:
        for rows, line_nos in lines.chunks(_SCORE_CHUNK):
            if n_phones is None:
                n_phones = max(rows[0].count("\t") - 4, 1)
            n_fields = [row.count("\t") + 1 for row in rows]
            enroll, test, label, cells = zip(*(row.split("\t", 3) if n == 5 + n_phones else [""] * 4
                                               for row, n in zip(rows, n_fields)))
            codes = list(map({"1": 1, "0": 0, NA: -1}.get, label))
            values, (wrong_width, not_number, non_finite) = numbers(
                cells, 2 + n_phones, "\t", na=True)
            lines.reject(
                line_nos,
                (np.not_equal(n_fields, 5 + n_phones),
                 lambda k: f"expected {5 + n_phones} fields, got {n_fields[k]}"),
                ([code is None for code in codes],
                 lambda k: f"label must be 1, 0 or NA, got {label[k]!r}"),
                ([text.startswith(NA + "\t") for text in cells], lambda k: "final score is NA"),
                (wrong_width, lambda k: f"non-numeric score ({wrong_width[k]})"),
                (not_number, lambda k: f"non-numeric score ({not_number[k]})"),
                (non_finite, lambda k: "non-finite score"),
                (_evidence_mismatch(values[:, 1], values[:, 2:]), lambda k: _EVIDENCE_MISMATCH),
            )
            enroll_ids += enroll
            test_ids += test
            labels += codes
            blocks.append(values)
            del rows, cells  # the last chunk's text is not held while the blocks are joined
    scores = np.concatenate(blocks or [np.empty((0, 2 + (n_phones or 0)))])
    return ScoreTable(enroll_ids, test_ids, labels, scores[:, 0], scores[:, 1], scores[:, 2:])
