"""Synthetic speaker corpus with frame-level phone alignments.

Every utterance is a concatenation of phone segments, one (S, 3) array of
``(start, end, phone)`` rows. Each speaker owns one characteristic vector per
phone, built as a shared per-phone prototype plus a speaker-specific
deviation; frames are that vector plus i.i.d. Gaussian noise. Trials travel as
the three columns of a ``TrialList``. All generation is a pure function of the
seed, so identical seeds reproduce byte-identical corpora.

File formats, read and written under the rules of ``phonetrait.textio`` (one
record per line, tab or space separated, floats written with ``repr`` so that
save/load round-trips are exact):

* inventory: one phone label per line, order defines indices
* alignments: ``utt_id<TAB>start_frame<TAB>end_frame<TAB>phone_label``
* trials:    ``label(1|0)<TAB>enroll_utt_id<TAB>test_utt_id``
* features:  header ``utt_id speaker_id T F`` followed by T rows of F floats
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import ConfigurationError, DimensionError, ParseError
from .textio import LineReader, atomic_write, check_ids, first_broken, numbers, write_row
from .workspace import Workspace

# 39-phone English inventory; the trailing non-verbal label makes 40 units.
CMU_PHONES = (
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH",
    "EH", "ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K",
    "L", "M", "N", "NG", "OW", "OY", "P", "R", "S", "SH",
    "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
)
NON_VERBAL = "[N-V]"


def check_seed(seed: int) -> None:
    """ConfigurationError for a seed that ``np.random.SeedSequence`` refuses."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class PhoneInventory:
    """Ordered phone label set; index in ``labels`` is the phone index.

    Every label reads back whole from each file that holds one: it is not
    empty or padded (``load_inventory`` strips each line) and holds no tab
    (alignment and explanation cells), line break or comma (F-ratio cells).
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ConfigurationError("inventory needs at least 2 labels")
        for label in self.labels:
            self.check_label(label)
        if len(set(self.labels)) != len(self.labels):
            raise ConfigurationError("inventory labels must be unique")

    @staticmethod
    def check_label(label: str) -> None:
        """ConfigurationError, naming ``label``, if it breaks the label rule above."""
        if not label or label != label.strip() or any(c in label for c in "\t\n\r,"):
            raise ConfigurationError(f"inventory label {label!r} must be non-empty, unpadded "
                                     "and hold no tab, line break or comma")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ConfigurationError(f"unknown phone label {label!r}") from None


def default_inventory() -> PhoneInventory:
    """The 40-unit inventory: 39 phones plus the non-verbal label last."""
    return PhoneInventory(CMU_PHONES + (NON_VERBAL,))


@dataclass
class UtteranceFeatures:
    """T x F acoustic feature matrix for one utterance."""

    utterance_id: str
    speaker_id: str
    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise DimensionError(
                f"features of {self.utterance_id!r} must be a T x F matrix with T,F >= 1, "
                f"got shape {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            raise ConfigurationError(f"features of {self.utterance_id!r} contain non-finite values")

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _segment_rules(start, end, expected, utts):
    """The ``first_broken`` rules of every alignment segment row: it is not
    empty, and it starts at ``expected``, where the row before it in utterance
    ``utts[k]`` ended (0 for an utterance's first row)."""
    return (
        (end <= start, lambda k: f"empty segment ({start[k]}, {end[k]})"),
        (start != expected, lambda k: (
            f"{'overlap' if start[k] < expected[k] else 'gap'} at frame {expected[k]} "
            f"of utterance {utts[k]!r}")),
    )


@dataclass
class PhoneAlignment:
    """Exhaustive segmentation of an utterance into phone-labelled frame spans.

    ``segments`` is one (S, 3) int64 array of ``(start_frame, end_frame,
    phone_index)`` rows with ``end`` exclusive. Segments must be non-empty,
    sorted, and contiguous from frame 0, so the union covers [0, T) exactly;
    ``_segment_rules`` states these rules for ``load_alignments`` too, in its
    wording.
    """

    utterance_id: str
    segments: np.ndarray  # (S, 3)

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=np.int64).reshape(-1, 3)
        if not len(self.segments):
            raise ConfigurationError(f"alignment of {self.utterance_id!r} has no segments")
        start, end, phone = self.segments.T
        broken = first_broken(
            *_segment_rules(start, end, np.r_[0, end[:-1]], [self.utterance_id] * len(start)),
            (phone < 0, lambda k: (
                f"negative phone index {phone[k]} of utterance {self.utterance_id!r}")),
        )
        if broken:
            raise ConfigurationError(broken[1])

    @property
    def n_frames(self) -> int:
        return int(self.segments[-1, 1])

    def frame_phones(self) -> np.ndarray:
        """Phone index of every frame, shape (T,)."""
        return np.repeat(self.segments[:, 2], self.segments[:, 1] - self.segments[:, 0])


def _trial_rules(enroll_ids, test_ids, labels):
    """The ``first_broken`` rules of every trial row: its label is 1 or 0, and
    it does not pair an utterance with itself."""
    return (
        ([label not in (0, 1) for label in labels],
         lambda k: f"trial label must be 1 or 0, got {labels[k]!r}"),
        ([e == t for e, t in zip(enroll_ids, test_ids)],
         lambda k: f"trial pairs utterance {enroll_ids[k]!r} with itself"),
    )


@dataclass
class TrialList:
    """Verification trials as columns, one row per trial: enrollment and test
    utterance ids, and labels (n,), 1 for a target (same-speaker) trial and 0
    for a non-target one. No trial pairs an utterance with itself."""

    enroll_ids: list[str]
    test_ids: list[str]
    labels: np.ndarray  # (n,)

    def __post_init__(self):
        labels = np.asarray(self.labels).tolist()
        if not len(self.enroll_ids) == len(self.test_ids) == len(labels):
            raise DimensionError("trial columns must all have one row per trial")
        if broken := first_broken(*_trial_rules(self.enroll_ids, self.test_ids, labels)):
            raise ConfigurationError(broken[1])
        self.labels = np.array(labels, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.labels)

    def validate_against(self, utterance_ids) -> None:
        known = set(utterance_ids)
        for utt in chain.from_iterable(zip(self.enroll_ids, self.test_ids)):
            if utt not in known:
                raise ConfigurationError(f"trial references unknown utterance id {utt!r}")


_LOW_WORD = 0xFFFFFFFF


def _tail_shuffles(n: int, k: int) -> bool:
    """Whether ``Generator.choice(n, k, replace=False)`` shuffles the tail of
    ``range(n)``, rather than sampling by Floyd's algorithm."""
    return n > 10000 and k > n // 50


def bounded_draws(words: Iterator[int]
                  ) -> tuple[Callable[[int], int], Callable[[int, int], list[int]]]:
    """NumPy's bounded random integers, made from the 32-bit words ``words`` yields.

    Returns ``(below, choice)``. For a generator whose next 32-bit words are
    ``words``, ``below(n)`` is ``int(Generator.integers(n))`` and ``choice(n,
    k)`` is ``Generator.choice(n, k, replace=False).tolist()``, for 1 <= n <=
    2**32. They read the words NumPy's calls read, in the same order: each
    bounded integer is Lemire's multiply-and-shift with rejection (a range of
    one reads no word), and ``choice`` runs Floyd's sampling and then a
    shuffle, or for a large population a partial shuffle of its tail.
    """
    next_word = words.__next__

    def below(n: int) -> int:
        if n == 1:
            return 0
        m = next_word() * n
        if m & _LOW_WORD < n:
            floor = (1 << 32) % n
            while m & _LOW_WORD < floor:
                m = next_word() * n
        return m >> 32

    def shuffle(data: list[int], first: int) -> None:
        for i in range(len(data) - 1, first - 1, -1):
            j = below(i + 1)
            data[i], data[j] = data[j], data[i]

    def choice(n: int, k: int) -> list[int]:
        if _tail_shuffles(n, k):
            out = list(range(n))
            shuffle(out, n - k)
            return out[n - k:]
        out, seen = [], set()
        for j in range(n - k, n):
            t = below(j + 1)
            if t in seen:
                t = j
            seen.add(t)
            out.append(t)
        shuffle(out, 1)
        return out

    return below, choice


def choice_words(populations: Iterable[int], k: int) -> int:
    """The words that one ``choice(n, k)`` per population ``n`` reads in all,
    when none is rejected."""
    total = 0
    for n in populations:
        # A word per draw of k, none for the one-wide range that k == n reaches.
        total += k - (k == n)
        if not _tail_shuffles(n, k):
            total += max(k - 1, 0)  # Floyd's shuffle
    return total


def generator_words(rng: np.random.Generator, first: int, block: int = 1) -> Iterator[int]:
    """``rng``'s next 32-bit words, in the order ``Generator.integers`` reads
    them: ``first`` of them in one draw when the first is read, then ``block``
    per draw as they run out."""
    yield from rng.integers(0, 1 << 32, size=first, dtype=np.uint64).tolist()
    while True:
        yield from rng.integers(0, 1 << 32, size=block, dtype=np.uint64).tolist()


def _raw_words(bit_generator: np.random.PCG64) -> Iterator[int]:
    """PCG64's 32-bit words: the low half of a 64-bit ``random_raw()`` word
    drawn when it is read, then the word's buffered high half."""
    for raw in iter(bit_generator.random_raw, None):
        yield raw & _LOW_WORD
        yield raw >> 32


def _utterances_by_speaker(features) -> dict[str, list[str]]:
    """Each speaker's utterance ids, sorted."""
    by_speaker: dict[str, list[str]] = {}
    for f in features:
        by_speaker.setdefault(f.speaker_id, []).append(f.utterance_id)
    return {speaker: sorted(utts) for speaker, utts in by_speaker.items()}


@dataclass
class CorpusIndex:
    """Fast lookup over a corpus: features and frame phones by utterance id.

    ``build`` checks what ``pack`` assumes: at least one utterance, and every
    utterance's features ``feature_dim`` wide, as the first one's are.
    """

    features: dict[str, UtteranceFeatures]
    phones: dict[str, np.ndarray]  # every utterance's frame_phones(), expanded once
    speakers: list[str]
    utts_by_speaker: dict[str, list[str]]
    feature_dim: int

    @classmethod
    def build(cls, features, alignments) -> "CorpusIndex":
        if not features:
            raise ConfigurationError("corpus has no utterances")
        for f in features:
            if f.dim != features[0].dim:
                raise DimensionError(
                    f"features of {f.utterance_id!r} are {f.dim}-dim "
                    f"but those of {features[0].utterance_id!r} are {features[0].dim}-dim"
                )
        feat_map = {f.utterance_id: f for f in features}
        align_map = {a.utterance_id: a for a in alignments}
        if len(feat_map) != len(features):
            raise ConfigurationError("duplicate utterance ids in features")
        if set(feat_map) != set(align_map):
            raise ConfigurationError("features and alignments reference different utterance ids")
        for utt, a in align_map.items():
            if a.n_frames != feat_map[utt].n_frames:
                raise DimensionError(
                    f"alignment of {utt!r} covers {a.n_frames} frames "
                    f"but features have {feat_map[utt].n_frames}"
                )
        by_speaker = _utterances_by_speaker(features)
        return cls(
            features=feat_map,
            phones={utt: a.frame_phones() for utt, a in align_map.items()},
            speakers=sorted(by_speaker),
            utts_by_speaker=by_speaker,
            feature_dim=features[0].dim,
        )

    def pack(self, utterance_ids: list[str], workspace: Workspace
             ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The utterances' features (N x F) and frame phones (N,) back to back, and their lengths.

        The features go to the ``workspace`` role ``features``.
        """
        lengths = [self.features[u].n_frames for u in utterance_ids]
        shape = (sum(lengths), self.feature_dim)
        return (
            np.concatenate([self.features[u].features for u in utterance_ids],
                           out=workspace.take("features", shape)),
            np.concatenate([self.phones[u] for u in utterance_ids]),
            lengths,
        )

    def class_label(self, speaker_id: str) -> int:
        return self.speakers.index(speaker_id)

    @cached_property
    def pair_speakers(self) -> tuple[list[str], np.ndarray]:
        """Speakers with at least two utterances, in speaker order, and their class labels."""
        eligible = [s for s in self.speakers if len(self.utts_by_speaker[s]) >= 2]
        return eligible, np.array([self.class_label(s) for s in eligible], dtype=np.int64)


# ``Generator.random()`` scales the top 53 bits of a 64-bit word by this.
_UNIT_53 = 1.0 / (1 << 53)


def generate_corpus(
    n_speakers: int,
    utts_per_speaker: int,
    inventory: PhoneInventory,
    feature_dim: int,
    segment_length_range: tuple[int, int],
    phones_per_utt_range: tuple[int, int],
    noise_std: float,
    seed: int,
    *,
    speaker_spread: float = 0.25,
    phone_weights: np.ndarray | None = None,
) -> tuple[list[UtteranceFeatures], list[PhoneAlignment], np.ndarray]:
    """Generate a deterministic synthetic corpus.

    Each speaker's signature for phone i is ``prototype[i] + speaker_spread *
    deviation[speaker, i]``; the shared prototypes make the same phone similar
    across speakers, which is what makes per-phone comparison a non-trivial
    problem. ``phone_weights`` optionally biases which phones the generator
    emits (unnormalised, one weight per inventory entry).

    Returns (features, alignments, signatures): one alignment per utterance,
    and every speaker's signatures as one (S, I, F) array.
    """
    if n_speakers < 1 or utts_per_speaker < 1 or feature_dim < 1:
        raise ConfigurationError("n_speakers, utts_per_speaker and feature_dim must be >= 1")
    seg_lo, seg_hi = segment_length_range
    ppu_lo, ppu_hi = phones_per_utt_range
    if seg_lo < 1 or seg_hi < seg_lo:
        raise ConfigurationError(f"invalid segment_length_range {segment_length_range}")
    if ppu_lo < 1 or ppu_hi < ppu_lo:
        raise ConfigurationError(f"invalid phones_per_utt_range {phones_per_utt_range}")
    if not 0.0 <= noise_std < np.inf:
        raise ConfigurationError("noise_std must be finite and >= 0")
    if not 0.0 <= speaker_spread < np.inf:
        raise ConfigurationError("speaker_spread must be finite and >= 0")
    check_seed(seed)
    n_phones = inventory.size
    if phone_weights is None:
        probs = np.full(n_phones, 1.0 / n_phones)
    else:
        w = np.asarray(phone_weights, dtype=np.float64)
        if w.shape != (n_phones,) or (w < 0).any() or not 0.0 < w.sum() < np.inf:
            raise ConfigurationError(
                "phone_weights must be non-negative, one per label, with a finite sum > 0")
        probs = w / w.sum()
    # The CDF that ``Generator.choice(n_phones, p=probs)`` rebuilds on every
    # call: one ``random()`` draw searched in it picks the same phone and
    # advances the stream the same way.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    # Pre-split seed streams: one for the signatures, one per utterance, so
    # utterances could be generated concurrently without changing the output.
    root = np.random.SeedSequence(seed)
    streams = root.spawn(1 + n_speakers * utts_per_speaker)
    signature_rng = np.random.default_rng(streams[0])

    prototypes = signature_rng.standard_normal((n_phones, feature_dim))
    # The deviations take the stream's values in the order one draw per speaker would.
    signatures = prototypes + speaker_spread * signature_rng.standard_normal(
        (n_speakers, n_phones, feature_dim))

    features: list[UtteranceFeatures] = []
    alignments: list[PhoneAlignment] = []
    for s in range(n_speakers):
        speaker_id = f"spk{s:03d}"
        for u in range(utts_per_speaker):
            rng = np.random.default_rng(streams[1 + s * utts_per_speaker + u])
            # The draws of ``rng.integers`` (from 32-bit words) and of
            # ``rng.random`` (the top 53 bits of a 64-bit word). The normals
            # read 64-bit words only, so a buffered half-word waits for them.
            raw = rng.bit_generator.random_raw
            below, _ = bounded_draws(_raw_words(rng.bit_generator))
            n_segments = ppu_lo + below(ppu_hi - ppu_lo + 1)
            phones, lengths, noise = [], [], []
            for _ in range(n_segments):
                phones.append(bisect_right(cdf, (raw() >> 11) * _UNIT_53))
                lengths.append(seg_lo + below(seg_hi - seg_lo + 1))
                noise.append(rng.standard_normal((lengths[-1], feature_dim)))
            # Elementwise over the whole utterance, so every frame has the
            # bits of its own segment's ``signature + noise_std * noise``.
            frames = (signatures[s, np.repeat(phones, lengths)]
                      + noise_std * np.concatenate(noise))
            ends = np.cumsum(lengths)
            utt = f"{speaker_id}_u{u:03d}"
            features.append(UtteranceFeatures(utt, speaker_id, frames))
            alignments.append(PhoneAlignment(utt, np.column_stack((ends - lengths, ends, phones))))
    return features, alignments, signatures


# Random words per draw in ``make_trials``: a trial reads three or four.
_TRIAL_WORDS = 1024


def make_trials(
    features: list[UtteranceFeatures],
    n_target: int,
    n_nontarget: int,
    seed: int,
) -> TrialList:
    """Sample labelled verification trials (with replacement across trials)."""
    if n_target < 0 or n_nontarget < 0:
        raise ConfigurationError("trial counts must be >= 0")
    check_seed(seed)
    by_speaker = _utterances_by_speaker(features)
    speakers = sorted(by_speaker)
    pairable = [s for s in speakers if len(by_speaker[s]) >= 2]
    if n_target > 0 and not pairable:
        raise ConfigurationError("target trials need a speaker with >= 2 utterances")
    if n_nontarget > 0 and len(speakers) < 2:
        raise ConfigurationError("non-target trials need >= 2 speakers")

    # The generator is this call's own, so its words may be drawn past the last one read.
    below, choice = bounded_draws(generator_words(np.random.default_rng(seed), _TRIAL_WORDS,
                                                  _TRIAL_WORDS))
    enroll_ids, test_ids = [], []
    for _ in range(n_target):
        utts = by_speaker[pairable[below(len(pairable))]]
        a, b = choice(len(utts), 2)
        enroll_ids.append(utts[a])
        test_ids.append(utts[b])
    for _ in range(n_nontarget):
        i, j = choice(len(speakers), 2)
        enroll = by_speaker[speakers[i]]
        test = by_speaker[speakers[j]]
        enroll_ids.append(enroll[below(len(enroll))])
        test_ids.append(test[below(len(test))])
    return TrialList(enroll_ids, test_ids, np.repeat([1, 0], [n_target, n_nontarget]))


def save_inventory(inventory: PhoneInventory, path) -> None:
    """Write one label per line; ``PhoneInventory`` holds only labels that read back."""
    with atomic_write(path) as f:
        for label in inventory.labels:
            f.write(label + "\n")


def load_inventory(path) -> PhoneInventory:
    labels: dict[str, None] = {}  # in file order
    with LineReader(path) as lines:
        for text in lines:
            label = text.strip()
            try:
                PhoneInventory.check_label(label)
            except ConfigurationError as exc:
                raise lines.error(str(exc)) from None
            labels[lines.unique_key(labels, label, "inventory label")] = None
    if len(labels) < 2:
        raise ParseError(path, 1, "inventory needs at least 2 labels")
    return PhoneInventory(tuple(labels))


def save_alignments(alignments: list[PhoneAlignment], inventory: PhoneInventory, path) -> None:
    check_ids((align.utterance_id for align in alignments), "\t")
    with atomic_write(path) as f:
        for align in alignments:
            for start, end, phone in align.segments.tolist():
                f.write(f"{align.utterance_id}\t{start}\t{end}\t{inventory.labels[phone]}\n")


# Alignment rows per ``np.loadtxt`` call in ``load_alignments``; bounds the
# loader's temporaries to about what the rows' segments take.
_ALIGNMENT_CHUNK = 1000


def load_alignments(path, inventory: PhoneInventory) -> list[PhoneAlignment]:
    """Parse an alignment file; an utterance's rows must be consecutive and in order.

    The rows are read ``_ALIGNMENT_CHUNK`` at a time, each chunk's frame
    bounds converted by ``textio.numbers``; every rule is a mask over the chunk's
    rows, and ``LineReader.reject`` names the first row that breaks one.
    Every utterance's segments are a slice of one array of all the rows.
    """
    first_rows: dict[str, int] = {}  # each utterance's first row, in file order
    blocks: list[np.ndarray] = []  # each chunk's (start, end, phone) rows
    n_read = 0
    with LineReader(path) as lines:
        for rows, line_nos in lines.chunks(_ALIGNMENT_CHUNK):
            fields = [row.split("\t") for row in rows]
            n_fields = np.fromiter(map(len, fields), np.intp, len(fields))
            if not (n_fields == 4).all():  # the rules after the first read four fields
                fields = [f if len(f) == 4 else [""] * 4 for f in fields]
            utts, starts, ends, labels = zip(*fields)
            bounds, (_, not_number, _) = numbers(
                list(map("\t".join, zip(starts, ends))), 2, "\t", np.int64)
            phones = np.fromiter(map(inventory._index.get, labels, repeat(-1)), np.intp, len(labels))
            last = next(reversed(first_rows), None)
            # Where each utterance's run of rows starts; none may start twice.
            firsts = [k for k, (utt, prev) in enumerate(zip(utts, (last,) + utts)) if utt != prev]
            reopened = np.zeros(len(rows), bool)
            for k in firsts:
                reopened[k] = utts[k] in first_rows
                first_rows[utts[k]] = n_read + k
            # ``bounds`` may stop short of the chunk, before a row that is no bounds.
            start, end = bounds.T
            expected = np.r_[blocks[-1][-1, 1] if blocks else 0, end[:-1]]
            expected[[k for k in firsts if k < len(bounds)]] = 0
            lines.reject(
                line_nos,
                (n_fields != 4, lambda k: f"expected 4 fields, got {n_fields[k]}"),
                (not_number, lambda k: f"non-numeric frame bounds ({not_number[k]})"),
                (phones < 0, lambda k: f"phone label {labels[k]!r} not in inventory"),
                (reopened, lambda k: f"rows of utterance {utts[k]!r} are not consecutive"),
                *_segment_rules(start, end, expected, utts),
            )
            blocks.append(np.column_stack((start, end, phones)))
            n_read += len(rows)
    segments = np.concatenate(blocks) if blocks else np.empty((0, 3), np.int64)
    runs = [*first_rows.values(), n_read]
    return [PhoneAlignment(utt, segments[a:b]) for utt, a, b in zip(first_rows, runs, runs[1:])]


def save_trials(trials: TrialList, path) -> None:
    check_ids(chain.from_iterable(zip(trials.enroll_ids, trials.test_ids)), "\t")
    with atomic_write(path) as f:
        for label, enroll, test in zip(trials.labels.tolist(), trials.enroll_ids, trials.test_ids):
            f.write(f"{label}\t{enroll}\t{test}\n")


def load_trials(path) -> TrialList:
    """Parse a trial file, read as one chunk; ``LineReader.reject`` names the
    first row that has other than three fields or breaks a ``TrialList`` rule."""
    labels, enroll_ids, test_ids = [], [], []
    with LineReader(path) as lines:
        for rows, line_nos in lines.chunks(sys.maxsize):  # one, unless a byte is not UTF-8
            fields = [row.split("\t") for row in rows]
            n_fields = list(map(len, fields))
            labels, enroll_ids, test_ids = (
                [f[c] if len(f) == 3 else "" for f in fields] for c in range(3))
            labels = [{"1": 1, "0": 0}.get(text, text) for text in labels]
            lines.reject(
                line_nos,
                (np.not_equal(n_fields, 3), lambda k: f"expected 3 fields, got {n_fields[k]}"),
                *_trial_rules(enroll_ids, test_ids, labels))
    return TrialList(enroll_ids, test_ids, labels)


def save_features(features: list[UtteranceFeatures], path) -> None:
    check_ids((name for feat in features for name in (feat.utterance_id, feat.speaker_id)), None)
    with atomic_write(path) as f:
        for feat in features:
            t, dim = feat.features.shape
            f.write(f"{feat.utterance_id} {feat.speaker_id} {t} {dim}\n")
            for row in feat.features:
                write_row(f, row)


def load_features(path) -> list[UtteranceFeatures]:
    out = []
    with LineReader(path) as lines:
        for text in lines.records():
            if len(header := text.split()) != 4:
                raise lines.error(f"expected 4 fields, got {len(header)}")
            utt_id, speaker_id, t_s, f_s = header
            n_frames, dim = lines.parse((t_s, f_s), int, "T or F")
            if n_frames < 1 or dim < 1:
                raise lines.error(f"T and F must be >= 1, got {n_frames}, {dim}")
            rows = lines.block(n_frames, dim, f"feature block for {utt_id!r}")
            out.append(UtteranceFeatures(utt_id, speaker_id, rows))
    return out
