"""Synthetic speaker corpus with frame-level phone alignments.

Every utterance is a concatenation of phone segments. Each speaker owns one
characteristic vector per phone, built as a shared per-phone prototype plus a
speaker-specific deviation; frames are that vector plus i.i.d. Gaussian noise.
All generation is a pure function of the seed, so identical seeds reproduce
byte-identical corpora.

File formats (one record per line, tab or space separated, floats written with
``repr`` so that save/load round-trips are exact):

* inventory: one phone label per line, order defines indices
* alignments: ``utt_id<TAB>start_frame<TAB>end_frame<TAB>phone_label``
* trials:    ``label(1|0)<TAB>enroll_utt_id<TAB>test_utt_id``
* features:  header ``utt_id speaker_id T F`` followed by T rows of F floats

Every phonetrait text file (these, checkpoints, score files, reports, F-ratio
tables, explanations and ``--config`` files) is read by the one private
``_LineReader`` below, under one set of rules: lines are numbered from 1 and
a ParseError names ``path:line``; blank lines between records are skipped (a
blank inventory line, or one inside a feature or tensor block, is an error);
every float cell must be finite (``NA`` marks a missing value where a format
allows one); a repeated key is rejected at its second line.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionError, ParseError

# 39-phone English inventory; the trailing non-verbal label makes 40 units.
CMU_PHONES = (
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH",
    "EH", "ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K",
    "L", "M", "N", "NG", "OW", "OY", "P", "R", "S", "SH",
    "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
)
NON_VERBAL = "[N-V]"


@dataclass(frozen=True)
class PhoneInventory:
    """Ordered phone label set; index in ``labels`` is the phone index."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ConfigurationError("inventory needs at least 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigurationError("inventory labels must be unique")

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

    def __contains__(self, label: str) -> bool:
        return label in self._index


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


@dataclass
class PhoneAlignment:
    """Exhaustive segmentation of an utterance into phone-labelled frame spans.

    Segments are (start_frame, end_frame, phone_index) with ``end`` exclusive.
    They must be non-empty, sorted, and contiguous from frame 0, so the union
    covers [0, T) exactly.
    """

    utterance_id: str
    segments: list[tuple[int, int, int]]

    def __post_init__(self):
        self.segments = [(int(s), int(e), int(p)) for s, e, p in self.segments]
        if not self.segments:
            raise ConfigurationError(f"alignment of {self.utterance_id!r} has no segments")
        prev_end = 0
        for k, (start, end, phone) in enumerate(self.segments):
            if end <= start:
                raise ConfigurationError(
                    f"alignment of {self.utterance_id!r}: segment {k} is empty ({start}, {end})"
                )
            if start != prev_end:
                kind = "overlaps" if start < prev_end else "leaves a gap after"
                raise ConfigurationError(
                    f"alignment of {self.utterance_id!r}: segment {k} {kind} frame {prev_end}"
                )
            if phone < 0:
                raise ConfigurationError(
                    f"alignment of {self.utterance_id!r}: negative phone index {phone}"
                )
            prev_end = end

    @property
    def n_frames(self) -> int:
        return self.segments[-1][1]

    def frame_phones(self) -> np.ndarray:
        """Phone index of every frame, shape (T,)."""
        out = np.empty(self.n_frames, dtype=np.int64)
        for start, end, phone in self.segments:
            out[start:end] = phone
        return out


@dataclass
class SyntheticSpeakerProfile:
    """Per-phone characteristic vectors for one synthetic speaker."""

    speaker_id: str
    signatures: np.ndarray  # (I, F)
    noise_std: float

    def __post_init__(self):
        self.signatures = np.asarray(self.signatures, dtype=np.float64)
        if not np.isfinite(self.signatures).all():
            raise ConfigurationError(f"signatures of {self.speaker_id!r} contain non-finite values")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0")


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: int  # 1 = target (same speaker), 0 = non-target

    def __post_init__(self):
        if self.enroll_id == self.test_id:
            raise ConfigurationError(f"trial pairs utterance {self.enroll_id!r} with itself")
        if self.label not in (0, 1):
            raise ConfigurationError(f"trial label must be 0 or 1, got {self.label!r}")


@dataclass
class TrialList:
    trials: list[Trial]

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def validate_against(self, utterance_ids) -> None:
        known = set(utterance_ids)
        for t in self.trials:
            for utt in (t.enroll_id, t.test_id):
                if utt not in known:
                    raise ConfigurationError(f"trial references unknown utterance id {utt!r}")


def _utterances_by_speaker(features) -> dict[str, list[str]]:
    """Each speaker's utterance ids, sorted."""
    by_speaker: dict[str, list[str]] = {}
    for f in features:
        by_speaker.setdefault(f.speaker_id, []).append(f.utterance_id)
    return {speaker: sorted(utts) for speaker, utts in by_speaker.items()}


@dataclass
class CorpusIndex:
    """Fast lookup over a corpus: features and alignments by utterance id."""

    features: dict[str, UtteranceFeatures]
    alignments: dict[str, PhoneAlignment]
    speakers: list[str]
    utts_by_speaker: dict[str, list[str]]

    @classmethod
    def build(cls, features, alignments) -> "CorpusIndex":
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
            alignments=align_map,
            speakers=sorted(by_speaker),
            utts_by_speaker=by_speaker,
        )

    def class_label(self, speaker_id: str) -> int:
        return self.speakers.index(speaker_id)


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
) -> tuple[list[UtteranceFeatures], list[PhoneAlignment], list[SyntheticSpeakerProfile]]:
    """Generate a deterministic synthetic corpus.

    Each speaker's signature for phone i is ``prototype[i] + speaker_spread *
    deviation[speaker, i]``; the shared prototypes make the same phone similar
    across speakers, which is what makes per-phone comparison a non-trivial
    problem. ``phone_weights`` optionally biases which phones the generator
    emits (unnormalised, one weight per inventory entry).

    Returns (features, alignments, profiles), one alignment per utterance.
    """
    if n_speakers < 1 or utts_per_speaker < 1 or feature_dim < 1:
        raise ConfigurationError("n_speakers, utts_per_speaker and feature_dim must be >= 1")
    seg_lo, seg_hi = segment_length_range
    ppu_lo, ppu_hi = phones_per_utt_range
    if seg_lo < 1 or seg_hi < seg_lo:
        raise ConfigurationError(f"invalid segment_length_range {segment_length_range}")
    if ppu_lo < 1 or ppu_hi < ppu_lo:
        raise ConfigurationError(f"invalid phones_per_utt_range {phones_per_utt_range}")
    if noise_std < 0:
        raise ConfigurationError("noise_std must be >= 0")
    if speaker_spread < 0:
        raise ConfigurationError("speaker_spread must be >= 0")
    n_phones = inventory.size
    if phone_weights is None:
        probs = np.full(n_phones, 1.0 / n_phones)
    else:
        w = np.asarray(phone_weights, dtype=np.float64)
        if w.shape != (n_phones,) or (w < 0).any() or w.sum() <= 0:
            raise ConfigurationError("phone_weights must be non-negative, one per label, sum > 0")
        probs = w / w.sum()

    # Pre-split seed streams: one for the profiles, one per utterance, so
    # utterances could be generated concurrently without changing the output.
    root = np.random.SeedSequence(seed)
    streams = root.spawn(1 + n_speakers * utts_per_speaker)
    profile_rng = np.random.default_rng(streams[0])

    prototypes = profile_rng.standard_normal((n_phones, feature_dim))
    profiles = []
    for s in range(n_speakers):
        deviation = profile_rng.standard_normal((n_phones, feature_dim))
        profiles.append(
            SyntheticSpeakerProfile(
                speaker_id=f"spk{s:03d}",
                signatures=prototypes + speaker_spread * deviation,
                noise_std=noise_std,
            )
        )

    features: list[UtteranceFeatures] = []
    alignments: list[PhoneAlignment] = []
    for s, profile in enumerate(profiles):
        for u in range(utts_per_speaker):
            rng = np.random.default_rng(streams[1 + s * utts_per_speaker + u])
            n_segments = int(rng.integers(ppu_lo, ppu_hi + 1))
            segments = []
            rows = []
            cursor = 0
            for _ in range(n_segments):
                phone = int(rng.choice(n_phones, p=probs))
                length = int(rng.integers(seg_lo, seg_hi + 1))
                noise = rng.standard_normal((length, feature_dim))
                rows.append(profile.signatures[phone] + noise_std * noise)
                segments.append((cursor, cursor + length, phone))
                cursor += length
            utt_id = f"{profile.speaker_id}_u{u:03d}"
            features.append(
                UtteranceFeatures(utt_id, profile.speaker_id, np.concatenate(rows, axis=0))
            )
            alignments.append(PhoneAlignment(utt_id, segments))
    return features, alignments, profiles


def make_trials(
    features: list[UtteranceFeatures],
    n_target: int,
    n_nontarget: int,
    seed: int,
) -> TrialList:
    """Sample labelled verification trials (with replacement across trials)."""
    if n_target < 0 or n_nontarget < 0:
        raise ConfigurationError("trial counts must be >= 0")
    by_speaker = _utterances_by_speaker(features)
    speakers = sorted(by_speaker)
    pairable = [s for s in speakers if len(by_speaker[s]) >= 2]
    if n_target > 0 and not pairable:
        raise ConfigurationError("target trials need a speaker with >= 2 utterances")
    if n_nontarget > 0 and len(speakers) < 2:
        raise ConfigurationError("non-target trials need >= 2 speakers")

    rng = np.random.default_rng(seed)
    trials: list[Trial] = []
    for _ in range(n_target):
        spk = pairable[int(rng.integers(len(pairable)))]
        a, b = rng.choice(len(by_speaker[spk]), size=2, replace=False)
        trials.append(Trial(by_speaker[spk][int(a)], by_speaker[spk][int(b)], 1))
    for _ in range(n_nontarget):
        i, j = rng.choice(len(speakers), size=2, replace=False)
        enroll = by_speaker[speakers[int(i)]]
        test = by_speaker[speakers[int(j)]]
        trials.append(
            Trial(
                enroll[int(rng.integers(len(enroll)))],
                test[int(rng.integers(len(test)))],
                0,
            )
        )
    return TrialList(trials)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

@contextmanager
def atomic_write(path):
    """Write to a temp file in the target directory, then rename into place.

    The file gets the mode ``open`` would give it (0o666 less the umask), not
    the owner-only 0o600 that ``mkstemp`` creates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_NA = "NA"


class _LineReader:
    """One phonetrait text file, streamed under the rules above; ``line_no`` is
    the 1-based number of the last line read, which ``error`` names."""

    def __init__(self, path):
        self.path = path
        self._file = open(path)
        self._numbered = enumerate(self._file, start=1)
        self.line_no = 0

    def __enter__(self) -> "_LineReader":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def __iter__(self):
        """Every remaining line, blank or not, without its newline."""
        for self.line_no, line in self._numbered:
            yield line.rstrip("\n")

    def records(self):
        """The remaining non-blank lines: blank lines between records are skipped."""
        for self.line_no, line in self._numbered:
            if line.strip():
                yield line.rstrip("\n")

    def next_line(self) -> str | None:
        """The next line, blank or not, or None at the end of the file."""
        return next(iter(self), None)

    def error(self, message: str, line_no: int | None = None) -> ParseError:
        return ParseError(self.path, self.line_no if line_no is None else line_no, message)

    def fields(self, text: str, n: int, sep: str | None = "\t") -> list[str]:
        """``text`` split on ``sep`` (None: on whitespace) into exactly ``n`` fields."""
        parts = text.split(sep)
        if len(parts) != n:
            raise self.error(f"expected {n} fields, got {len(parts)}")
        return parts

    def key_value(self, text: str, sep: str = " ") -> tuple[str, str]:
        key, found, value = text.partition(sep)
        if not found:
            raise self.error(f"expected 'key{sep}value', got {text!r}")
        return key, value

    def unique_key(self, seen, key: str, what: str = "key") -> str:
        """``key``, which must not be in ``seen`` yet (the caller records it)."""
        if key in seen:
            raise self.error(f"duplicate {what} {key!r}")
        return key

    def parse(self, cells, convert, what: str) -> list:
        """``convert`` (``int``, ``float`` or a flag's type) applied to every cell."""
        try:
            return list(map(convert, cells))
        except ValueError as exc:
            raise self.error(f"non-numeric {what} ({exc})") from None

    def block(self, n_rows: int, row_len: int, what: str) -> np.ndarray:
        """The ``n_rows`` lines after a block header, each ``row_len`` finite floats.

        A block cut short by the end of the file is reported at its last line,
        before any bad row in it; otherwise the first bad row is reported.
        Nothing is allocated from the header's counts, and finiteness is
        checked once per block, not once per cell.
        """
        rows, header_line, fault, r = [], self.line_no, None, -1
        cell_what = f"value in {what}"
        for r, text in zip(range(n_rows), self):
            if fault is not None:
                continue  # a block cut short is still reported first
            cells = text.split()
            try:
                if len(cells) != row_len:
                    raise self.error(f"expected {row_len} values, got {len(cells)}")
                rows.append(self.parse(cells, float, cell_what))
            except ParseError as exc:
                fault = exc
        if r < n_rows - 1:
            raise self.error(f"truncated {what}")
        data = np.array(rows, dtype=np.float64).reshape(len(rows), row_len)
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            bad_line = header_line + 1 + int(np.argmin(finite))
            raise self.error(f"non-finite value in {what}", bad_line)
        if fault is not None:
            raise fault
        return data

    def na_floats(self, cells: list[str], what: str) -> np.ndarray:
        """Float cells, NaN where a cell is ``NA``; every other cell must be finite."""
        try:
            row = np.array([np.nan if cell == _NA else float(cell) for cell in cells])
        except ValueError as exc:
            raise self.error(f"non-numeric {what} ({exc})") from None
        if np.count_nonzero(np.isfinite(row)) != len(cells) - cells.count(_NA):
            raise self.error(f"non-finite {what}")
        return row

    def label(self, text: str) -> int | None:
        """A trial label of a score or explanation file: 1, 0 or NA (None)."""
        if text not in ("0", "1", _NA):
            raise self.error(f"label must be 1, 0 or NA, got {text!r}")
        return None if text == _NA else int(text)


def _write_row(f, row: np.ndarray) -> None:
    """One row of floats as ``repr`` text, the exact inverse of ``_LineReader.block``."""
    f.write(" ".join(map(repr, row.tolist())) + "\n")


def save_inventory(inventory: PhoneInventory, path) -> None:
    with atomic_write(path) as f:
        for label in inventory.labels:
            f.write(label + "\n")


def load_inventory(path) -> PhoneInventory:
    labels = []
    with _LineReader(path) as lines:
        for text in lines:
            label = text.strip()
            if not label:
                raise lines.error("empty inventory label")
            if label in labels:
                raise lines.error(f"duplicate inventory label {label!r}")
            labels.append(label)
    if len(labels) < 2:
        raise ParseError(path, 1, "inventory needs at least 2 labels")
    return PhoneInventory(tuple(labels))


def save_alignments(alignments: list[PhoneAlignment], inventory: PhoneInventory, path) -> None:
    with atomic_write(path) as f:
        for align in alignments:
            for start, end, phone in align.segments:
                f.write(f"{align.utterance_id}\t{start}\t{end}\t{inventory.labels[phone]}\n")


def load_alignments(path, inventory: PhoneInventory) -> list[PhoneAlignment]:
    """Parse an alignment file; an utterance's rows must be consecutive and in order."""
    order: list[str] = []
    segments: dict[str, list[tuple[int, int, int]]] = {}
    with _LineReader(path) as lines:
        for text in lines.records():
            utt_id, start_s, end_s, label = lines.fields(text, 4)
            start, end = lines.parse((start_s, end_s), int, "frame bounds")
            if label not in inventory:
                raise lines.error(f"phone label {label!r} not in inventory")
            if utt_id not in segments:
                order.append(utt_id)
                segments[utt_id] = []
            elif order[-1] != utt_id:
                raise lines.error(f"rows of utterance {utt_id!r} are not consecutive")
            if end <= start:
                raise lines.error(f"empty segment ({start}, {end})")
            prev = segments[utt_id]
            expected = prev[-1][1] if prev else 0
            if start != expected:
                kind = "overlap" if start < expected else "gap"
                raise lines.error(f"{kind} at frame {expected} of utterance {utt_id!r}")
            prev.append((start, end, inventory.index_of(label)))
    return [PhoneAlignment(utt, segments[utt]) for utt in order]


def save_trials(trials: TrialList, path) -> None:
    with atomic_write(path) as f:
        for t in trials:
            f.write(f"{t.label}\t{t.enroll_id}\t{t.test_id}\n")


def load_trials(path) -> TrialList:
    out = []
    with _LineReader(path) as lines:
        for text in lines.records():
            label_s, enroll, test = lines.fields(text, 3)
            if label_s not in ("0", "1"):
                raise lines.error(f"trial label must be 1 or 0, got {label_s!r}")
            try:
                out.append(Trial(enroll, test, int(label_s)))
            except ConfigurationError as exc:
                raise lines.error(str(exc)) from None
    return TrialList(out)


def save_features(features: list[UtteranceFeatures], path) -> None:
    with atomic_write(path) as f:
        for feat in features:
            t, dim = feat.features.shape
            f.write(f"{feat.utterance_id} {feat.speaker_id} {t} {dim}\n")
            for row in feat.features:
                _write_row(f, row)


def load_features(path) -> list[UtteranceFeatures]:
    out = []
    with _LineReader(path) as lines:
        for text in lines.records():
            utt_id, speaker_id, t_s, f_s = lines.fields(text, 4, None)
            n_frames, dim = lines.parse((t_s, f_s), int, "T or F")
            if n_frames < 1 or dim < 1:
                raise lines.error(f"T and F must be >= 1, got {n_frames}, {dim}")
            rows = lines.block(n_frames, dim, f"feature block for {utt_id!r}")
            out.append(UtteranceFeatures(utt_id, speaker_id, rows))
    return out
