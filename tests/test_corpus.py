"""Corpus generation, validation, and file round-trips."""

import hashlib
import os
import re
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait import presets
from phonetrait.cli import main
from phonetrait.corpus import (
    CMU_PHONES,
    NON_VERBAL,
    CorpusIndex,
    PhoneAlignment,
    PhoneInventory,
    TrialList,
    UtteranceFeatures,
    bounded_draws,
    choice_words,
    default_inventory,
    generate_corpus,
    generator_words,
    load_alignments,
    load_features,
    load_inventory,
    load_trials,
    make_trials,
    save_alignments,
    save_features,
    save_inventory,
    save_trials,
)
from phonetrait.errors import ConfigurationError, DimensionError, ParseError
from phonetrait.textio import atomic_write

from _entry import package_env
from _oracles import choice_generate_corpus, choice_make_trials, ragged_corpus


def small_inventory(n_phones=6):
    return PhoneInventory(CMU_PHONES[: n_phones - 1] + (NON_VERBAL,))


def columns(trials):
    """A trial list's columns as comparable lists."""
    return trials.enroll_ids, trials.test_ids, trials.labels.tolist()


def small_corpus(seed=0, n_speakers=3, utts=3, dim=4, noise=0.1, **kwargs):
    return generate_corpus(
        n_speakers, utts, small_inventory(), dim, (2, 4), (3, 6), noise, seed, **kwargs
    )


class TestPhoneInventory:
    def test_default_has_40_labels_nonverbal_last(self):
        inv = default_inventory()
        assert inv.size == 40
        assert len(CMU_PHONES) == 39
        assert inv.labels[-1] == NON_VERBAL

    def test_index_round_trip(self):
        inv = default_inventory()
        for i, label in enumerate(inv.labels):
            assert inv.index_of(label) == i

    def test_unknown_label(self):
        with pytest.raises(ConfigurationError):
            default_inventory().index_of("QQ")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            PhoneInventory(("AA", "AA"))

    def test_too_few_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            PhoneInventory(("AA",))


class TestPhoneAlignment:
    def test_frame_phones_expands_segments(self):
        align = PhoneAlignment("u", [(0, 2, 5), (2, 3, 1)])
        assert align.n_frames == 3
        assert align.frame_phones().tolist() == [5, 5, 1]

    def test_gap_rejected(self):
        with pytest.raises(ConfigurationError, match="gap"):
            PhoneAlignment("u", [(0, 2, 0), (3, 4, 1)])

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            PhoneAlignment("u", [(0, 2, 0), (1, 4, 1)])

    def test_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            PhoneAlignment("u", [(1, 3, 0)])

    def test_empty_segment_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            PhoneAlignment("u", [(0, 0, 0)])

    def test_negative_phone_rejected(self):
        with pytest.raises(ConfigurationError):
            PhoneAlignment("u", [(0, 2, -1)])

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 9)), min_size=1, max_size=8))
    @settings(max_examples=25)
    def test_contiguous_segments_always_accepted(self, pieces):
        segments = []
        cursor = 0
        expected = []
        for length, phone in pieces:
            segments.append((cursor, cursor + length, phone))
            expected.extend([phone] * length)
            cursor += length
        align = PhoneAlignment("u", segments)
        assert align.n_frames == cursor
        assert align.frame_phones().tolist() == expected


class TestTrials:
    def test_self_trial_rejected(self):
        with pytest.raises(ConfigurationError, match="'a' with itself"):
            TrialList(["b", "a"], ["c", "a"], [0, 1])

    def test_bad_label_rejected(self):
        with pytest.raises(ConfigurationError, match="must be 1 or 0, got 2"):
            TrialList(["a", "a"], ["b", "b"], [1, 2])

    def test_validate_against_unknown_id(self):
        trials = TrialList(["a"], ["b"], [1])
        trials.validate_against({"a", "b"})
        with pytest.raises(ConfigurationError):
            trials.validate_against({"a"})

    def test_make_trials_counts_and_labels(self):
        features, _, _ = small_corpus()
        trials = make_trials(features, 5, 7, seed=1)
        assert len(trials) == 12
        assert trials.labels.tolist() == [1] * 5 + [0] * 7
        by_speaker = {f.utterance_id: f.speaker_id for f in features}
        for enroll, test, label in zip(trials.enroll_ids, trials.test_ids, trials.labels):
            assert (by_speaker[enroll] == by_speaker[test]) == (label == 1)

    def test_make_trials_deterministic(self):
        features, _, _ = small_corpus()
        a = make_trials(features, 10, 10, seed=3)
        b = make_trials(features, 10, 10, seed=3)
        assert columns(a) == columns(b)

    def test_single_speaker_nontarget_impossible(self):
        features, _, _ = small_corpus(n_speakers=1)
        with pytest.raises(ConfigurationError):
            make_trials(features, 0, 1, seed=0)

    def test_single_utterance_target_impossible(self):
        features, _, _ = small_corpus(utts=1)
        with pytest.raises(ConfigurationError):
            make_trials(features, 1, 0, seed=0)


def twin_generators(seed, offset):
    """Two generators in one state, each ``offset`` 32-bit words into its
    stream, so an odd offset leaves PCG64 a buffered half-word."""
    twins = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in twins:
        rng.integers(2, size=offset)
    return twins


def counted(words, log):
    """``words``, each also appended to ``log`` as it is read."""
    for word in words:
        log.append(word)
        yield word


# Bounds for ``below``: a one-wide range reads no word, and near 3 * 2**30
# Lemire's method rejects about a quarter of the words it reads.
BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]),
    st.integers(1, 2 ** 32),
    st.integers(3 * 2 ** 30 - 64, 3 * 2 ** 30 + 64),
)


class TestBoundedDraws:
    """``bounded_draws`` against NumPy's own calls on a twin generator: the
    same integers, and the generator left in the same state."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 63), st.integers(0, 3), st.lists(BOUNDS, min_size=1, max_size=40))
    def test_below_matches_integers(self, seed, offset, bounds):
        numpy_rng, words_rng = twin_generators(seed, offset)
        below, _ = bounded_draws(generator_words(words_rng, 0))
        assert [below(n) for n in bounds] == [int(numpy_rng.integers(n)) for n in bounds]
        assert words_rng.bit_generator.state == numpy_rng.bit_generator.state

    def test_rejection_heavy_bound_reads_extra_words(self):
        read = []
        below, _ = bounded_draws(counted(generator_words(np.random.default_rng(3), 0), read))
        rng = np.random.default_rng(3)
        n = 3 * 2 ** 30 + 1
        assert [below(n) for _ in range(200)] == rng.integers(n, size=200).tolist()
        assert len(read) > 220
        before = len(read)
        assert below(1) == 0 and len(read) == before  # a one-wide range reads no word

    @pytest.mark.parametrize("n, k", [
        (20000, 300),  # Floyd, k <= n // 50
        (20000, 1000),  # the tail shuffle
        (20000, 20000),
        (10001, 201),
        (7, 7), (2, 2), (1, 1), (10, 2), (5, 0), (3, 1),
    ])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), offset=st.integers(0, 1))
    def test_choice_matches_generator_choice(self, n, k, seed, offset):
        numpy_rng, words_rng = twin_generators(seed, offset)
        _, choice = bounded_draws(generator_words(words_rng, 0))
        assert choice(n, k) == numpy_rng.choice(n, size=k, replace=False).tolist()
        assert choice(n, k) == numpy_rng.choice(n, size=k, replace=False).tolist()
        assert words_rng.bit_generator.state == numpy_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 63), st.lists(
        st.tuples(st.integers(1, 100), st.integers(0, 100)).map(lambda nk: (nk[0], min(nk))),
        min_size=1, max_size=5))
    def test_choice_words_counts_the_words_read(self, seed, shapes):
        # Ranges of at most 100 reject a word with odds below 1e-7.
        read = []
        _, choice = bounded_draws(counted(generator_words(np.random.default_rng(seed), 0), read))
        for n, k in shapes:
            choice(n, k)
        assert len(read) == sum(choice_words([n], k) for n, k in shapes)

    @pytest.mark.parametrize("n, k", [(20000, 1000), (20000, 20000), (10001, 201)])
    def test_choice_words_counts_the_tail_shuffle(self, n, k):
        # No word is rejected at this seed; with ranges at most n wide, fewer
        # than one word in 2 * 10**5 would be.
        read = []
        _, choice = bounded_draws(counted(generator_words(np.random.default_rng(1), 0), read))
        choice(n, k)
        assert len(read) == choice_words([n], k)

    def test_generator_words_draw_first_then_blocks(self):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        words = generator_words(rng, 3, 4)
        assert [next(words) for _ in range(3)] == twin.integers(0, 2 ** 32, 3, np.uint64).tolist()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert next(words) == int(twin.integers(0, 2 ** 32, 4, np.uint64)[0])
        assert rng.bit_generator.state == twin.bit_generator.state


# Speakers with one utterance (no target trial), two and many.
UTT_COUNTS = st.lists(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)),
                      min_size=1, max_size=8)


class TestTrialsMatchPerCallOracle:
    @settings(max_examples=60, deadline=None)
    @given(UTT_COUNTS, st.integers(0, 30), st.integers(0, 30), st.integers(0, 2 ** 63))
    def test_random_corpora(self, utt_counts, n_target, n_nontarget, seed):
        if max(utt_counts) < 2:
            n_target = 0
        if len(utt_counts) < 2:
            n_nontarget = 0
        features, _ = ragged_corpus(utt_counts)
        trials = make_trials(features, n_target, n_nontarget, seed)
        assert columns(trials) == choice_make_trials(features, n_target, n_nontarget, seed)

    @pytest.mark.parametrize("utt_counts", [[1, 2, 60], [2, 2], [1, 1, 3], [5], [30] * 20])
    def test_lists_longer_than_a_word_draw(self, utt_counts):
        features, _ = ragged_corpus(utt_counts)
        n_nontarget = 2500 if len(utt_counts) > 1 else 0
        trials = make_trials(features, 2500, n_nontarget, seed=9)
        assert columns(trials) == choice_make_trials(features, 2500, n_nontarget, seed=9)


class TestGenerateCorpus:
    def test_counts(self):
        features, alignments, signatures = generate_corpus(
            20, 10, small_inventory(), 4, (2, 3), (3, 4), 0.1, seed=0
        )
        assert len(features) == 200
        assert len(alignments) == 200
        assert signatures.shape == (20, 6, 4)

    def test_alignment_covers_features(self):
        features, alignments, _ = small_corpus()
        by_id = {a.utterance_id: a for a in alignments}
        for f in features:
            assert by_id[f.utterance_id].n_frames == f.n_frames

    def test_zero_noise_frames_equal_signature(self):
        features, alignments, signatures = generate_corpus(
            1, 1, small_inventory(), 4, (3, 3), (1, 1), 0.0, seed=9
        )
        phone = alignments[0].segments[0, 2]
        expected = signatures[0, phone]
        for row in features[0].features:
            assert np.array_equal(row, expected)

    def test_zero_noise_same_phone_identical_across_utterances(self):
        features, alignments, _ = small_corpus(noise=0.0, utts=4)
        rows_by_phone = {}
        for f, a in zip(features, alignments):
            if f.speaker_id != "spk000":
                continue
            for t, phone in enumerate(a.frame_phones()):
                rows_by_phone.setdefault(int(phone), []).append(f.features[t])
        assert len(rows_by_phone) > 1
        for rows in rows_by_phone.values():
            for row in rows[1:]:
                assert np.array_equal(row, rows[0])

    def test_deterministic_per_seed(self):
        a, _, _ = small_corpus(seed=5)
        b, _, _ = small_corpus(seed=5)
        c, _, _ = small_corpus(seed=6)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.features, fb.features)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_phone_weights_bias_emission(self):
        inv = small_inventory()
        weights = np.ones(inv.size)
        weights[0] = 0.0
        _, alignments, _ = generate_corpus(
            4, 4, inv, 3, (2, 3), (4, 8), 0.1, seed=2, phone_weights=weights
        )
        for a in alignments:
            assert 0 not in a.frame_phones()

    def test_invalid_arguments(self):
        inv = small_inventory()
        with pytest.raises(ConfigurationError):
            generate_corpus(0, 1, inv, 4, (2, 3), (3, 4), 0.1, seed=0)
        with pytest.raises(ConfigurationError):
            generate_corpus(1, 1, inv, 4, (3, 2), (3, 4), 0.1, seed=0)
        with pytest.raises(ConfigurationError):
            generate_corpus(1, 1, inv, 4, (2, 3), (0, 4), 0.1, seed=0)
        with pytest.raises(ConfigurationError):
            generate_corpus(1, 1, inv, 4, (2, 3), (3, 4), -0.1, seed=0)
        with pytest.raises(ConfigurationError):
            generate_corpus(1, 1, inv, 4, (2, 3), (3, 4), 0.1, seed=0, phone_weights=np.ones(3))

    def test_speaker_spread_controls_speaker_similarity(self):
        _, _, tight = small_corpus(seed=1, speaker_spread=0.0)
        _, _, loose = small_corpus(seed=1, speaker_spread=1.0)
        tight_gap = np.abs(tight[0] - tight[1]).max()
        loose_gap = np.abs(loose[0] - loose[1]).max()
        assert tight_gap == 0.0
        assert loose_gap > 0.0


def assert_matches_choice_oracle(**kwargs):
    """Features byte-equal and segments identical to one ``choice`` per segment."""
    features, alignments, _ = generate_corpus(**kwargs)
    expected = choice_generate_corpus(**kwargs)
    assert len(features) == len(alignments) == len(expected)
    for f, a, (utt, speaker, frames, segments) in zip(features, alignments, expected):
        assert (f.utterance_id, f.speaker_id, a.utterance_id) == (utt, speaker, utt)
        assert f.features.shape == frames.shape
        assert f.features.tobytes() == frames.tobytes()
        assert a.segments.dtype == np.int64
        assert list(map(tuple, a.segments.tolist())) == segments


@st.composite
def generator_arguments(draw):
    n_phones = draw(st.integers(2, 7))
    seg_lo = draw(st.integers(1, 3))
    ppu_lo = draw(st.integers(1, 4))
    weights = draw(st.one_of(
        st.none(),
        # Zero entries included; at least one weight is positive.
        st.lists(st.sampled_from([0.0, 0.02, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0),
                 min_size=n_phones, max_size=n_phones).filter(lambda w: sum(w) > 0),
        # A single non-zero weight: every segment is that phone.
        st.integers(0, n_phones - 1).map(lambda k: np.eye(n_phones)[k] * 0.3),
    ))
    return dict(
        n_speakers=draw(st.integers(1, 3)),
        utts_per_speaker=draw(st.integers(1, 3)),
        inventory=small_inventory(n_phones),
        feature_dim=draw(st.integers(1, 4)),
        segment_length_range=(seg_lo, seg_lo + draw(st.integers(0, 3))),
        phones_per_utt_range=(ppu_lo, ppu_lo + draw(st.integers(0, 4))),
        noise_std=draw(st.sampled_from([0.0, 0.28, 1.3])),
        seed=draw(st.integers(0, 2**32 - 1)),
        speaker_spread=draw(st.sampled_from([0.0, 0.25, 0.5])),
        phone_weights=None if weights is None else np.asarray(weights, dtype=np.float64),
    )


class TestGeneratorMatchesChoiceOracle:
    # The phones come from a CDF built once; ``Generator.choice`` rebuilds the
    # same CDF per call. A NumPy whose ``choice`` draws differently fails here.
    @settings(max_examples=80, deadline=None)
    @given(generator_arguments())
    def test_random_arguments(self, kwargs):
        assert_matches_choice_oracle(**kwargs)

    @pytest.mark.parametrize("segment_length_range, phones_per_utt_range", [
        ((1, 1), (3, 6)),  # one-frame segments
        ((2, 4), (1, 1)),  # one-phone utterances
        ((1, 1), (1, 1)),  # one frame, one phone
    ])
    def test_shortest_utterances(self, segment_length_range, phones_per_utt_range):
        assert_matches_choice_oracle(
            n_speakers=2, utts_per_speaker=3, inventory=small_inventory(), feature_dim=3,
            segment_length_range=segment_length_range,
            phones_per_utt_range=phones_per_utt_range, noise_std=0.3, seed=8,
        )

    def test_desk_preset(self):
        assert_matches_choice_oracle(**presets.desk_corpus_kwargs(default_inventory()))


class TestUtteranceFeatures:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            UtteranceFeatures("u", "s", np.zeros((0, 3)))
        with pytest.raises(DimensionError):
            UtteranceFeatures("u", "s", np.zeros(3))

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            UtteranceFeatures("u", "s", bad)


class TestCorpusIndex:
    def test_build_and_lookup(self):
        features, alignments, _ = small_corpus()
        index = CorpusIndex.build(features, alignments)
        assert index.speakers == sorted({f.speaker_id for f in features})
        assert index.class_label(index.speakers[1]) == 1
        assert len(index.features) == len(features)
        for speaker, utts in index.utts_by_speaker.items():
            assert utts == sorted(utts)
            for u in utts:
                assert index.features[u].speaker_id == speaker

    def test_mismatched_ids_rejected(self):
        features, alignments, _ = small_corpus()
        with pytest.raises(ConfigurationError):
            CorpusIndex.build(features, alignments[:-1])

    def test_frame_count_mismatch_rejected(self):
        features, alignments, _ = small_corpus()
        bad = PhoneAlignment(alignments[0].utterance_id, [(0, 1, 0)])
        with pytest.raises(DimensionError):
            CorpusIndex.build(features, [bad] + alignments[1:])

    def test_duplicate_utterance_ids_rejected(self):
        features, alignments, _ = small_corpus()
        with pytest.raises(ConfigurationError):
            CorpusIndex.build(features + [features[0]], alignments + [alignments[0]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError, match="no utterances"):
            CorpusIndex.build([], [])

    def test_feature_width_mismatch_names_the_utterance(self):
        # pack concatenates every utterance's frames, so all must be as wide.
        features, alignments, _ = small_corpus()
        last = features[-1]
        wider = UtteranceFeatures(last.utterance_id, last.speaker_id,
                                  np.ones((last.n_frames, last.dim + 1)))
        with pytest.raises(DimensionError, match=f"features of {last.utterance_id!r} are 5-dim"):
            CorpusIndex.build(features[:-1] + [wider], alignments)


@pytest.fixture
def restore_umask():
    previous = os.umask(0o022)
    yield
    os.umask(previous)


class TestAtomicWrite:
    def test_mode_follows_umask(self, tmp_path, restore_umask):
        os.umask(0o022)
        with atomic_write(tmp_path / "a.txt") as f:
            f.write("x\n")
        assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == 0o644
        os.umask(0o077)
        with atomic_write(tmp_path / "b.txt") as f:
            f.write("x\n")
        assert stat.S_IMODE((tmp_path / "b.txt").stat().st_mode) == 0o600


class TestFileRoundTrips:
    def test_inventory(self, tmp_path):
        path = tmp_path / "inv.txt"
        save_inventory(default_inventory(), path)
        assert load_inventory(path).labels == default_inventory().labels

    @pytest.mark.parametrize("bad", [" AE", "AE\t", "C\nD", "C\rD", "C\tD", "", "C,D"],
                             ids=["padded", "trailing_tab", "newline", "carriage_return", "tab",
                                  "empty", "comma"])
    def test_inventory_writer_refuses_labels_that_do_not_read_back(self, tmp_path, bad):
        # load_inventory strips each line, load_alignments splits rows on tabs
        # and an F-ratio row splits on commas: (" AE", "B", "C\nD") would read
        # back as ("AE", "B", "C", "D"). PhoneInventory itself refuses them.
        with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
            save_inventory(PhoneInventory(("A", bad, "B\nE")), tmp_path / "inv.txt")
        assert list(tmp_path.iterdir()) == []

    def test_inventory_duplicate_label(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("AA\nAA\n")
        with pytest.raises(ParseError, match=r"inv\.txt:2"):
            load_inventory(path)

    def test_large_inventory_loads_in_linear_time(self, tmp_path):
        # A repeat check against a list of the labels read so far took 17 s
        # for these 40,000 labels; a dict takes a fraction of a second.
        labels = tuple(f"P{k}" for k in range(40_000))
        path = tmp_path / "inv.txt"
        save_inventory(PhoneInventory(labels), path)
        start = time.perf_counter()
        assert load_inventory(path).labels == labels
        assert time.perf_counter() - start < 5.0
        path.write_text("\n".join(labels[:3] + labels[1:2]) + "\n")
        with pytest.raises(ParseError, match=r"inv\.txt:4: duplicate inventory label 'P1'$"):
            load_inventory(path)

    def test_features_round_trip_is_exact(self, tmp_path):
        features, _, _ = small_corpus()
        path = tmp_path / "features.txt"
        save_features(features, path)
        loaded = load_features(path)
        assert len(loaded) == len(features)
        for a, b in zip(features, loaded):
            assert a.utterance_id == b.utterance_id
            assert a.speaker_id == b.speaker_id
            assert np.array_equal(a.features, b.features)
        save_features(loaded, tmp_path / "again.txt")
        assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()

    def test_features_round_trip_as_utf8_under_an_ascii_locale(self, tmp_path):
        # Written here, read and written again by a child whose locale
        # encoding is ASCII: files are UTF-8 whatever the locale.
        path = tmp_path / "features.txt"
        save_features([UtteranceFeatures("spk\u00e9_u0", "spk\u00e9", np.eye(2))], path)
        assert b"spk\xc3\xa9_u0" in path.read_bytes()
        env = package_env()
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from phonetrait.corpus import load_features, "
             "save_features; save_features(load_features(sys.argv[1]), sys.argv[2])",
             str(path), str(tmp_path / "again.txt")],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_features_truncated(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("u s 3 2\n1.0 2.0\n")
        with pytest.raises(ParseError, match="truncated"):
            load_features(path)

    def test_features_bad_row_width(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("u s 1 3\n1.0 2.0\n")
        with pytest.raises(ParseError, match=r"features\.txt:2"):
            load_features(path)

    def test_alignments_round_trip(self, tmp_path):
        inv = small_inventory()
        _, alignments, _ = small_corpus()
        path = tmp_path / "align.txt"
        save_alignments(alignments, inv, path)
        loaded = load_alignments(path, inv)
        assert [a.segments.tolist() for a in loaded] == [a.segments.tolist() for a in alignments]
        assert [a.utterance_id for a in loaded] == [a.utterance_id for a in alignments]

    def test_alignment_gap_names_line(self, tmp_path):
        inv = small_inventory()
        path = tmp_path / "align.txt"
        path.write_text("u\t0\t2\tAA\nu\t3\t4\tAE\n")
        with pytest.raises(ParseError, match="align.txt:2"):
            load_alignments(path, inv)

    def test_alignment_unknown_label(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("u\t0\t2\tZZZ\n")
        with pytest.raises(ParseError, match="ZZZ"):
            load_alignments(path, small_inventory())

    def test_alignment_interleaved_utterances_rejected(self, tmp_path):
        inv = small_inventory()
        path = tmp_path / "align.txt"
        path.write_text("u\t0\t2\tAA\nv\t0\t2\tAA\nu\t2\t4\tAE\n")
        with pytest.raises(ParseError, match="consecutive"):
            load_alignments(path, inv)

    def test_trials_round_trip(self, tmp_path):
        features, _, _ = small_corpus()
        # Only a tab separates trial fields, so a space is part of an id.
        made = make_trials(features, 4, 4, seed=0)
        trials = TrialList(made.enroll_ids + ["a b"], made.test_ids + ["c"],
                           made.labels.tolist() + [1])
        path = tmp_path / "trials.txt"
        save_trials(trials, path)
        assert columns(load_trials(path)) == columns(trials)

    @pytest.mark.parametrize("utt, speaker", [
        ("utt a", "spk"), ("utt", "spk\tb"), ("", "spk"), ("u\nv", "spk"), ("u\u00a0v", "spk"),
    ], ids=["space", "tab_in_speaker", "empty", "newline", "no_break_space"])
    def test_features_writer_refuses_ids_the_loader_splits(self, tmp_path, utt, speaker):
        # load_features splits its header on any whitespace.
        with pytest.raises(ConfigurationError, match="whitespace"):
            save_features([UtteranceFeatures(utt, speaker, np.eye(2))], tmp_path / "f.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("enroll, test", [("a\tx", "b"), ("a", "b\nx"), ("a", "b\rx")],
                             ids=["tab", "newline", "carriage_return"])
    def test_trials_writer_refuses_ids_the_loader_splits(self, tmp_path, enroll, test):
        with pytest.raises(ConfigurationError, match="tab or line break"):
            save_trials(TrialList(["c", enroll], ["d", test], [0, 1]), tmp_path / "t.txt")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ConfigurationError, match="tab or line break"):
            save_alignments([PhoneAlignment(enroll + test, [(0, 2, 0)])],
                            small_inventory(), tmp_path / "a.txt")
        assert list(tmp_path.iterdir()) == []

    def test_trials_bad_label(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("2\ta\tb\n")
        with pytest.raises(ParseError, match=r"trials\.txt:1: trial label must be 1 or 0, got '2'"):
            load_trials(path)

    def test_trials_self_pair_names_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1\ta\tb\n0\tc\tc\n")
        with pytest.raises(ParseError,
                           match=r"trials\.txt:2: trial pairs utterance 'c' with itself"):
            load_trials(path)


# sha256 of each file ``gen-corpus`` writes at its defaults (NumPy 2.4.6). The
# same on x86 under the default, Haswell and Sandybridge OpenBLAS kernels and
# with NumPy's AVX-512 dispatch disabled: generation is elementwise, no BLAS.
DESK_CORPUS_DIGESTS = {
    "inventory.txt": "a84efa309c837b71150c3989da8b4c097527842da4aeda78ab6099a0f6074f97",
    "features.txt": "ea631b6e3abed3bfa2de09048ab5487486cb340b53db6123066e6facfb6ad2b9",
    "alignments.txt": "7ad9bfc7adaa32b70e903ee354fb8c4444fb1488b0f9f9a8461008273c14fed2",
    "trials.txt": "96efeaae70ff41ac90921402f531a1aaeb5cdf12141d540f6cd6825575815d13",
}


# sha256 of ``trials.txt`` from ``gen-corpus --n-target 2000 --n-nontarget
# 2000``, the list the score-chain benchmark scores (NumPy 2.4.6).
BENCH_TRIALS_DIGEST = "eae90dc0efaa51b6dea65b5256ba450726950b19f25ddfafc3397c061556fa08"


def test_desk_corpus_files_match_recorded_digests(tmp_path):
    assert main(["gen-corpus", "--out-dir", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DESK_CORPUS_DIGESTS}
    assert digests == DESK_CORPUS_DIGESTS


def test_benchmark_trial_list_matches_recorded_digest(tmp_path):
    assert main(["gen-corpus", "--out-dir", str(tmp_path),
                 "--n-target", "2000", "--n-nontarget", "2000"]) == 0
    assert hashlib.sha256((tmp_path / "trials.txt").read_bytes()).hexdigest() \
        == BENCH_TRIALS_DIGEST
