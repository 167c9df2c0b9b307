"""Trial scoring: final cosine, per-phone evidence, score file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait.corpus import (
    CMU_PHONES,
    NON_VERBAL,
    CorpusIndex,
    PhoneAlignment,
    PhoneInventory,
    Trial,
    TrialList,
    UtteranceFeatures,
    generate_corpus,
    make_trials,
)
from phonetrait.encoder import EncoderConfig, EncoderParams, LayerSpec
from phonetrait.errors import (
    ConfigurationError,
    NumericGuardError,
    ParseError,
    UndefinedEvidenceError,
)
from phonetrait.scoring import (
    _UTTERANCE_CHUNK,
    ScoreRecord,
    TraitSimilarityVector,
    evidence_score,
    load_scores,
    save_scores,
    score_trials,
)
from phonetrait.trait_layer import ProjectionParams
from phonetrait.training import ModelConfig, ModelState, init_model

from _oracles import naive_cosine, per_trial_scores


def tiny_inventory():
    return PhoneInventory(CMU_PHONES[:5] + (NON_VERBAL,))


def scored_records(seed=0):
    inventory = tiny_inventory()
    features, alignments, _ = generate_corpus(
        3, 3, inventory, 3, (2, 4), (4, 8), 0.3, seed
    )
    index = CorpusIndex.build(features, alignments)
    model_cfg = ModelConfig(EncoderConfig(3, (LayerSpec((-1, 0, 1), 4, "relu"),)), 3)
    state = init_model(model_cfg, len(index.speakers), seed=1)
    trials = make_trials(features, 6, 6, seed=2)
    return state, index, trials, inventory


def two_utterances(features_a, segments_a, features_b, segments_b):
    """Utterances "a" and "b" under an identity encoder and projection."""
    features_a, features_b = np.asarray(features_a), np.asarray(features_b)
    dim = features_a.shape[1]
    index = CorpusIndex.build(
        [UtteranceFeatures("a", "s0", features_a), UtteranceFeatures("b", "s1", features_b)],
        [PhoneAlignment("a", segments_a), PhoneAlignment("b", segments_b)],
    )
    encoder = EncoderParams(
        EncoderConfig(dim, (LayerSpec((0,), dim, "identity"),)),
        [np.eye(dim)], [np.zeros(dim)],
    )
    state = ModelState(
        encoder,
        ProjectionParams(np.eye(2 * dim), np.zeros(2 * dim)),
        class_weights=np.ones((2, 2 * dim)),
    )
    return state, index


@st.composite
def scoring_cases(draw):
    """Random utterances and trials; more than one chunk of trials, and of
    utterances, at times.

    Utterances "x" (phone 0), "y" (phone 1) and "z" (phones 0 and 1) add a
    disjoint-phone trial (x, y) and a one-shared-phone trial (x, z).
    """
    n_phones = draw(st.integers(2, 40))
    trait_dim = draw(st.integers(1, 16))
    n_utterances = draw(st.integers(2, 80))
    n_trials = draw(st.one_of(st.integers(0, 40), st.integers(120, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    input_dim, embedding_dim = 3, int(rng.integers(1, 9))

    phone_lists = [
        rng.choice(n_phones, size=rng.integers(1, n_phones + 1), replace=False)
        for _ in range(n_utterances)
    ]
    ids = [f"u{u}" for u in range(n_utterances)] + ["x", "y", "z"]
    phone_lists += [[0], [1], [0, 1]]
    features, alignments = [], []
    for utt, phones in zip(ids, phone_lists):
        lengths = rng.integers(1, 4, size=len(phones))
        ends = np.cumsum(lengths)
        alignments.append(PhoneAlignment(utt, list(zip(ends - lengths, ends, phones))))
        scale = 10.0 ** rng.uniform(-3, 3)
        features.append(UtteranceFeatures(utt, utt, scale * rng.normal(size=(ends[-1], input_dim))))
    index = CorpusIndex.build(features, alignments)

    encoder = EncoderParams(
        EncoderConfig(input_dim, (LayerSpec((-1, 0, 1), trait_dim, "identity"),)),
        [rng.normal(size=(trait_dim, 3 * input_dim))], [rng.normal(size=trait_dim)],
    )
    projection = ProjectionParams(rng.normal(size=(embedding_dim, 2 * trait_dim)),
                                  rng.normal(size=embedding_dim))
    state = ModelState(encoder, projection, class_weights=np.ones((2, embedding_dim)))

    trials = []
    for _ in range(n_trials):
        e, t = rng.choice(len(ids), size=2, replace=False)
        trials.append(Trial(ids[e], ids[t], int(rng.integers(0, 2))))
    for pair in (("x", "y"), ("x", "z")):
        trials.insert(int(rng.integers(0, len(trials) + 1)), Trial(*pair, 1))
    return state, index, TrialList(trials), n_phones


class TestTraitSimilarity:
    def test_defined_only_where_both_present(self):
        # "a" holds phones 0 and 1, "b" phones 0 and 2: only phone 0 is shared.
        state, index = two_utterances([[1.0, 0.0], [1.0, 1.0]], [(0, 1, 0), (1, 2, 1)],
                                      [[0.0, 1.0], [9.0, 9.0]], [(0, 1, 0), (1, 2, 2)])
        sim = score_trials(state, index, TrialList([Trial("a", "b", 0)]), 3)[0].similarity
        assert sim.defined.tolist() == [True, False, False]
        assert abs(sim.values[0]) < 1e-15
        assert np.isnan(sim.values[1]) and np.isnan(sim.values[2])
        assert sim.n_defined == 1

    def test_values_match_per_phone_cosine(self):
        # One frame per phone under identity maps: each trait is its frame.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        segments = [(i, i + 1, i) for i in range(4)]
        state, index = two_utterances(a, segments, b, segments)
        sim = score_trials(state, index, TrialList([Trial("a", "b", 0)]), 4)[0].similarity
        for i in range(4):
            assert abs(sim.values[i] - naive_cosine(a[i], b[i])) < 1e-12

    def test_evidence_is_mean_of_defined(self):
        sim = TraitSimilarityVector(
            np.array([0.5, np.nan, 0.1]), np.array([True, False, True])
        )
        assert abs(evidence_score(sim) - 0.3) < 1e-12

    def test_evidence_undefined(self):
        sim = TraitSimilarityVector(np.full(3, np.nan), np.zeros(3, dtype=bool))
        with pytest.raises(UndefinedEvidenceError):
            evidence_score(sim)


class TestScoreTrials:
    def test_labels_and_shapes_propagate(self):
        state, index, trials, inventory = scored_records()
        records = score_trials(state, index, trials, inventory.size)
        assert len(records) == len(trials)
        for record, trial in zip(records, trials):
            assert (record.enroll_id, record.test_id) == (trial.enroll_id, trial.test_id)
            assert record.label == trial.label
            assert record.similarity.values.shape == (inventory.size,)
            assert np.isfinite(record.final)

    @given(scoring_cases())
    @settings(max_examples=25, deadline=None)
    def test_batched_scores_match_per_trial_oracle(self, case):
        state, index, trials, n_phones = case
        records = score_trials(state, index, trials, n_phones)
        expected = per_trial_scores(state, index, trials, n_phones)
        assert len(records) == len(expected)
        for record, (final, evidence, values, defined) in zip(records, expected):
            assert record.final == final
            assert record.evidence == evidence
            assert np.array_equal(record.similarity.values, values, equal_nan=True)
            assert np.array_equal(record.similarity.defined, defined)
        shared = [r.similarity.n_defined for r in records]
        assert 0 in shared and 1 in shared

    def test_several_utterance_chunks_match_per_trial_oracle(self):
        # 70 utterances: two full packs of _UTTERANCE_CHUNK and a partial one.
        inventory = tiny_inventory()
        features, alignments, _ = generate_corpus(10, 7, inventory, 3, (1, 4), (2, 9), 0.3, 4)
        index = CorpusIndex.build(features, alignments)
        model_cfg = ModelConfig(EncoderConfig(3, (LayerSpec((-1, 0, 1), 4, "relu"),)), 3)
        state = init_model(model_cfg, len(index.speakers), seed=5)
        trials = make_trials(features, 300, 300, seed=6)
        distinct = {utt for trial in trials for utt in (trial.enroll_id, trial.test_id)}
        assert len(distinct) > 2 * _UTTERANCE_CHUNK
        records = score_trials(state, index, trials, inventory.size)
        expected = per_trial_scores(state, index, trials, inventory.size)
        for record, (final, evidence, values, defined) in zip(records, expected, strict=True):
            assert record.final == final
            assert record.evidence == evidence
            assert np.array_equal(record.similarity.values, values, equal_nan=True)
            assert np.array_equal(record.similarity.defined, defined)

    def test_unknown_utterance_rejected(self):
        state, index, _, inventory = scored_records()
        trials = TrialList([Trial("nope", list(index.features)[0], 0)])
        with pytest.raises(ConfigurationError):
            score_trials(state, index, trials, inventory.size)

    def test_disjoint_phones_give_none_evidence(self):
        # Two utterances with no phone in common: final still defined,
        # evidence is not.
        state, index = two_utterances(np.full((2, 2), 2.0), [(0, 2, 0)],
                                      np.full((2, 2), 3.0), [(0, 2, 1)])
        records = score_trials(state, index, TrialList([Trial("a", "b", 0)]), 3)
        assert records[0].evidence is None
        assert records[0].similarity.n_defined == 0
        assert np.isfinite(records[0].final)

    def test_near_zero_shared_trait_is_a_numeric_error(self):
        # Phone 0 of "a" has a nonzero trait, so it is present, but its norm
        # is below the floor; "b" shares phone 0.
        features_a = np.array([[1e-14, 0.0], [1.0, 2.0]])
        state, index = two_utterances(features_a, [(0, 1, 0), (1, 2, 1)],
                                      np.full((2, 2), 3.0), [(0, 2, 0)])
        with pytest.raises(NumericGuardError):
            score_trials(state, index, TrialList([Trial("a", "b", 0)]), 3)

    def test_zero_embedding_is_a_numeric_error(self):
        state, index = two_utterances(np.full((2, 2), 2.0), [(0, 2, 0)],
                                      np.full((2, 2), 3.0), [(0, 2, 0)])
        state.projection = ProjectionParams(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(NumericGuardError):
            score_trials(state, index, TrialList([Trial("a", "b", 0)]), 3)


class TestScoreFileIO:
    def test_round_trip_exact(self, tmp_path):
        state, index, trials, inventory = scored_records()
        records = score_trials(state, index, trials, inventory.size)
        path = tmp_path / "scores.txt"
        save_scores(records, path)
        loaded = load_scores(path, inventory.size)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert (a.enroll_id, a.test_id, a.label) == (b.enroll_id, b.test_id, b.label)
            assert a.final == b.final
            assert a.evidence == b.evidence
            assert np.array_equal(a.similarity.defined, b.similarity.defined)
            assert np.array_equal(
                a.similarity.values[a.similarity.defined],
                b.similarity.values[b.similarity.defined],
            )
        save_scores(loaded, tmp_path / "again.txt")
        assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()

    def test_n_phones_inferred_from_first_row(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\t1\t0.5\t0.25\t0.25\tNA\t0.5\n")
        records = load_scores(path)
        assert records[0].similarity.values.shape == (3,)
        assert records[0].similarity.defined.tolist() == [True, False, True]

    def test_na_label_and_evidence(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\tNA\t0.5\tNA\tNA\tNA\n")
        record = load_scores(path)[0]
        assert record.label is None
        assert record.evidence is None

    def test_too_few_fields(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\t1\t0.5\n")
        with pytest.raises(ParseError, match=r"scores\.txt:1: expected 6 fields, got 4"):
            load_scores(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\t1\t0.5\t0.5\t1.0\na\tc\t0\t0.5\t0.5\t1.0\t1.0\n")
        with pytest.raises(ParseError, match="scores\\.txt:2"):
            load_scores(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\t7\t0.5\t0.5\t1.0\n")
        with pytest.raises(ParseError, match="label"):
            load_scores(path)

    def test_bad_similarity_value(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\t1\t0.5\t0.5\tx\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_scores(path)
