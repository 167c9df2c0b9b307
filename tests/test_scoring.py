"""Trial scoring: final cosine, per-phone evidence, score file round-trips."""

import re

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
    TrialList,
    UtteranceFeatures,
    generate_corpus,
    make_trials,
)
from phonetrait.encoder import EncoderConfig, EncoderParams, LayerSpec
from phonetrait.errors import ConfigurationError, DimensionError, NumericGuardError, ParseError
from phonetrait.scoring import (
    _UTTERANCE_CHUNK,
    ScoreTable,
    load_scores,
    save_scores,
    score_trials,
)
from phonetrait.trait_layer import ProjectionParams
from phonetrait.training import ModelConfig, ModelState, init_model

from _oracles import assert_matches, edge_shape, naive_cosine, per_trial_scores


def tiny_inventory():
    return PhoneInventory(CMU_PHONES[:5] + (NON_VERBAL,))


def scored_table(seed=0):
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


def assert_matches_oracle(table, expected, exact=True):
    """Agreement with ``per_trial_scores`` on final, evidence (NaN for no shared
    phone) and the per-phone similarities: bit for bit if ``exact``, else
    within ``EDGE_TOLERANCE``; NaN exactly where the oracle has no value."""
    finals, evidences, values, defined = zip(*expected, strict=True)
    evidences = [np.nan if e is None else e for e in evidences]
    assert_matches(table.final, np.array(finals), exact, "final")
    assert_matches(table.evidence, np.array(evidences), exact, "evidence")
    assert_matches(table.similarity, np.array(values), exact, "similarity")
    assert np.array_equal(~np.isnan(table.similarity), np.array(defined))


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
        trials.append((ids[e], ids[t], int(rng.integers(0, 2))))
    for pair in (("x", "y"), ("x", "z")):
        trials.insert(int(rng.integers(0, len(trials) + 1)), (*pair, 1))
    return state, index, TrialList(*map(list, zip(*trials))), n_phones


class TestTraitSimilarity:
    def test_defined_only_where_both_present(self):
        # "a" holds phones 0 and 1, "b" phones 0 and 2: only phone 0 is shared.
        state, index = two_utterances([[1.0, 0.0], [1.0, 1.0]], [(0, 1, 0), (1, 2, 1)],
                                      [[0.0, 1.0], [9.0, 9.0]], [(0, 1, 0), (1, 2, 2)])
        table = score_trials(state, index, TrialList(["a"], ["b"], [0]), 3)
        assert table.similarity.shape == (1, 3)
        assert abs(table.similarity[0, 0]) < 1e-15
        assert np.isnan(table.similarity[0, 1:]).all()
        assert table.evidence[0] == table.similarity[0, 0]

    def test_values_match_per_phone_cosine(self):
        # One frame per phone under identity maps: each trait is its frame.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        segments = [(i, i + 1, i) for i in range(4)]
        state, index = two_utterances(a, segments, b, segments)
        sim = score_trials(state, index, TrialList(["a"], ["b"], [0]), 4).similarity[0]
        for i in range(4):
            assert abs(sim[i] - naive_cosine(a[i], b[i])) < 1e-12

    @given(st.integers(9, 48), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_evidence_is_compacted_mean_at_every_defined_count(self, n_shared, seed):
        # Enrollment "e" holds phones 0 .. n_shared-1, one frame each. Test
        # utterance "t{c}_{j}" shares c of them (c = 0 .. n_shared, three
        # random subsets each); "t0_j" holds only phone n_shared. Rows with 8
        # or more defined phones are where a zero-filled row sum regroups.
        rng = np.random.default_rng(seed)
        dim, n_phones = int(rng.integers(2, 6)), n_shared + 1

        def utterance(utt, phones):
            scale = 10.0 ** rng.uniform(-3, 3)
            return (UtteranceFeatures(utt, utt, scale * rng.normal(size=(len(phones), dim))),
                    PhoneAlignment(utt, [(k, k + 1, int(p)) for k, p in enumerate(phones)]))

        pairs = [utterance("e", range(n_shared))]
        trials = []
        for c in range(n_shared + 1):
            for j in range(3):
                phones = rng.permutation(n_shared)[:c] if c else [n_shared]
                pairs.append(utterance(f"t{c}_{j}", phones))
                trials.append(("e", f"t{c}_{j}", j % 2))
        index = CorpusIndex.build(*map(list, zip(*pairs)))
        state = ModelState(
            EncoderParams(EncoderConfig(dim, (LayerSpec((0,), dim, "identity"),)),
                          [np.eye(dim)], [np.zeros(dim)]),
            ProjectionParams(np.eye(2 * dim), np.zeros(2 * dim)),
            class_weights=np.ones((2, 2 * dim)),
        )
        table = score_trials(state, index, TrialList(*map(list, zip(*trials))), n_phones)

        counts = (~np.isnan(table.similarity)).sum(axis=1)
        assert sorted(set(counts.tolist())) == list(range(n_shared + 1))
        for row, evidence in zip(table.similarity, table.evidence, strict=True):
            defined = ~np.isnan(row)
            if defined.any():
                assert evidence == row[defined].mean()
            else:
                assert np.isnan(evidence)

    def test_table_columns_must_match(self):
        with pytest.raises(DimensionError):
            ScoreTable(["a"], ["b"], [1], [0.5], [0.5, 0.5], np.full((1, 3), 0.5))
        with pytest.raises(DimensionError):
            ScoreTable(["a"], ["b"], [1], [0.5], [0.5], np.full(3, 0.5))


class TestScoreTrials:
    def test_labels_and_shapes_propagate(self):
        state, index, trials, inventory = scored_table()
        table = score_trials(state, index, trials, inventory.size)
        assert len(table) == len(trials)
        assert table.enroll_ids == trials.enroll_ids
        assert table.test_ids == trials.test_ids
        assert table.labels.tolist() == trials.labels.tolist()
        assert table.similarity.shape == (len(trials), inventory.size)
        assert np.isfinite(table.final).all()

    @given(scoring_cases())
    @settings(max_examples=25, deadline=None)
    def test_batched_scores_match_per_trial_oracle(self, case):
        state, index, trials, n_phones = case
        exact = not edge_shape([utt.n_frames for utt in index.features.values()],
                               [state.encoder.config.output_dim, state.projection.embedding_dim])
        table = score_trials(state, index, trials, n_phones)
        assert_matches_oracle(table, per_trial_scores(state, index, trials, n_phones), exact)
        shared = (~np.isnan(table.similarity)).sum(axis=1)
        assert 0 in shared and 1 in shared

    def test_several_utterance_chunks_match_per_trial_oracle(self):
        # 70 utterances: two full packs of _UTTERANCE_CHUNK and a partial one.
        inventory = tiny_inventory()
        features, alignments, _ = generate_corpus(10, 7, inventory, 3, (1, 4), (2, 9), 0.3, 4)
        index = CorpusIndex.build(features, alignments)
        model_cfg = ModelConfig(EncoderConfig(3, (LayerSpec((-1, 0, 1), 4, "relu"),)), 3)
        state = init_model(model_cfg, len(index.speakers), seed=5)
        trials = make_trials(features, 300, 300, seed=6)
        distinct = set(trials.enroll_ids) | set(trials.test_ids)
        assert len(distinct) > 2 * _UTTERANCE_CHUNK
        table = score_trials(state, index, trials, inventory.size)
        assert_matches_oracle(table, per_trial_scores(state, index, trials, inventory.size))

    def test_unknown_utterance_rejected(self):
        state, index, _, inventory = scored_table()
        trials = TrialList(["nope"], [list(index.features)[0]], [0])
        with pytest.raises(ConfigurationError):
            score_trials(state, index, trials, inventory.size)

    def test_disjoint_phones_give_none_evidence(self):
        # Two utterances with no phone in common: final still defined,
        # evidence is not.
        state, index = two_utterances(np.full((2, 2), 2.0), [(0, 2, 0)],
                                      np.full((2, 2), 3.0), [(0, 2, 1)])
        table = score_trials(state, index, TrialList(["a"], ["b"], [0]), 3)
        assert np.isnan(table.evidence[0])
        assert np.isnan(table.similarity[0]).all()
        assert np.isfinite(table.final[0])

    def test_near_zero_shared_trait_is_a_numeric_error(self):
        # Phone 0 of "a" has a nonzero trait, so it is present, but its norm
        # is below the floor; "b" shares phone 0.
        features_a = np.array([[1e-14, 0.0], [1.0, 2.0]])
        state, index = two_utterances(features_a, [(0, 1, 0), (1, 2, 1)],
                                      np.full((2, 2), 3.0), [(0, 2, 0)])
        with pytest.raises(NumericGuardError):
            score_trials(state, index, TrialList(["a"], ["b"], [0]), 3)

    def test_zero_embedding_is_a_numeric_error(self):
        state, index = two_utterances(np.full((2, 2), 2.0), [(0, 2, 0)],
                                      np.full((2, 2), 3.0), [(0, 2, 0)])
        state.projection = ProjectionParams(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(NumericGuardError):
            score_trials(state, index, TrialList(["a"], ["b"], [0]), 3)


class TestScoreFileIO:
    def test_round_trip_exact(self, tmp_path):
        state, index, trials, inventory = scored_table()
        table = score_trials(state, index, trials, inventory.size)
        path = tmp_path / "scores.txt"
        save_scores(table, path)
        loaded = load_scores(path, inventory.size)
        assert (loaded.enroll_ids, loaded.test_ids) == (table.enroll_ids, table.test_ids)
        assert np.array_equal(loaded.labels, table.labels)
        assert np.array_equal(loaded.final, table.final)
        for column in ("evidence", "similarity"):
            assert np.array_equal(getattr(loaded, column), getattr(table, column), equal_nan=True)
        save_scores(loaded, tmp_path / "again.txt")
        assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()

    def test_n_phones_inferred_from_first_row(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\t1\t0.5\t0.25\t0.25\tNA\t0.5\n")
        table = load_scores(path)
        assert table.similarity.shape == (1, 3)
        assert np.isnan(table.similarity[0]).tolist() == [False, True, False]

    def test_na_label_and_evidence(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a\tb\tNA\t0.5\tNA\tNA\tNA\n")
        table = load_scores(path)
        assert table.labels.tolist() == [-1]
        assert np.isnan(table.evidence[0])

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

    @pytest.mark.parametrize("columns, error", [
        # A value load_scores rejects is refused by the table itself.
        ((["a"], ["b"], [1], [0.5], [np.nan], [[0.5, np.nan]]),
         "trial 0: evidence must be NA exactly when no phone is defined"),
        ((["a"], ["b"], [1], [0.5], [0.5], [[np.nan, np.nan]]),
         "trial 0: evidence must be NA exactly when no phone is defined"),
        ((["a", "c"], ["b", "d"], [1, 0], [0.5, np.nan], [0.5, 0.5], [[0.5], [0.5]]),
         "trial 1: final score is NA"),
        ((["a"], ["b"], [2], [0.5], [0.5], [[0.5]]), "trial 0: label must be 1, 0 or -1"),
        ((["a"], ["b"], [1], [0.5], [0.5], [[np.inf]]), "trial 0: scores must be finite or NA"),
        # An id that holds a tab or a line break splits the row it is written to.
        ((["a\tx"], ["b"], [1], [0.5], [0.5], [[0.5]]), "no tab or line break"),
        ((["a"], ["b\nx"], [1], [0.5], [0.5], [[0.5]]), "no tab or line break"),
        ((["a", "c"], ["b", "d\rx"], [1, 0], [0.5, 0.5], [0.5, 0.5], [[0.5], [0.5]]),
         "no tab or line break"),
    ], ids=["na_evidence_with_phone", "evidence_without_phone", "na_final", "bad_label",
            "infinite_phone", "tab_in_id", "newline_in_id", "carriage_return_in_id"])
    def test_refuses_a_table_load_would_reject(self, tmp_path, columns, error):
        if error.startswith("trial"):
            with pytest.raises(ConfigurationError, match=re.escape(error)):
                ScoreTable(*columns)
        else:
            table = ScoreTable(*columns)
            with pytest.raises(ConfigurationError, match=error):
                save_scores(table, tmp_path / "scores.txt")
        assert list(tmp_path.iterdir()) == []
