"""Phone-averaged traits, statistics pooling, and the projection backward pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait.encoder import EncoderConfig, EncoderParams, LayerSpec
from phonetrait.errors import ConfigurationError, DimensionError, EmptyUtteranceError
from phonetrait.workspace import Workspace
from phonetrait.trait_layer import (
    STD_EPS,
    ProjectionParams,
    extract_traits,
    forward_batch,
    init_projection,
    trait_layer_backward,
)

from _oracles import (
    assert_matches,
    central_difference,
    max_relative_error,
    naive_traits,
    per_utterance_backward,
    per_utterance_forward,
    pool_statistics,
)


def identity_encoder(dim):
    config = EncoderConfig(dim, (LayerSpec((0,), dim, "identity"),))
    return EncoderParams(config, [np.eye(dim)], [np.zeros(dim)])


def traits_for(frames, phones_per_frame, n_phones):
    """One utterance's (traits, present): a batch of one, whose segment ids are its phones."""
    phones = np.asarray(phones_per_frame)
    traits, present = extract_traits(frames, phones, np.bincount(phones, minlength=n_phones)[None],
                                     Workspace())
    return traits[0], present[0]


def forward_one(features, phones_per_frame, encoder, projection, n_phones):
    """``forward_batch`` of the one utterance "u", in a workspace of its own."""
    phones = np.asarray(phones_per_frame)
    return forward_batch(features, phones, [phones.shape[0]], ["u"], encoder, projection, n_phones,
                         Workspace())


class TestExtractTraits:
    def test_hand_case(self):
        frames = np.array([[1.0, 1.0], [3.0, 3.0], [0.0, 2.0], [0.0, 0.0]])
        traits, present = traits_for(frames, [0, 0, 1, 1], 3)
        assert traits[0].tolist() == [2.0, 2.0]
        assert traits[1].tolist() == [0.0, 1.0]
        assert traits[2].tolist() == [0.0, 0.0]
        assert present.tolist() == [True, True, False]

    def test_split_segments_pool_by_duration(self):
        # Phone 0 appears in two segments; all three of its frames average.
        frames = np.array([[3.0], [9.0], [100.0], [6.0]])
        traits, _ = traits_for(frames, [0, 0, 1, 0], 2)
        assert traits[0].tolist() == [6.0]
        assert traits[1].tolist() == [100.0]

    def test_cancelling_frames_mark_phone_absent(self):
        frames = np.array([[1.0], [-1.0]])
        traits, present = traits_for(frames, [0, 0], 2)
        assert not present[0]
        assert traits[0].tolist() == [0.0]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(12, 3))
        phones = [0, 0, 3, 3, 3, 1, 1, 0, 4, 4, 4, 4]
        traits, present = traits_for(frames, phones, 6)
        want_traits, want_present = naive_traits(frames, phones, 6)
        assert np.allclose(traits, want_traits, atol=1e-12)
        assert np.array_equal(present, want_present)
        assert np.array_equal(np.any(traits != 0.0, axis=1), present)

    def test_packed_utterances_pool_separately(self):
        # Phone 0 of utterance 0 is segment 0, phone 0 of utterance 1 is
        # segment 2: the same phone in two utterances never shares a mean.
        frames = np.array([[1.0], [3.0], [10.0], [20.0]])
        segments = np.array([0, 0, 2, 3])
        counts = np.bincount(segments, minlength=4).reshape(2, 2)
        traits, present = extract_traits(frames, segments, counts, Workspace())
        assert traits[:, :, 0].tolist() == [[2.0, 0.0], [10.0, 20.0]]
        assert present.tolist() == [[True, False], [True, True]]

    def test_frame_count_mismatch(self):
        with pytest.raises(DimensionError):
            traits_for(np.zeros((3, 2)), [0, 0], 2)

    def test_phone_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            forward_one(np.ones((2, 2)), [0, 5], identity_encoder(2),
                        ProjectionParams(np.eye(4), np.zeros(4)), 3)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 14))
    @settings(max_examples=25, deadline=None)
    def test_oracle_agreement_random(self, seed, n_frames):
        rng = np.random.default_rng(seed)
        phones = rng.integers(0, 4, size=n_frames).tolist()
        frames = rng.normal(size=(n_frames, 2))
        traits, present = traits_for(frames, phones, 5)
        want_traits, want_present = naive_traits(frames, phones, 5)
        assert np.allclose(traits, want_traits, atol=1e-12)
        assert np.array_equal(present, want_present)


class TestForwardBatch:
    def test_utterance_without_present_traits_is_named(self):
        # The second utterance's two frames of phone 0 cancel to a zero trait,
        # so it has no present phone left to pool.
        features = np.array([[1.0], [2.0], [1.0], [-1.0], [5.0]])
        phones = np.array([0, 1, 0, 0, 1])
        projection = ProjectionParams(np.eye(2), np.zeros(2))
        with pytest.raises(EmptyUtteranceError, match="'b'"):
            forward_batch(features, phones, [2, 2, 1], ["a", "b", "c"],
                          identity_encoder(1), projection, 2, Workspace())

    def test_first_empty_utterance_in_packing_order_is_named(self):
        # Width 2 pools the stacked traits; 'b' cancels to zero and 'c' reads
        # only zero frames, and the error names 'b'.
        features = np.array([[1.0, 2.0], [1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
        phones = np.array([0, 0, 0, 1])
        projection = ProjectionParams(np.eye(4), np.zeros(4))
        with pytest.raises(EmptyUtteranceError, match="'b'"):
            forward_batch(features, phones, [1, 2, 1], ["a", "b", "c"],
                          identity_encoder(2), projection, 2, Workspace())


def pooled(rows):
    """``forward_batch``'s statistics of one utterance whose phone p holds ``rows[p]``,
    through identity maps."""
    rows = np.asarray(rows, dtype=np.float64)
    n, dim = rows.shape
    projection = ProjectionParams(np.eye(2 * dim), np.zeros(2 * dim))
    stats = forward_one(rows, np.arange(n), identity_encoder(dim), projection, n).stats[0]
    return stats[:dim], stats[dim:]


class TestPooling:
    def test_stats_hand_case(self):
        mean, std = pooled([[1.0, 3.0], [3.0, 5.0]])
        assert mean.tolist() == [2.0, 4.0]
        assert np.allclose(std, [1.0, 1.0], atol=1e-8)
        assert std[0] == np.sqrt(1.0 + STD_EPS)

    def test_single_row_std_is_eps_floor(self):
        mean, std = pooled([[7.0, -2.0]])
        assert mean.tolist() == [7.0, -2.0]
        assert np.all(std == np.sqrt(STD_EPS))

    def test_population_not_sample_variance(self):
        _, std = pooled([[1.0], [3.0]])
        # population variance is 1, the n-1 convention would give 2
        assert abs(std[0] - 1.0) < 1e-8

    def test_empty_rejected(self):
        # No present row to pool: the only phone's frames average to zero.
        with pytest.raises(EmptyUtteranceError, match="'u'"):
            pooled([[0.0, 0.0]])

    def test_init_projection_shapes(self):
        p = init_projection(5, 3, np.random.default_rng(0))
        assert p.weight.shape == (3, 10)
        assert p.bias.shape == (3,)
        assert p.trait_dim == 5
        assert p.embedding_dim == 3


class TestForwardUtterance:
    def test_composition_matches_manual_steps(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(8, 3))
        phones = [0, 0, 2, 2, 2, 1, 1, 0]
        projection = init_projection(3, 4, rng)
        cache = forward_one(features, phones, identity_encoder(3), projection, 5)

        traits, present = traits_for(features, phones, 5)
        mean, std = pool_statistics(traits[present])
        stats = np.concatenate([mean, std])
        assert np.array_equal(cache.stats[0], stats)
        expected = projection.weight @ stats + projection.bias
        assert np.allclose(cache.embeddings[0], expected, atol=1e-12)
        assert cache.present[0].tolist() == [True, True, True, False, False]
        assert cache.counts.tolist() == [[3, 2, 3, 0, 0]]
        assert [a.tolist() for a in cache.activations] == [features.tolist()] * 2

    def test_identity_hand_case(self):
        # Two one-frame phones through identity maps: the embedding is the
        # pooled statistics themselves, [mean, std] = [2, 4, 1, 1].
        features = np.array([[1.0, 3.0], [3.0, 5.0]])
        projection = ProjectionParams(np.eye(4), np.zeros(4))
        cache = forward_one(features, [0, 1], identity_encoder(2), projection, 3)
        assert np.allclose(cache.embeddings[0], [2.0, 4.0, 1.0, 1.0], atol=1e-8)

    def test_dim_mismatch(self):
        projection = ProjectionParams(np.eye(4), np.zeros(4))
        with pytest.raises(DimensionError, match="projection trait dim 2"):
            forward_one(np.ones((2, 3)), [0, 1], identity_encoder(3), projection, 3)


class TestTraitLayerBackward:
    def rig(self, seed=3, n_frames=9, dim=3, n_phones=5):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n_frames, dim))
        phones = rng.integers(0, n_phones - 1, size=n_frames)
        projection = init_projection(dim, 4, rng)
        return rng, features, phones, projection

    def test_zero_upstream(self):
        rng, features, phones, projection = self.rig()
        cache = forward_one(features, phones, identity_encoder(3), projection, 5)
        d_w, d_b, d_frames = trait_layer_backward(cache, projection, np.zeros((1, 4)),
                                                  np.zeros((1, 5, 3)), Workspace())
        assert not d_w.any() and not d_b.any() and not d_frames.any()

    def test_finite_differences_embedding_path(self):
        rng, features, phones, projection = self.rig()
        g = rng.normal(size=4)
        encoder = identity_encoder(3)

        def loss():
            cache = forward_one(features, phones, encoder, projection, 5)
            return float(g @ cache.embeddings[0])

        cache = forward_one(features, phones, encoder, projection, 5)
        d_w, d_b, d_frames = trait_layer_backward(cache, projection, g[None], np.zeros((1, 5, 3)),
                                                  Workspace())
        assert max_relative_error(d_frames, central_difference(loss, features)) < 1e-6
        assert max_relative_error(d_w, central_difference(loss, projection.weight)) < 1e-6
        assert max_relative_error(d_b, central_difference(loss, projection.bias)) < 1e-6

    def test_finite_differences_with_trait_gradient(self):
        rng, features, phones, projection = self.rig(seed=8)
        g = rng.normal(size=4)
        h = rng.normal(size=(5, 3))
        encoder = identity_encoder(3)

        def loss():
            cache = forward_one(features, phones, encoder, projection, 5)
            return float(g @ cache.embeddings[0]) + float((h * cache.traits[0]).sum())

        cache = forward_one(features, phones, encoder, projection, 5)
        _, _, d_frames = trait_layer_backward(cache, projection, g[None], h[None], Workspace())
        assert max_relative_error(d_frames, central_difference(loss, features)) < 1e-6

    def test_absent_rows_of_trait_gradient_ignored(self):
        rng, features, phones, projection = self.rig(seed=4)

        def forward():
            return forward_one(features, phones, identity_encoder(3), projection, 5)

        cache = forward()
        assert not cache.present.all()
        g = rng.normal(size=(1, 4))
        h = np.zeros((1, 5, 3))
        h[~cache.present] = 1e6
        # Backward overwrites the cache's deviations and writes its frame
        # gradient to its workspace, so each pass has its own of both.
        _, _, with_garbage = trait_layer_backward(cache, projection, g, h, Workspace())
        _, _, clean = trait_layer_backward(forward(), projection, g, np.zeros((1, 5, 3)),
                                           Workspace())
        assert np.array_equal(with_garbage, clean)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 24), st.integers(1, 12),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_stacked_batch_matches_per_utterance_oracle(self, seed, n_utts, n_phones, dim,
                                                        emb_dim):
        # Under any upstream gradient; bit for bit unless a trait or embedding
        # width of 1 makes NumPy sum the pooling or the bias gradient
        # pairwise. The identity encoder multiplies exactly, so 1-frame
        # utterances round alike. Training alone cannot show the bias sum's
        # grouping: at D2 = 1 its embedding gradient is zero.
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 25, size=n_utts)
        exact = min(dim, emb_dim) > 1
        features = rng.normal(size=(int(lengths.sum()), dim))
        phones = rng.integers(0, n_phones, size=features.shape[0])
        encoder, projection = identity_encoder(dim), init_projection(dim, emb_dim, rng)
        utts = [f"u{u}" for u in range(n_utts)]
        workspace = Workspace()
        cache = forward_batch(features, phones, lengths, utts, encoder, projection, n_phones,
                              workspace)
        d_emb = rng.normal(size=(n_utts, emb_dim))
        d_traits = rng.normal(size=cache.traits.shape)
        d_w, d_b, d_frames = trait_layer_backward(cache, projection, d_emb, d_traits, workspace)

        want_w, want_b = np.zeros_like(d_w), np.zeros_like(d_b)
        ends = np.cumsum(lengths)
        for u, (start, end) in enumerate(zip(ends - lengths, ends)):
            oracle = per_utterance_forward(features[start:end], phones[start:end], utts[u],
                                           encoder, projection, n_phones)
            assert_matches(cache.embeddings[u], oracle["embedding"], exact, "embedding")
            w, b, frames = per_utterance_backward(oracle, projection, d_emb[u], d_traits[u])
            want_w += w
            want_b += b
            assert_matches(d_frames[start:end], frames, exact, "frames")
        assert_matches(d_w, want_w, exact, "projection weight")
        assert_matches(d_b, want_b, exact, "projection bias")
