"""Phone-averaged traits, statistics pooling, and the projection backward pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait.corpus import PhoneAlignment
from phonetrait.encoder import EncoderConfig, EncoderParams, LayerSpec
from phonetrait.errors import ConfigurationError, DimensionError, EmptyUtteranceError
from phonetrait.trait_layer import (
    STD_EPS,
    PhoneticTraitSet,
    ProjectionParams,
    extract_traits,
    filter_traits,
    forward_utterance,
    init_projection,
    pool_statistics,
    trait_layer_backward,
)

from _oracles import central_difference, max_relative_error, naive_traits


def identity_encoder(dim):
    config = EncoderConfig(dim, (LayerSpec((0,), dim, "identity"),))
    return EncoderParams(config, [np.eye(dim)], [np.zeros(dim)])


def traits_for(frames, phones_per_frame, n_phones):
    phones = np.asarray(phones_per_frame)
    return extract_traits(frames, phones, np.bincount(phones, minlength=n_phones), "u")


def alignment_for(phones_per_frame):
    segments = []
    start = 0
    for t, phone in enumerate(phones_per_frame):
        if segments and segments[-1][2] == phone:
            prev = segments.pop()
            segments.append((prev[0], t + 1, phone))
        else:
            segments.append((start, t + 1, phone))
        start = t + 1
    return PhoneAlignment("u", segments)


class TestExtractTraits:
    def test_hand_case(self):
        frames = np.array([[1.0, 1.0], [3.0, 3.0], [0.0, 2.0], [0.0, 0.0]])
        ts = traits_for(frames, [0, 0, 1, 1], 3)
        assert ts.traits[0].tolist() == [2.0, 2.0]
        assert ts.traits[1].tolist() == [0.0, 1.0]
        assert ts.traits[2].tolist() == [0.0, 0.0]
        assert ts.present.tolist() == [True, True, False]

    def test_split_segments_pool_by_duration(self):
        # Phone 0 appears in two segments; all three of its frames average.
        frames = np.array([[3.0], [9.0], [100.0], [6.0]])
        ts = traits_for(frames, [0, 0, 1, 0], 2)
        assert ts.traits[0].tolist() == [6.0]
        assert ts.traits[1].tolist() == [100.0]

    def test_cancelling_frames_mark_phone_absent(self):
        frames = np.array([[1.0], [-1.0]])
        ts = traits_for(frames, [0, 0], 2)
        assert not ts.present[0]
        assert ts.traits[0].tolist() == [0.0]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(12, 3))
        phones = [0, 0, 3, 3, 3, 1, 1, 0, 4, 4, 4, 4]
        ts = traits_for(frames, phones, 6)
        traits, present = naive_traits(frames, phones, 6)
        assert np.allclose(ts.traits, traits, atol=1e-12)
        assert np.array_equal(ts.present, present)
        ts.validate_mask()

    def test_frame_count_mismatch(self):
        with pytest.raises(DimensionError):
            traits_for(np.zeros((3, 2)), [0, 0], 2)

    def test_phone_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            forward_utterance(np.ones((2, 2)), alignment_for([0, 5]), identity_encoder(2),
                              ProjectionParams(np.eye(4), np.zeros(4)), 3)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 14))
    @settings(max_examples=25, deadline=None)
    def test_oracle_agreement_random(self, seed, n_frames):
        rng = np.random.default_rng(seed)
        phones = rng.integers(0, 4, size=n_frames).tolist()
        frames = rng.normal(size=(n_frames, 2))
        ts = traits_for(frames, phones, 5)
        traits, present = naive_traits(frames, phones, 5)
        assert np.allclose(ts.traits, traits, atol=1e-12)
        assert np.array_equal(ts.present, present)


class TestValidateMask:
    def test_nonzero_marked_absent(self):
        ts = PhoneticTraitSet("u", np.ones((1, 2)), np.array([False]))
        with pytest.raises(ConfigurationError, match="marked absent"):
            ts.validate_mask()

    def test_zero_marked_present(self):
        ts = PhoneticTraitSet("u", np.zeros((1, 2)), np.array([True]))
        with pytest.raises(ConfigurationError, match="marked present"):
            ts.validate_mask()


class TestFilterTraits:
    def test_keeps_present_rows_in_order(self):
        traits = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        present = np.array([False, True, False, True])
        filtered, kept = filter_traits(PhoneticTraitSet("u", traits, present))
        assert kept.tolist() == [1, 3]
        assert filtered.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_all_absent_raises(self):
        ts = PhoneticTraitSet("u", np.zeros((3, 2)), np.zeros(3, dtype=bool))
        with pytest.raises(EmptyUtteranceError, match="'u'"):
            filter_traits(ts)


class TestPooling:
    def test_stats_hand_case(self):
        mean, std = pool_statistics(np.array([[1.0, 3.0], [3.0, 5.0]]))
        assert mean.tolist() == [2.0, 4.0]
        assert np.allclose(std, [1.0, 1.0], atol=1e-8)
        assert std[0] == np.sqrt(1.0 + STD_EPS)

    def test_single_row_std_is_eps_floor(self):
        mean, std = pool_statistics(np.array([[7.0, -2.0]]))
        assert mean.tolist() == [7.0, -2.0]
        assert np.all(std == np.sqrt(STD_EPS))

    def test_population_not_sample_variance(self):
        _, std = pool_statistics(np.array([[0.0], [2.0]]))
        # population variance is 1, the n-1 convention would give 2
        assert abs(std[0] - 1.0) < 1e-8

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            pool_statistics(np.zeros((0, 2)))

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
        alignment = alignment_for([0, 0, 2, 2, 2, 1, 1, 0])
        projection = init_projection(3, 4, rng)
        cache = forward_utterance(features, alignment, identity_encoder(3), projection, 5)

        ts = traits_for(features, alignment.frame_phones(), 5)
        filtered, kept = filter_traits(ts)
        mean, std = pool_statistics(filtered)
        expected = projection.weight @ np.concatenate([mean, std]) + projection.bias
        assert np.allclose(cache.embedding, expected, atol=1e-12)
        assert cache.kept.tolist() == kept.tolist()
        assert cache.counts.tolist() == [3, 2, 3, 0, 0]
        assert [a.tolist() for a in cache.activations] == [features.tolist()] * 2
        assert cache.utterance_id == "u"

    def test_identity_hand_case(self):
        # Two one-frame phones through identity maps: the embedding is the
        # pooled statistics themselves, [mean, std] = [2, 4, 1, 1].
        features = np.array([[1.0, 3.0], [3.0, 5.0]])
        projection = ProjectionParams(np.eye(4), np.zeros(4))
        cache = forward_utterance(features, alignment_for([0, 1]), identity_encoder(2),
                                  projection, 3)
        assert np.allclose(cache.embedding, [2.0, 4.0, 1.0, 1.0], atol=1e-8)

    def test_dim_mismatch(self):
        projection = ProjectionParams(np.eye(4), np.zeros(4))
        with pytest.raises(DimensionError, match="projection trait dim 2"):
            forward_utterance(np.ones((2, 3)), alignment_for([0, 1]), identity_encoder(3),
                              projection, 3)


class TestTraitLayerBackward:
    def rig(self, seed=3, n_frames=9, dim=3, n_phones=5):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n_frames, dim))
        phones = rng.integers(0, n_phones - 1, size=n_frames).tolist()
        alignment = alignment_for(phones)
        projection = init_projection(dim, 4, rng)
        return rng, features, alignment, projection

    def test_zero_upstream(self):
        rng, features, alignment, projection = self.rig()
        cache = forward_utterance(features, alignment, identity_encoder(3), projection, 5)
        d_w, d_b, d_frames = trait_layer_backward(cache, projection, np.zeros(4))
        assert not d_w.any() and not d_b.any() and not d_frames.any()

    def test_finite_differences_embedding_path(self):
        rng, features, alignment, projection = self.rig()
        g = rng.normal(size=4)
        encoder = identity_encoder(3)

        def loss():
            cache = forward_utterance(features, alignment, encoder, projection, 5)
            return float(g @ cache.embedding)

        cache = forward_utterance(features, alignment, encoder, projection, 5)
        d_w, d_b, d_frames = trait_layer_backward(cache, projection, g)
        assert max_relative_error(d_frames, central_difference(loss, features)) < 1e-6
        assert max_relative_error(d_w, central_difference(loss, projection.weight)) < 1e-6
        assert max_relative_error(d_b, central_difference(loss, projection.bias)) < 1e-6

    def test_finite_differences_with_trait_gradient(self):
        rng, features, alignment, projection = self.rig(seed=8)
        g = rng.normal(size=4)
        h = rng.normal(size=(5, 3))
        encoder = identity_encoder(3)

        def loss():
            cache = forward_utterance(features, alignment, encoder, projection, 5)
            return float(g @ cache.embedding) + float((h * cache.trait_set.traits).sum())

        cache = forward_utterance(features, alignment, encoder, projection, 5)
        _, _, d_frames = trait_layer_backward(cache, projection, g, d_traits=h)
        assert max_relative_error(d_frames, central_difference(loss, features)) < 1e-6

    def test_absent_rows_of_trait_gradient_ignored(self):
        rng, features, alignment, projection = self.rig(seed=4)
        cache = forward_utterance(features, alignment, identity_encoder(3), projection, 5)
        assert not cache.trait_set.present.all()
        g = rng.normal(size=4)
        h = np.zeros((5, 3))
        h[~cache.trait_set.present] = 1e6
        _, _, with_garbage = trait_layer_backward(cache, projection, g, d_traits=h)
        _, _, clean = trait_layer_backward(cache, projection, g, d_traits=np.zeros((5, 3)))
        assert np.array_equal(with_garbage, clean)
