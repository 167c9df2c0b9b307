"""Context-window encoder: forward correctness and certified gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait.encoder import (
    EncoderConfig,
    EncoderParams,
    LayerSpec,
    encode_backward,
    encode_frames,
    format_layer_string,
    init_encoder,
    parse_layer_string,
)
from phonetrait.errors import ConfigurationError, DimensionError

from _oracles import central_difference, max_relative_error, naive_encode


def two_layer_config(input_dim=3):
    return EncoderConfig(
        input_dim,
        (LayerSpec((-1, 0, 1), 5, "relu"), LayerSpec((0,), 4, "identity")),
    )


def identity_params(dim, offsets=(0,)):
    config = EncoderConfig(dim, (LayerSpec(offsets, dim, "identity"),))
    weight = np.zeros((dim, len(offsets) * dim))
    anchor = offsets.index(0)
    weight[:, anchor * dim:(anchor + 1) * dim] = np.eye(dim)
    return EncoderParams(config, [weight], [np.zeros(dim)])


class TestLayerSpec:
    def test_offsets_must_increase(self):
        with pytest.raises(ConfigurationError):
            LayerSpec((1, 0), 4)
        with pytest.raises(ConfigurationError):
            LayerSpec((0, 0), 4)

    def test_unknown_nonlinearity(self):
        with pytest.raises(ConfigurationError):
            LayerSpec((0,), 4, "tanh")

    def test_layer_string_round_trip(self):
        layers = (LayerSpec((-2, 0, 2), 16, "relu"), LayerSpec((0,), 8, "identity"))
        text = format_layer_string(layers)
        assert text == "-2,0,2:16:relu;0:8:identity"
        assert parse_layer_string(text) == layers

    def test_parse_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            parse_layer_string("0:4")
        with pytest.raises(ConfigurationError):
            parse_layer_string("a:4:relu")


class TestInit:
    def test_bounds_follow_fan_in(self):
        # fan_in = 2 offsets * 2 inputs = 4, so every value lies in [-0.5, 0.5]
        config = EncoderConfig(2, (LayerSpec((-1, 0), 3, "relu"),))
        params = init_encoder(config, np.random.default_rng(0))
        assert np.all(np.abs(params.weights[0]) <= 0.5)
        assert np.all(np.abs(params.biases[0]) <= 0.5)

    def test_shape_validation(self):
        config = two_layer_config()
        params = init_encoder(config, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            EncoderParams(config, params.weights[:1], params.biases)
        with pytest.raises(DimensionError):
            EncoderParams(config, [params.weights[0].T, params.weights[1]], params.biases)


class TestForward:
    def test_identity_network_reproduces_input(self):
        feats = np.random.default_rng(1).normal(size=(6, 3))
        out = encode_frames(identity_params(3), feats)
        assert np.array_equal(out, feats)

    def test_edge_clamp_hand_case(self):
        # One layer averaging x[t-1] and x[t+1]; frame 0 uses x[0] twice.
        config = EncoderConfig(1, (LayerSpec((-1, 1), 1, "identity"),))
        params = EncoderParams(config, [np.array([[0.5, 0.5]])], [np.zeros(1)])
        out = encode_frames(params, np.array([[1.0], [2.0], [4.0]]))
        assert out.tolist() == [[1.5], [2.5], [3.0]]

    def test_relu_clips_negatives(self):
        config = EncoderConfig(1, (LayerSpec((0,), 1, "relu"),))
        params = EncoderParams(config, [np.array([[1.0]])], [np.array([-2.0])])
        out = encode_frames(params, np.array([[1.0], [3.0]]))
        assert out.tolist() == [[0.0], [1.0]]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        config = EncoderConfig(
            4,
            (
                LayerSpec((-2, -1, 0, 1), 6, "relu"),
                LayerSpec((-1, 0, 1), 5, "relu"),
                LayerSpec((0, 2), 3, "identity"),
            ),
        )
        params = init_encoder(config, rng)
        feats = rng.normal(size=(9, 4))
        fast = encode_frames(params, feats)
        slow = naive_encode(config, params.weights, params.biases, feats)
        assert np.allclose(fast, slow, atol=1e-12, rtol=0.0)

    def test_interior_frames_shift_with_input(self):
        # Away from the edges the encoder is time-invariant.
        rng = np.random.default_rng(3)
        params = init_encoder(two_layer_config(), rng)
        feats = rng.normal(size=(10, 3))
        shifted = np.roll(feats, 2, axis=0)
        out = encode_frames(params, feats)
        out_shifted = encode_frames(params, shifted)
        assert np.allclose(out[3:6], out_shifted[5:8], atol=1e-12)

    def test_wrong_input_dim_rejected(self):
        params = init_encoder(two_layer_config(), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encode_frames(params, np.zeros((4, 2)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_encoder(two_layer_config(), np.random.default_rng(0))
        feats = np.random.default_rng(1).normal(size=(5, 3))
        d_w, d_b, d_x = encode_backward(params, feats, np.zeros((5, 4)))
        assert all(not w.any() for w in d_w)
        assert all(not b.any() for b in d_b)
        assert not d_x.any()

    def test_identity_net_passes_gradient_through(self):
        feats = np.random.default_rng(2).normal(size=(4, 3))
        upstream = np.random.default_rng(3).normal(size=(4, 3))
        _, _, d_x = encode_backward(identity_params(3), feats, upstream)
        assert np.allclose(d_x, upstream, atol=1e-12)

    def test_clamped_edges_accumulate_input_gradient(self):
        # Offsets (-1, 0): frame 0's context reads x0 twice via clamping, so
        # x0 collects that doubled term plus one from frame 1's window.
        config = EncoderConfig(1, (LayerSpec((-1, 0), 1, "identity"),))
        params = EncoderParams(config, [np.array([[1.0, 1.0]])], [np.zeros(1)])
        _, _, d_x = encode_backward(params, np.zeros((3, 1)), np.ones((3, 1)))
        assert d_x.ravel().tolist() == [3.0, 2.0, 1.0]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        config = EncoderConfig(
            3,
            (LayerSpec((-1, 0, 1), 5, "relu"), LayerSpec((0, 1), 4, "identity")),
        )
        params = init_encoder(config, rng)
        feats = rng.normal(size=(7, 3))
        upstream = rng.normal(size=(7, 4))

        def loss():
            return float((encode_frames(params, feats) * upstream).sum())

        d_w, d_b, d_x = encode_backward(params, feats, upstream)
        for l in range(2):
            assert max_relative_error(d_w[l], central_difference(loss, params.weights[l])) < 1e-6
            assert max_relative_error(d_b[l], central_difference(loss, params.biases[l])) < 1e-6
        assert max_relative_error(d_x, central_difference(loss, feats)) < 1e-6

    def test_upstream_shape_checked(self):
        params = init_encoder(two_layer_config(), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encode_backward(params, np.zeros((5, 3)), np.zeros((5, 3)))

    @given(st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_frame_and_short_utterances_stay_consistent(self, n_frames, seed):
        # Clamping must agree with the naive oracle even when T < context span.
        rng = np.random.default_rng(seed)
        config = EncoderConfig(2, (LayerSpec((-2, 0, 3), 3, "relu"),))
        params = init_encoder(config, rng)
        feats = rng.normal(size=(n_frames, 2))
        fast = encode_frames(params, feats)
        slow = naive_encode(config, params.weights, params.biases, feats)
        assert np.allclose(fast, slow, atol=1e-12, rtol=0.0)
