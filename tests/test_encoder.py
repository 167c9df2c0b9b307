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
    encode_layers,
    format_layer_string,
    init_encoder,
    parse_layer_string,
)
from phonetrait.errors import ConfigurationError, DimensionError
from phonetrait.workspace import Workspace

from _oracles import (
    assert_matches,
    central_difference,
    edge_shape,
    max_relative_error,
    naive_encode,
)


def encode_one(params, feats):
    """``encode_layers`` of ``feats`` as one utterance, in a workspace of its own."""
    return encode_layers(params, feats, [len(feats)], Workspace())


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
        out = encode_one(identity_params(3), feats)[0][-1]
        assert np.array_equal(out, feats)

    def test_edge_clamp_hand_case(self):
        # One layer averaging x[t-1] and x[t+1]; frame 0 uses x[0] twice.
        config = EncoderConfig(1, (LayerSpec((-1, 1), 1, "identity"),))
        params = EncoderParams(config, [np.array([[0.5, 0.5]])], [np.zeros(1)])
        out = encode_one(params, np.array([[1.0], [2.0], [4.0]]))[0][-1]
        assert out.tolist() == [[1.5], [2.5], [3.0]]

    def test_relu_clips_negatives(self):
        config = EncoderConfig(1, (LayerSpec((0,), 1, "relu"),))
        params = EncoderParams(config, [np.array([[1.0]])], [np.array([-2.0])])
        out = encode_one(params, np.array([[1.0], [3.0]]))[0][-1]
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
        fast = encode_one(params, feats)[0][-1]
        slow = naive_encode(config, params.weights, params.biases, feats)
        assert np.allclose(fast, slow, atol=1e-12, rtol=0.0)

    def test_interior_frames_shift_with_input(self):
        # Away from the edges the encoder is time-invariant.
        rng = np.random.default_rng(3)
        params = init_encoder(two_layer_config(), rng)
        feats = rng.normal(size=(10, 3))
        shifted = np.roll(feats, 2, axis=0)
        out = encode_one(params, feats)[0][-1]
        out_shifted = encode_one(params, shifted)[0][-1]
        assert np.allclose(out[3:6], out_shifted[5:8], atol=1e-12)

    def test_wrong_input_dim_rejected(self):
        params = init_encoder(two_layer_config(), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encode_one(params, np.zeros((4, 2)))


def linear_under(top: LayerSpec, dim: int, rng) -> EncoderParams:
    """A random identity-activation (0,) layer under ``top``.

    The loss is linear in every weight, so a random draw cannot put a ReLU
    kink inside a finite-difference step, and layer 0's weight gradient reads
    the frame gradient ``top`` scatters back onto its input frames.
    """
    config = EncoderConfig(dim, (LayerSpec((0,), dim, "identity"), top))
    return init_encoder(config, rng)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_encoder(two_layer_config(), np.random.default_rng(0))
        feats = np.random.default_rng(1).normal(size=(5, 3))
        d_w, d_b = encode_backward(params, *encode_one(params, feats), np.zeros((5, 4)),
                                   Workspace())
        assert all(not w.any() for w in d_w)
        assert all(not b.any() for b in d_b)

    def test_identity_net_passes_gradient_through(self):
        # Layer 1 is the identity, so layer 0 sees the upstream gradient as is.
        feats = np.random.default_rng(2).normal(size=(4, 3))
        upstream = np.random.default_rng(3).normal(size=(4, 3))
        params = EncoderParams(
            EncoderConfig(3, (LayerSpec((0,), 3, "identity"), LayerSpec((0,), 3, "identity"))),
            [np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)],
        )
        d_w, d_b = encode_backward(params, *encode_one(params, feats), upstream, Workspace())
        assert np.allclose(d_w[0], upstream.T @ feats, atol=1e-12)
        assert np.allclose(d_b[0], upstream.sum(axis=0), atol=1e-12)

    def test_clamped_edges_accumulate_input_gradient(self):
        # Layer 1 has offsets (-1, 0): frame 0's context reads h0 twice via
        # clamping, so h0 collects that doubled term plus one from frame 1's
        # window, giving frame gradients (3, 2, 1) under layer 1. Layer 0 is
        # the identity map h = x, so d_w0 = 3 * 1 + 2 * 10 + 1 * 100.
        config = EncoderConfig(1, (LayerSpec((0,), 1, "identity"),
                                   LayerSpec((-1, 0), 1, "identity")))
        params = EncoderParams(config, [np.array([[1.0]]), np.array([[1.0, 1.0]])],
                               [np.zeros(1), np.zeros(1)])
        feats = np.array([[1.0], [10.0], [100.0]])
        d_w, d_b = encode_backward(params, *encode_one(params, feats), np.ones((3, 1)),
                                   Workspace())
        assert d_w[0].tolist() == [[123.0]]
        assert d_b[0].tolist() == [6.0]

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
            return float((encode_one(params, feats)[0][-1] * upstream).sum())

        d_w, d_b = encode_backward(params, *encode_one(params, feats), upstream, Workspace())
        for l in range(2):
            assert max_relative_error(d_w[l], central_difference(loss, params.weights[l])) < 1e-6
            assert max_relative_error(d_b[l], central_difference(loss, params.biases[l])) < 1e-6

    @pytest.mark.parametrize("top", ["relu", "identity"])
    def test_d_output_becomes_the_top_pre_activation_gradient(self, top):
        # encode_backward overwrites d_output in place: a ReLU top layer
        # zeroes it where its output is not positive, an identity layer
        # leaves it as it was.
        rng = np.random.default_rng(5)
        config = EncoderConfig(3, (LayerSpec((-1, 0, 1), 5, "relu"), LayerSpec((0,), 4, top)))
        params = init_encoder(config, rng)
        activations, packing = encode_layers(params, rng.normal(size=(9, 3)), [4, 5], Workspace())
        upstream = rng.normal(size=(9, 4))
        want = upstream * (activations[-1] > 0.0) if top == "relu" else upstream.copy()
        # Some outputs are clipped, so the ReLU case has rows to zero.
        assert (activations[-1] <= 0.0).any() and (activations[-1] > 0.0).any()
        encode_backward(params, activations, packing, upstream, Workspace())
        assert upstream.tobytes() == want.tobytes()

    def test_upstream_shape_checked(self):
        params = init_encoder(two_layer_config(), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encode_backward(params, *encode_one(params, np.zeros((5, 3))), np.zeros((5, 3)),
                            Workspace())

    @given(st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_frame_and_short_utterances_stay_consistent(self, n_frames, seed):
        # Clamping must agree with the naive oracle even when T < context span.
        rng = np.random.default_rng(seed)
        config = EncoderConfig(2, (LayerSpec((-2, 0, 3), 3, "relu"),))
        params = init_encoder(config, rng)
        feats = rng.normal(size=(n_frames, 2))
        fast = encode_one(params, feats)[0][-1]
        slow = naive_encode(config, params.weights, params.biases, feats)
        assert np.allclose(fast, slow, atol=1e-12, rtol=0.0)

        # Backward must scatter every clamped slot of layer 1 back onto its
        # source frame, which layer 0's weight gradient reads.
        linear = linear_under(LayerSpec((-2, 0, 3), 3, "identity"), 2, rng)
        upstream = rng.normal(size=(n_frames, 3))

        def loss():
            return float((encode_one(linear, feats)[0][-1] * upstream).sum())

        d_w, d_b = encode_backward(linear, *encode_one(linear, feats), upstream, Workspace())
        for l in range(2):
            assert max_relative_error(d_w[l], central_difference(loss, linear.weights[l])) < 1e-6
            assert max_relative_error(d_b[l], central_difference(loss, linear.biases[l])) < 1e-6


class TestPackedUtterances:
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_packed_batch_equals_utterances_one_by_one(self, lengths, width, seed):
        # No context window crosses into a neighbouring utterance, and the
        # gradients are the per-utterance gradients summed in packing order.
        # Bit for bit, unless a 1-frame utterance or a width of 1 makes NumPy
        # multiply with gemv rather than GEMM.
        rng = np.random.default_rng(seed)
        config = EncoderConfig(width, (LayerSpec((-2, 0, 3), width, "relu"),
                                       LayerSpec((0,), width, "identity"),
                                       LayerSpec((-1, 1), 2, "identity")))
        exact = not edge_shape(lengths, [width, 2])
        params = init_encoder(config, rng)
        utterances = [rng.normal(size=(n, width)) for n in lengths]
        upstreams = [rng.normal(size=(n, 2)) for n in lengths]
        packed, packing = encode_layers(params, np.concatenate(utterances), lengths, Workspace())
        d_w, d_b = encode_backward(params, packed, packing, np.concatenate(upstreams), Workspace())

        want_w = [np.zeros_like(w) for w in params.weights]
        want_b = [np.zeros_like(b) for b in params.biases]
        start = 0
        for feats, upstream in zip(utterances, upstreams):
            alone, alone_packing = encode_one(params, feats)
            for got, want in zip(packed, alone):
                assert_matches(got[start:start + len(feats)], want, exact)
            start += len(feats)
            one_w, one_b = encode_backward(params, alone, alone_packing, upstream, Workspace())
            for l in range(3):
                want_w[l] += one_w[l]
                want_b[l] += one_b[l]
        for l in range(3):
            assert_matches(d_w[l], want_w[l], exact, f"weight {l}")
            assert_matches(d_b[l], want_b[l], exact, f"bias {l}")

    def test_lengths_must_pack_the_frames(self):
        params = init_encoder(two_layer_config(), np.random.default_rng(0))
        with pytest.raises(DimensionError, match="do not pack 5 frames"):
            encode_layers(params, np.zeros((5, 3)), [2, 2], Workspace())
