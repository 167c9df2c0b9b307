"""Hand-checked values and certified gradients for all three loss terms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait import losses
from phonetrait.encoder import EncoderConfig, EncoderParams, LayerSpec
from phonetrait.errors import (
    BatchError,
    ConfigurationError,
    DimensionError,
    NumericGuardError,
)
from phonetrait.losses import (
    LOSS_LOG_HEADER,
    AamConfig,
    LossWeights,
    aam_softmax_loss,
    format_loss_log_line,
    total_loss,
    trait_center_loss,
    trait_verification_loss,
)
from phonetrait.trait_layer import forward_batch, init_projection
from phonetrait.workspace import Workspace

from _oracles import (
    central_difference,
    max_relative_error,
    per_phone_trait_verification_loss,
    traits_center_loss,
)


def naive_verification(enroll, pe, test, pt, alpha, beta):
    """Loop-everything re-statement of the verification objective."""
    n_speakers, n_phones, _ = enroll.shape
    matched = [
        float(((enroll[k, i] - test[k, i]) ** 2).sum())
        for k in range(n_speakers)
        for i in range(n_phones)
        if pe[k, i] and pt[k, i]
    ]
    nearest = []
    for k in range(n_speakers):
        for i in range(n_phones):
            if not pe[k, i]:
                continue
            others = [
                float(((enroll[k, i] - test[h, i]) ** 2).sum())
                for h in range(n_speakers)
                if h != k and pt[h, i]
            ]
            if others:
                nearest.append(min(others))
    loss = 0.0
    if matched:
        loss += alpha * sum(matched) / len(matched)
    if nearest:
        loss -= beta * sum(nearest) / len(nearest)
    return loss


def random_masked_traits(rng, n_speakers=3, n_phones=4, dim=2, p_present=0.7):
    traits = rng.normal(size=(n_speakers, n_phones, dim))
    present = rng.random((n_speakers, n_phones)) < p_present
    present[:, 0] = True  # keep every utterance non-empty
    traits[~present] = 0.0
    return traits, present


def screen_case(rng, kind, n_speakers, n_phones, width, sparse):
    """(enroll, pe, test, pt) of one ``kind`` of nearest-neighbour case."""
    shape = (n_speakers, n_phones, width)
    p_present = 0.4 if sparse else 1.0
    pe = rng.random(shape[:2]) < p_present
    pt = rng.random(shape[:2]) < p_present
    enroll, test = rng.normal(size=shape), rng.normal(size=shape)
    if kind == "binary":
        enroll, test = (rng.integers(0, 2, shape).astype(np.float64) for _ in "et")
    elif kind == "near-tie":
        # Each test trait is another's (or its own), moved by one ulp or not at all.
        test = test[rng.integers(0, n_speakers, n_speakers)]
        step = rng.choice([-np.inf, np.inf], shape)
        test = np.where(rng.random(shape) < 0.5, np.nextafter(test, step), test)
    elif kind == "offset":
        # Traits 1e4 from the origin and 1 to 1e-8 from each other:
        # the scores e.t - |t|^2 / 2 of the candidates, about 5e7 per
        # dimension, may differ in their last digits only.
        scale = 10.0 ** -rng.uniform(0.0, 8.0)
        enroll = 1e4 + scale * enroll
        test = 1e4 + scale * test
    elif kind == "identical-test":
        test = np.broadcast_to(test[:1], shape).copy()
    return enroll, pe, test, pt


def assert_equals_per_phone_loop(enroll, pe, test, pt):
    got = trait_verification_loss(enroll, pe, test, pt, 0.3, 0.7, Workspace())
    want = per_phone_trait_verification_loss(enroll, pe, test, pt, 0.3, 0.7)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for g, w in zip(got[1:], want[1:]):
        assert g.tobytes() == w.tobytes()


def forward_of(traits, present, emb_dim=3, seed=0):
    """``forward_batch`` of utterances whose present phones hold ``traits``:
    one frame per present phone, through an identity encoder, in a workspace
    of its own."""
    n_utts, n_phones, dim = traits.shape
    utts, phones = np.nonzero(present)
    config = EncoderConfig(dim, (LayerSpec((0,), dim, "identity"),))
    encoder = EncoderParams(config, [np.eye(dim)], [np.zeros(dim)])
    projection = init_projection(dim, emb_dim, np.random.default_rng(seed))
    return forward_batch(traits[utts, phones], phones, present.sum(axis=1),
                         [f"u{u}" for u in range(n_utts)], encoder, projection, n_phones,
                         Workspace())


def center_loss_of(traits, present, gamma):
    """``trait_center_loss`` of the deviations and counts that pooling makes of ``traits``."""
    forward = forward_of(traits, present)
    return trait_center_loss(forward.deviations, forward.n_present, gamma)


class TestConfigs:
    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            LossWeights(alpha=-1.0)

    def test_defaults(self):
        w = LossWeights()
        assert (w.alpha, w.beta, w.gamma) == (0.0007, 0.00001, 0.0001)

    def test_margin_range(self):
        with pytest.raises(ConfigurationError):
            AamConfig(margin=-0.1)
        with pytest.raises(ConfigurationError):
            AamConfig(margin=math.pi / 2)
        AamConfig(margin=0.0)

    def test_scale_positive(self):
        with pytest.raises(ConfigurationError):
            AamConfig(scale=0.0)


class TestTraitVerification:
    def test_hand_case(self):
        # Scalar traits e=(1, 2), t=(1, 3): attract (0+1)/2, repel (4+1)/2.
        enroll = np.array([[[1.0]], [[2.0]]])
        test = np.array([[[1.0]], [[3.0]]])
        present = np.ones((2, 1), dtype=bool)
        loss, _, _ = trait_verification_loss(enroll, present, test, present, 1.0, 1.0, Workspace())
        assert abs(loss - (-2.0)) < 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        enroll, pe = random_masked_traits(rng)
        test, pt = random_masked_traits(rng)
        loss, _, _ = trait_verification_loss(enroll, pe, test, pt, 0.3, 0.7, Workspace())
        assert abs(loss - naive_verification(enroll, pe, test, pt, 0.3, 0.7)) < 1e-12

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_oracle_agreement_random_masks(self, seed, n_speakers):
        rng = np.random.default_rng(seed)
        enroll, pe = random_masked_traits(rng, n_speakers, p_present=0.5)
        test, pt = random_masked_traits(rng, n_speakers, p_present=0.5)
        loss, _, _ = trait_verification_loss(enroll, pe, test, pt, 1.0, 1.0, Workspace())
        assert abs(loss - naive_verification(enroll, pe, test, pt, 1.0, 1.0)) < 1e-10

    @pytest.mark.parametrize("n_speakers, n_phones, width, integer", [
        # The training shapes K=64 and K=10, and K=23 between them. The ids
        # name the blocks in which the loss once built its distance table.
        pytest.param(64, 40, 16, False, id="k64-one-speaker-per-block"),
        pytest.param(23, 40, 16, False, id="k23-partial-last-block"),
        pytest.param(10, 20, 16, False, id="k10-one-block"),
        # 0/1 traits tie for the nearest test speaker: argmin keeps the lowest.
        pytest.param(23, 40, 4, True, id="tied-nearest"),
        pytest.param(30, 1, 1, False, id="one-phone-width-one"),
    ])
    def test_blocked_distances_equal_the_per_phone_loop(self, n_speakers, n_phones, width,
                                                        integer):
        rng = np.random.default_rng(n_speakers * width)
        enroll, pe = random_masked_traits(rng, n_speakers, n_phones, width, p_present=0.7)
        test, pt = random_masked_traits(rng, n_speakers, n_phones, width, p_present=0.7)
        if integer:
            enroll = np.round(enroll).clip(0, 1) * pe[:, :, None]
            test = np.round(test).clip(0, 1) * pt[:, :, None]
        assert_equals_per_phone_loop(enroll, pe, test, pt)

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["normal", "binary", "near-tie", "offset", "identical-test"]),
           st.integers(2, 9), st.integers(1, 4), st.integers(1, 5), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_screen_keeps_every_bit_of_the_per_phone_loop(self, seed, kind, n_speakers,
                                                          n_phones, width, sparse):
        # Ties, one-ulp near-ties, scores that cancel and equal test traits
        # are where the screen's bound must hand a row to the exact fallback.
        enroll, pe, test, pt = screen_case(np.random.default_rng(seed), kind, n_speakers,
                                           n_phones, width, sparse)
        assert_equals_per_phone_loop(enroll, pe, test, pt)

    @pytest.mark.parametrize("kind, decided", [("identical-test", False), ("separated", True)])
    def test_screen_decides_or_falls_back(self, kind, decided):
        # Equal test traits tie for every nearest speaker, so no row clears
        # the bound; test traits 10 apart, each enrollment within 1 of its
        # own speaker's, leave no near-tie.
        rng = np.random.default_rng(5)
        if kind == "identical-test":
            enroll, pe, test, pt = screen_case(rng, kind, 12, 6, 3, False)
        else:
            test = np.arange(12.0)[:, None, None] * np.ones((1, 6, 3)) * 10.0
            enroll = test + rng.uniform(-1.0, 1.0, test.shape)
            pe = pt = np.ones((12, 6), dtype=bool)
        _, screened = losses._gram_screen(enroll, test, pt, Workspace())
        assert (screened == decided).all()
        assert_equals_per_phone_loop(enroll, pe, test, pt)

    def test_candidate_whose_distance_overflows_is_dropped(self):
        # Speaker 1's one candidate is speaker 2, 2e154 away: the squared
        # distance overflows, so no bound decides the row and its exact
        # distances are all inf. It must be dropped, not matched to the
        # absent test trait of speaker 0, which lies a finite 1e154 away.
        enroll = np.array([[[0.0]], [[1e154]], [[-1e154]]])
        test = np.array([[[0.0]], [[0.0]], [[-1e154]]])
        pe = np.array([[False], [True], [True]])
        pt = np.array([[False], [False], [True]])
        with np.errstate(over="ignore"):
            assert_equals_per_phone_loop(enroll, pe, test, pt)

    def test_peak_memory_stays_below_a_candidates_copy(self):
        # At K=64, I=40, D1=16 the (K, I, K) distances take 1.3 MB; a second
        # (K, K, I) candidates table or a whole (K, K, I, D1) difference
        # tensor would push the call's peak past 4 MB.
        rng = np.random.default_rng(64)
        enroll, pe = random_masked_traits(rng, 64, 40, 16)
        test, pt = random_masked_traits(rng, 64, 40, 16)
        tracemalloc.start()
        try:
            trait_verification_loss(enroll, pe, test, pt, 0.3, 0.7, Workspace())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        enroll, pe = random_masked_traits(rng)
        test, pt = random_masked_traits(rng)

        def loss():
            value, _, _ = trait_verification_loss(enroll, pe, test, pt, 0.4, 0.2, Workspace())
            return value

        _, d_enroll, d_test = trait_verification_loss(enroll, pe, test, pt, 0.4, 0.2, Workspace())
        assert max_relative_error(d_enroll, central_difference(loss, enroll)) < 1e-6
        assert max_relative_error(d_test, central_difference(loss, test)) < 1e-6

    def test_no_matched_pairs_drops_attractive_term(self):
        enroll = np.zeros((2, 2, 1))
        test = np.zeros((2, 2, 1))
        enroll[:, 0] = [[1.0], [5.0]]
        test[:, 1] = [[2.0], [3.0]]
        pe = np.array([[True, False], [True, False]])
        pt = np.array([[False, True], [False, True]])
        loss, _, _ = trait_verification_loss(enroll, pe, test, pt, 100.0, 1.0, Workspace())
        # No phone present on both sides of a speaker, so only repulsion; that
        # term is empty too (candidates need the same phone on the test side).
        assert loss == 0.0

    def test_no_cross_speaker_candidates_drops_repulsive_term(self):
        # Each phone owned by exactly one speaker: nothing to repel from.
        enroll = np.zeros((2, 2, 1))
        test = np.zeros((2, 2, 1))
        enroll[0, 0], enroll[1, 1] = [1.0], [4.0]
        test[0, 0], test[1, 1] = [3.0], [8.0]
        pe = np.array([[True, False], [False, True]])
        pt = pe.copy()
        loss, _, _ = trait_verification_loss(enroll, pe, test, pt, 1.0, 1000.0, Workspace())
        assert abs(loss - (4.0 + 16.0) / 2.0) < 1e-12

    def test_nearest_competitor_is_selected(self):
        # Speaker 0's phone-0 trait at 0; competitors at 10 and 1: min picks 1.
        enroll = np.array([[[0.0]], [[10.0]], [[100.0]]])
        test = np.array([[[0.0]], [[10.0]], [[1.0]]])
        present = np.ones((3, 1), dtype=bool)
        loss, _, _ = trait_verification_loss(enroll, present, test, present, 0.0, 1.0, Workspace())
        # mins: speaker0 -> (0-1)^2=1; speaker1 -> (10-1)^2=81; speaker2 -> (100-10)^2=8100
        assert abs(loss - (-(1.0 + 81.0 + 8100.0) / 3.0)) < 1e-12

    def test_single_speaker_rejected(self):
        one = np.ones((1, 2, 2))
        mask = np.ones((1, 2), dtype=bool)
        with pytest.raises(BatchError):
            trait_verification_loss(one, mask, one, mask, 1.0, 1.0, Workspace())


class TestTraitCenter:
    def test_hand_case_per_side(self):
        # Present scalar traits {1, 3}: center 2, squared deviations sum to 2,
        # divided by 2 present traits -> 1 per side.
        traits = np.array([[[1.0], [3.0]]])
        present = np.ones((1, 2), dtype=bool)
        loss, _ = center_loss_of(traits, present, 1.0)
        assert abs(loss - 1.0) < 1e-12

    def test_shared_denominator_across_utterances(self):
        # Utterance A deviates, B is a single trait (no deviation); the sum
        # still divides by the combined present count 3.
        traits = np.zeros((2, 2, 1))
        traits[0] = [[1.0], [3.0]]
        traits[1, 0] = [5.0]
        present = np.array([[True, True], [True, False]])
        loss, _ = center_loss_of(traits, present, 1.0)
        assert abs(loss - 2.0 / 3.0) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        traits, present = random_masked_traits(rng)

        def loss():
            value, _ = center_loss_of(traits, present, 0.8)
            return value

        _, d_traits = center_loss_of(traits, present, 0.8)
        assert max_relative_error(d_traits, central_difference(loss, traits)) < 1e-6

    def test_gamma_zero(self):
        rng = np.random.default_rng(2)
        traits, present = random_masked_traits(rng)
        loss, d_traits = center_loss_of(traits, present, 0.0)
        assert loss == 0.0
        assert not d_traits.any()


class TestAamSoftmax:
    def test_hand_case_no_margin(self):
        # Unit scale, no margin, cosines (1, 0) for the true class first:
        # loss = ln(1 + e^-1).
        x = np.array([[1.0, 0.0]])
        w = np.eye(2)
        loss, _, _ = aam_softmax_loss(x, np.array([0]), w, AamConfig(margin=0.0, scale=1.0))
        assert abs(loss - math.log(1.0 + math.exp(-1.0))) < 1e-12

    def test_margin_raises_loss(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(3, 5))
        y = np.array([0, 1, 2, 0])
        plain, _, _ = aam_softmax_loss(x, y, w, AamConfig(margin=0.0, scale=10.0))
        margined, _, _ = aam_softmax_loss(x, y, w, AamConfig(margin=0.3, scale=10.0))
        assert margined > plain

    def test_scale_invariant_to_embedding_norm(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        y = np.array([0, 1, 0])
        cfg = AamConfig(margin=0.2, scale=30.0)
        a, _, _ = aam_softmax_loss(x, y, w, cfg)
        b, _, _ = aam_softmax_loss(x * 7.5, y, w * 0.2, cfg)
        assert abs(a - b) < 1e-9

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(3, 5))
        y = np.array([0, 2, 1, 1])
        cfg = AamConfig(margin=0.2, scale=30.0)

        def loss():
            value, _, _ = aam_softmax_loss(x, y, w, cfg)
            return value

        _, d_x, d_w = aam_softmax_loss(x, y, w, cfg)
        assert max_relative_error(d_x, central_difference(loss, x)) < 1e-5
        assert max_relative_error(d_w, central_difference(loss, w)) < 1e-5

    def test_no_margin_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 4))
        y = np.array([3, 0, 2])
        cfg = AamConfig(margin=0.0, scale=5.0)

        def loss():
            value, _, _ = aam_softmax_loss(x, y, w, cfg)
            return value

        _, d_x, d_w = aam_softmax_loss(x, y, w, cfg)
        assert max_relative_error(d_x, central_difference(loss, x)) < 1e-6
        assert max_relative_error(d_w, central_difference(loss, w)) < 1e-6

    def test_tiny_margin_approaches_no_margin(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        y = np.array([0, 1, 1])
        a, gx_a, gw_a = aam_softmax_loss(x, y, w, AamConfig(margin=0.0, scale=8.0))
        b, gx_b, gw_b = aam_softmax_loss(x, y, w, AamConfig(margin=1e-9, scale=8.0))
        assert abs(a - b) < 1e-6
        assert np.allclose(gx_a, gx_b, atol=1e-6)
        assert np.allclose(gw_a, gw_b, atol=1e-6)

    def test_zero_norm_embedding_rejected(self):
        x = np.zeros((1, 3))
        w = np.eye(3)
        with pytest.raises(NumericGuardError):
            aam_softmax_loss(x, np.array([0]), w, AamConfig())

    def test_label_out_of_range(self):
        x = np.ones((1, 3))
        w = np.eye(3)
        with pytest.raises(ConfigurationError):
            aam_softmax_loss(x, np.array([3]), w, AamConfig())

    def test_batch_mean_is_stable_under_duplication(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4))
        w = rng.normal(size=(2, 4))
        y = np.array([0, 1])
        cfg = AamConfig(margin=0.2, scale=30.0)
        single, _, _ = aam_softmax_loss(x, y, w, cfg)
        doubled, _, _ = aam_softmax_loss(
            np.vstack([x, x]), np.concatenate([y, y]), w, cfg
        )
        assert abs(single - doubled) < 1e-12


def make_pair_batch(rng, n_speakers=3, n_phones=4, dim=2, emb_dim=3):
    """A pair batch's forward pass over random masked traits, and its class labels."""
    traits, present = random_masked_traits(rng, 2 * n_speakers, n_phones, dim)
    return forward_of(traits, present, emb_dim), np.arange(n_speakers)


class TestTotalLoss:
    def test_components_sum(self):
        rng = np.random.default_rng(13)
        batch, labels = make_pair_batch(rng)
        class_weights = rng.normal(size=(3, 3))
        out = total_loss(batch, labels, LossWeights(0.5, 0.25, 0.125), AamConfig(), class_weights,
                         workspace=Workspace())

        veri, _, _ = trait_verification_loss(
            batch.traits[:3], batch.present[:3],
            batch.traits[3:], batch.present[3:], 0.5, 0.25, Workspace(),
        )
        center_e, _ = trait_center_loss(batch.deviations[:3], batch.n_present[:3], 0.125)
        center_t, _ = trait_center_loss(batch.deviations[3:], batch.n_present[3:], 0.125)
        aam, _, _ = aam_softmax_loss(
            batch.embeddings, np.concatenate([labels, labels]), class_weights, AamConfig(),
        )
        assert abs(out.verification - veri) < 1e-12
        assert abs(out.center - (center_e + center_t)) < 1e-12
        assert abs(out.classification - aam) < 1e-12
        assert abs(out.total - (veri + center_e + center_t + aam)) < 1e-12

    def test_without_classification(self):
        rng = np.random.default_rng(14)
        batch, labels = make_pair_batch(rng)
        class_weights = rng.normal(size=(3, 3))
        out = total_loss(batch, labels, LossWeights(1.0, 1.0, 1.0), AamConfig(), class_weights,
                         with_classification=False, workspace=Workspace())
        assert out.classification == 0.0
        assert out.d_embeddings.shape == (6, 3)
        assert not out.d_embeddings.any()
        assert not out.d_class_weights.any()
        assert abs(out.total - (out.verification + out.center)) < 1e-12

    def test_trait_gradient_combines_both_terms(self):
        rng = np.random.default_rng(15)
        batch, labels = make_pair_batch(rng)
        class_weights = rng.normal(size=(3, 3))
        out = total_loss(batch, labels, LossWeights(0.5, 0.25, 0.125), AamConfig(), class_weights,
                         workspace=Workspace())
        _, d_veri_e, d_veri_t = trait_verification_loss(
            batch.traits[:3], batch.present[:3],
            batch.traits[3:], batch.present[3:], 0.5, 0.25, Workspace(),
        )
        _, d_center_e = trait_center_loss(batch.deviations[:3], batch.n_present[:3], 0.125)
        _, d_center_t = trait_center_loss(batch.deviations[3:], batch.n_present[3:], 0.125)
        assert np.allclose(out.d_traits[:3], d_veri_e + d_center_e, atol=1e-12)
        assert np.allclose(out.d_traits[3:], d_veri_t + d_center_t, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.integers(1, 10),
           st.integers(1, 5), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_center_term_equals_the_traits_oracle_bit_for_bit(self, seed, n_speakers, n_phones,
                                                             dim, p_present):
        # The center term reads pooling's deviations and counts; it must equal
        # the loss that takes its centers afresh from the traits, byte for byte.
        rng = np.random.default_rng(seed)
        traits, present = random_masked_traits(rng, 2 * n_speakers, n_phones, dim, p_present)
        batch = forward_of(traits, present)
        weights = LossWeights(0.5, 0.25, 0.125)
        out = total_loss(batch, np.arange(n_speakers), weights, AamConfig(),
                         rng.normal(size=(n_speakers, 3)), workspace=Workspace())
        k = n_speakers
        want_e, d_center_e = traits_center_loss(traits[:k], present[:k], weights.gamma)
        want_t, d_center_t = traits_center_loss(traits[k:], present[k:], weights.gamma)
        _, d_veri_e, d_veri_t = trait_verification_loss(
            traits[:k], present[:k], traits[k:], present[k:], weights.alpha, weights.beta,
            Workspace())
        assert out.center == want_e + want_t
        assert out.d_traits.tobytes() == np.concatenate(
            [d_veri_e + d_center_e, d_veri_t + d_center_t]).tobytes()

    def test_single_speaker_batch_rejected(self):
        rng = np.random.default_rng(16)
        batch, labels = make_pair_batch(rng, n_speakers=1)
        with pytest.raises(BatchError):
            total_loss(batch, labels, LossWeights(), AamConfig(), rng.normal(size=(3, 3)),
                       workspace=Workspace())

    def test_duplicate_speakers_rejected(self):
        rng = np.random.default_rng(17)
        batch, _ = make_pair_batch(rng, n_speakers=2)
        with pytest.raises(BatchError, match="distinct"):
            total_loss(batch, np.array([0, 0]), LossWeights(), AamConfig(),
                       rng.normal(size=(3, 3)), workspace=Workspace())

    def test_shape_mismatch_rejected(self):
        # Two labels for a batch of three speakers' six utterances: the
        # classification term or else the verification term rejects them.
        rng = np.random.default_rng(18)
        batch, _ = make_pair_batch(rng, n_speakers=3)
        for with_classification in (True, False):
            with pytest.raises(DimensionError):
                total_loss(batch, np.array([0, 1]), LossWeights(), AamConfig(),
                           rng.normal(size=(3, 3)), with_classification, workspace=Workspace())


class TestLossLog:
    def test_header(self):
        assert LOSS_LOG_HEADER == "step,L_all,L_AAM,L_veri,L_center"

    def test_line_format(self):
        line = format_loss_log_line(3, 1.5, 0.5, 0.75, 0.25)
        assert line == "3,1.5,0.5,0.75,0.25"
