"""Pair-batch SGD training loop, gradient certification, checkpoints."""

import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait import encoder, presets, trait_layer, training
from phonetrait.corpus import (
    CMU_PHONES,
    NON_VERBAL,
    CorpusIndex,
    PhoneAlignment,
    PhoneInventory,
    UtteranceFeatures,
    default_inventory,
    generate_corpus,
)
from phonetrait.encoder import EncoderConfig, LayerSpec
from phonetrait.errors import (
    BatchError,
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EmptyUtteranceError,
    ParseError,
)
from phonetrait.losses import AamConfig, LossWeights
from phonetrait.trait_layer import forward_batch
from phonetrait.training import (
    CHECKPOINT_MAGIC,
    GradCheckReport,
    ModelConfig,
    ModelState,
    TrainConfig,
    batch_loss_and_grads,
    compare_gradient_tables,
    grad_check,
    init_model,
    load_checkpoint,
    numeric_gradients,
    parameter_arrays,
    sample_pair_batch,
    save_checkpoint,
    train,
    train_epochs,
)
from phonetrait.workspace import Workspace

from _entry import package_env
from _oracles import (
    assert_matches,
    choice_sample_pair_batch,
    edge_shape,
    per_utterance_loss_and_grads,
    ragged_corpus,
)


def tiny_setup(seed=0, n_speakers=4, utts=3, dim=3):
    inventory = PhoneInventory(CMU_PHONES[:5] + (NON_VERBAL,))
    features, alignments, _ = generate_corpus(
        n_speakers, utts, inventory, dim, (2, 4), (4, 8), 0.3, seed
    )
    index = CorpusIndex.build(features, alignments)
    model_cfg = ModelConfig(EncoderConfig(dim, (LayerSpec((-1, 0, 1), 4, "relu"),)), 3)
    return inventory, index, model_cfg


def quick_train_cfg(**overrides):
    base = dict(
        epochs=2, steps_per_epoch=3, speakers_per_batch=3,
        learning_rate=0.01, momentum=0.9, seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigs:
    def test_train_config_validation(self):
        with pytest.raises(ConfigurationError):
            quick_train_cfg(epochs=0)
        with pytest.raises(ConfigurationError):
            quick_train_cfg(speakers_per_batch=1)
        with pytest.raises(ConfigurationError):
            quick_train_cfg(learning_rate=-0.1)
        with pytest.raises(ConfigurationError):
            quick_train_cfg(momentum=1.0)
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            quick_train_cfg(seed=-1)
        quick_train_cfg(learning_rate=0.0)  # frozen model is allowed

    def test_model_config(self):
        enc = EncoderConfig(3, (LayerSpec((0,), 7, "relu"),))
        state = init_model(ModelConfig(enc, 4), 2, seed=0)
        assert state.config == ModelConfig(enc, 4)
        assert state.projection.trait_dim == 7
        with pytest.raises(ConfigurationError):
            ModelConfig(enc, 0)


class TestInitModel:
    def test_deterministic(self):
        _, _, model_cfg = tiny_setup()
        a = init_model(model_cfg, 4, seed=3)
        b = init_model(model_cfg, 4, seed=3)
        c = init_model(model_cfg, 4, seed=4)
        for name, arr in parameter_arrays(a).items():
            assert np.array_equal(arr, parameter_arrays(b)[name])
        assert not np.array_equal(a.class_weights, c.class_weights)

    def test_class_weight_bounds(self):
        _, _, model_cfg = tiny_setup()
        state = init_model(model_cfg, 10, seed=0)
        bound = 1.0 / np.sqrt(model_cfg.embedding_dim)
        assert np.all(np.abs(state.class_weights) <= bound)
        assert state.n_classes == 10

    def test_n_classes_validated(self):
        _, _, model_cfg = tiny_setup()
        with pytest.raises(ConfigurationError):
            init_model(model_cfg, 0, seed=0)

    def test_parameter_arrays_are_live_views(self):
        _, _, model_cfg = tiny_setup()
        state = init_model(model_cfg, 3, seed=0)
        params = parameter_arrays(state)
        assert sorted(params) == [
            "class_weights", "encoder_bias_0", "encoder_weight_0",
            "projection_bias", "projection_weight",
        ]
        params["projection_bias"][0] = 42.0
        assert state.projection.bias[0] == 42.0


class TestSampling:
    def test_batch_structure(self):
        _, index, _ = tiny_setup()
        sel = sample_pair_batch(index, 3, np.random.default_rng(0))
        speakers = [index.speakers[label] for label in sel.class_labels]
        assert len(set(speakers)) == 3
        for speaker, e, t in zip(speakers, sel.enroll_utts, sel.test_utts, strict=True):
            assert e != t
            assert index.features[e].speaker_id == speaker
            assert index.features[t].speaker_id == speaker

    def test_single_utterance_speakers_ineligible(self):
        inventory = PhoneInventory(CMU_PHONES[:5] + (NON_VERBAL,))
        features, alignments, _ = generate_corpus(
            3, 2, inventory, 3, (2, 4), (4, 8), 0.3, seed=0
        )
        # strip speaker spk000 down to one utterance
        features = [f for f in features if f.utterance_id != "spk000_u000"]
        alignments = [a for a in alignments if a.utterance_id != "spk000_u000"]
        index = CorpusIndex.build(features, alignments)
        for _ in range(5):
            sel = sample_pair_batch(index, 2, np.random.default_rng(1))
            assert index.class_label("spk000") not in sel.class_labels
        with pytest.raises(BatchError):
            sample_pair_batch(index, 3, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        _, index, _ = tiny_setup()
        a = sample_pair_batch(index, 3, np.random.default_rng(7))
        b = sample_pair_batch(index, 3, np.random.default_rng(7))
        assert (a.class_labels.tolist(), a.enroll_utts, a.test_utts) == \
               (b.class_labels.tolist(), b.enroll_utts, b.test_utts)


def assert_steps_match_oracle(index, k, seed, steps):
    """``steps`` batches from one generator against the per-call oracle's from
    a twin: the same batches, and the generators in one state after each."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(steps):
        sel = sample_pair_batch(index, k, rng)
        assert (sel.class_labels.tolist(), sel.enroll_utts, sel.test_utts) == \
            choice_sample_pair_batch(index, k, twin)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestSamplingMatchesPerCallOracle:
    # Speakers with one utterance (never sampled), two and many.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)), min_size=2,
                    max_size=12),
           st.integers(0, 2 ** 63), st.integers(1, 4), st.data())
    def test_random_corpora(self, utt_counts, seed, steps, data):
        index = CorpusIndex.build(*ragged_corpus(utt_counts))
        eligible = len(index.pair_speakers[0])
        if eligible >= 2:
            k = data.draw(st.integers(2, eligible))
            assert_steps_match_oracle(index, k, seed, steps)

    @pytest.mark.parametrize("k", [10, 64])
    def test_300_steps_leave_numpys_state(self, k):
        # 100 speakers, 80 of them with two or more utterances.
        index = CorpusIndex.build(*ragged_corpus([1, 2, 3, 5, 8] * 20))
        assert_steps_match_oracle(index, k, seed=23, steps=300)


@pytest.fixture(scope="module")
def desk_setup():
    """The desk corpus index, inventory, model config and train config."""
    inventory = default_inventory()
    features, alignments, _ = generate_corpus(**presets.desk_corpus_kwargs(inventory))
    return (inventory, CorpusIndex.build(features, alignments), presets.desk_model_config(),
            presets.desk_train_config())


@pytest.fixture(scope="module")
def k64_setup():
    """The desk corpus at 80 speakers x 4 utterances (train-k64's shape), and
    the desk inventory, model config and train config."""
    inventory = default_inventory()
    kwargs = presets.desk_corpus_kwargs(inventory)
    kwargs.update(n_speakers=80, utts_per_speaker=4)
    features, alignments, _ = generate_corpus(**kwargs)
    return (inventory, CorpusIndex.build(features, alignments), presets.desk_model_config(),
            presets.desk_train_config())


_OFFSETS = ((0,), (-2, 0, 3), (-1, 0, 1), (0, 2))


@st.composite
def step_inputs(draw, edges=True):
    """A K-speaker, two-utterance corpus of ragged lengths (one of 1 frame) and a model.

    Up to 12 phones and 24 frames an utterance, so some utterances have 9 or
    more present traits: from there on, a pooled mean summed in any other
    grouping than over the utterance's own N x D1 rows differs in the last
    bits. Without ``edges``, every utterance has 2 frames or more and every
    layer and the embedding are 2 wide or more.
    """
    least = 1 if edges else 2
    n_speakers = draw(st.integers(2, 12))
    n_phones = draw(st.integers(2, 12))
    input_dim = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(least, 24), min_size=2 * n_speakers,
                            max_size=2 * n_speakers))
    if edges:
        lengths[draw(st.integers(0, 2 * n_speakers - 1))] = 1
    layers = tuple(
        LayerSpec(draw(st.sampled_from(_OFFSETS)), draw(st.integers(least, 4)),
                  draw(st.sampled_from(("relu", "identity"))))
        for _ in range(draw(st.integers(1, 3)))
    )
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    features, alignments = [], []
    for u, n_frames in enumerate(lengths):
        utt = f"spk{u // 2:02d}_u{u % 2}"
        features.append(UtteranceFeatures(utt, f"spk{u // 2:02d}",
                                          rng.normal(size=(n_frames, input_dim))))
        phones = rng.integers(0, n_phones, size=n_frames)
        alignments.append(PhoneAlignment(utt, [(t, t + 1, int(p)) for t, p in enumerate(phones)]))
    model_cfg = ModelConfig(EncoderConfig(input_dim, layers), draw(st.integers(least, 3)))
    return (CorpusIndex.build(features, alignments), model_cfg, n_phones, seed,
            draw(st.booleans()))


def forward_selection(state, index, sel, n_phones):
    """The forward pass of ``sel`` that a step makes, in a workspace of its own,
    so no backward pass overwrites its deviations."""
    utts = sel.enroll_utts + sel.test_utts
    workspace = Workspace()
    return forward_batch(*index.pack(utts, workspace), utts, state.encoder, state.projection,
                         n_phones, workspace)


class TestBatchGradients:
    def certify(self, with_classification):
        inventory, index, model_cfg = tiny_setup()
        state = init_model(model_cfg, len(index.speakers), seed=1)
        sel = sample_pair_batch(index, 3, np.random.default_rng(2))
        weights = LossWeights(alpha=0.05, beta=0.02, gamma=0.03)
        aam = AamConfig(margin=0.2, scale=30.0)
        workspace = Workspace()

        def step():
            return batch_loss_and_grads(state, index, sel, weights, aam, inventory.size,
                                        with_classification, workspace=workspace)

        _, analytic = step()
        numeric = numeric_gradients(lambda: step()[0].total, parameter_arrays(state), 1e-5)
        return compare_gradient_tables(analytic, numeric, tolerance=1e-4)

    def test_full_loss_gradients(self):
        report = self.certify(with_classification=True)
        assert report.passed, report.lines()

    def test_ablated_loss_gradients(self):
        report = self.certify(with_classification=False)
        assert report.passed, report.lines()

    def test_each_utterance_is_forwarded_once(self, monkeypatch):
        # The pair batch runs through the encoder as one packed batch, forward
        # and backward, and reads frame phones the index expanded once.
        inventory, index, model_cfg = tiny_setup()
        state = init_model(model_cfg, len(index.speakers), seed=1)
        sel = sample_pair_batch(index, 3, np.random.default_rng(2))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        encode = counted("encode_layers", encoder.encode_layers)
        monkeypatch.setattr(encoder, "encode_layers", encode)
        monkeypatch.setattr(trait_layer, "encode_layers", encode)
        backward = counted("encode_backward", encoder.encode_backward)
        monkeypatch.setattr(encoder, "encode_backward", backward)
        monkeypatch.setattr(training, "encode_backward", backward)
        monkeypatch.setattr(PhoneAlignment, "frame_phones",
                            counted("frame_phones", PhoneAlignment.frame_phones))
        batch_loss_and_grads(state, index, sel, LossWeights(), AamConfig(), inventory.size,
                             workspace=Workspace())
        assert calls == {"encode_layers": 1, "encode_backward": 1}

    @given(step_inputs())
    @settings(max_examples=60, deadline=None)
    def test_batched_step_matches_per_utterance_oracle(self, inputs):
        # Every case has a 1-frame utterance, so it matches the oracle within
        # EDGE_TOLERANCE; the test below matches it bit for bit.
        self.assert_step_matches_per_utterance_oracle(inputs)

    @given(step_inputs(edges=False))
    @settings(max_examples=30, deadline=None)
    def test_batched_step_without_edge_shapes_matches_oracle_bit_for_bit(self, inputs):
        # Bit for bit, not within a tolerance: the desk experiment's
        # trajectory depends on every gradient's summation order.
        self.assert_step_matches_per_utterance_oracle(inputs)

    @staticmethod
    def assert_step_matches_per_utterance_oracle(inputs):
        index, model_cfg, n_phones, seed, with_classification = inputs
        exact = not edge_shape([utt.n_frames for utt in index.features.values()],
                               [layer.output_dim for layer in model_cfg.encoder.layers]
                               + [model_cfg.embedding_dim])
        state = init_model(model_cfg, len(index.speakers), seed=seed)
        sel = sample_pair_batch(index, len(index.speakers), np.random.default_rng(seed))
        weights, aam = LossWeights(0.05, 0.02, 0.03), AamConfig()
        try:
            want, want_grads, want_batch = per_utterance_loss_and_grads(
                state, index, sel, weights, aam, n_phones, with_classification)
        except EmptyUtteranceError:
            with pytest.raises(EmptyUtteranceError):
                batch_loss_and_grads(state, index, sel, weights, aam, n_phones,
                                     with_classification, workspace=Workspace())
            return
        got, got_grads = batch_loss_and_grads(state, index, sel, weights, aam, n_phones,
                                              with_classification, workspace=Workspace())
        got_batch = forward_selection(state, index, sel, n_phones)
        for term in ("total", "classification", "verification", "center"):
            assert_matches(getattr(got, term), getattr(want, term), exact, term)
        assert sorted(got_grads) == sorted(want_grads)
        for name, grad in want_grads.items():
            assert_matches(got_grads[name], grad, exact, name)
        assert np.array_equal(got_batch.present, want_batch.present)
        assert np.array_equal(got_batch.n_present, want_batch.n_present)
        for name in ("traits", "deviations", "embeddings"):
            assert_matches(getattr(got_batch, name), getattr(want_batch, name), exact, name)

    @staticmethod
    def assert_step_matches_oracle(setup, k, selection_seed, traits_shape):
        """One K-speaker step on ``setup``'s corpus, with traits of
        ``traits_shape``, equals the per-utterance oracle byte for byte."""
        inventory, index, model_cfg, train_cfg = setup
        state = init_model(model_cfg, len(index.speakers), seed=train_cfg.seed)
        sel = sample_pair_batch(index, k, np.random.default_rng(selection_seed))
        args = (state, index, sel, train_cfg.weights, train_cfg.aam, inventory.size)
        want, want_grads, want_batch = per_utterance_loss_and_grads(*args)
        got, got_grads = batch_loss_and_grads(*args, workspace=Workspace())
        got_batch = forward_selection(state, index, sel, inventory.size)
        assert got_batch.traits.shape == traits_shape
        for term in ("total", "classification", "verification", "center"):
            assert getattr(got, term) == getattr(want, term), term
        assert sorted(got_grads) == sorted(want_grads)
        for name, grad in want_grads.items():
            assert got_grads[name].tobytes() == grad.tobytes(), name
        for name in ("traits", "present", "n_present", "deviations", "embeddings"):
            assert getattr(got_batch, name).tobytes() == getattr(want_batch, name).tobytes(), name

    @pytest.mark.parametrize("selection_seed", [0, 1, 2])
    def test_desk_step_matches_per_utterance_oracle(self, desk_setup, selection_seed):
        # The desk shape (K=10, I=40, D1=16, ~2.2k frames) is out of the
        # property test's reach: it stacks 40 phones of width 16.
        self.assert_step_matches_oracle(desk_setup, 10, selection_seed, (20, 40, 16))

    def test_k64_step_matches_per_utterance_oracle(self, k64_setup):
        # K=64 is the benchmark's train-k64 shape, and its ~13.5k frames fill
        # the step workspace's largest buffers.
        self.assert_step_matches_oracle(k64_setup, 64, 0, (128, 40, 16))

    def test_grad_check_wrapper(self):
        inventory, index, model_cfg = tiny_setup()
        state = init_model(model_cfg, len(index.speakers), seed=1)
        sel = sample_pair_batch(index, 2, np.random.default_rng(3))
        report = grad_check(
            state, index, sel, LossWeights(0.05, 0.02, 0.03), AamConfig(),
            inventory.size, step_size=1e-5, tolerance=1e-4,
        )
        assert report.passed
        assert report.worst < 1e-4
        assert report.lines()[-1].endswith("PASS")


# Trains K speakers a step on the desk corpus (K+16 speakers of 4 utterances
# above its 20) and prints the minor page faults per step after 5 warm-up steps.
_FAULTS_PER_STEP = """
import dataclasses, resource, sys
from phonetrait import presets, training
from phonetrait.corpus import CorpusIndex, default_inventory, generate_corpus
k, steps = int(sys.argv[1]), int(sys.argv[2])
inventory = default_inventory()
corpus = presets.desk_corpus_kwargs(inventory)
if k > presets.N_SPEAKERS:
    corpus.update(n_speakers=k + 16, utts_per_speaker=4)
features, alignments, _ = generate_corpus(**corpus)
cfg = dataclasses.replace(presets.desk_train_config(), epochs=5 + steps, steps_per_epoch=1,
                          speakers_per_batch=k)
for epoch, _, _ in training.train_epochs(CorpusIndex.build(features, alignments), inventory,
                                         presets.desk_model_config(), cfg):
    if epoch == 5:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
"""


class TestStepWorkspace:
    def test_reused_workspace_matches_fresh_arrays_and_the_oracle(self, desk_setup):
        # The frame count goes down, then up past the first step's, then down:
        # buffers are read short of their tails, then grown. Every step must
        # equal a call on fresh arrays and the per-utterance oracle byte for
        # byte; the oracle, which shares no storage, also catches two roles
        # that share a buffer while both are live.
        inventory, index, model_cfg, train_cfg = desk_setup
        state = init_model(model_cfg, len(index.speakers), seed=train_cfg.seed)
        rng = np.random.default_rng(6)
        selections = [sample_pair_batch(index, k, rng) for k in (6, 2, 10, 3)]
        frames = [sum(index.features[u].n_frames for u in sel.enroll_utts + sel.test_utts)
                  for sel in selections]
        assert frames[1] < frames[0] < frames[2] and frames[3] < frames[2]
        workspace = Workspace()
        for sel in selections:
            args = (state, index, sel, train_cfg.weights, train_cfg.aam, inventory.size)
            got, got_grads = batch_loss_and_grads(*args, workspace=workspace)
            fresh, fresh_grads = batch_loss_and_grads(*args, workspace=Workspace())
            want, want_grads, _ = per_utterance_loss_and_grads(*args)
            for term in ("total", "classification", "verification", "center"):
                assert getattr(got, term) == getattr(fresh, term) == getattr(want, term), term
            for name, grad in want_grads.items():
                assert got_grads[name].tobytes() == grad.tobytes(), name
                assert fresh_grads[name].tobytes() == grad.tobytes(), name

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="counts minor page faults, whose accounting is Linux's")
    @pytest.mark.parametrize("k, steps, bound", [(10, 100, 10), (64, 20, 50)])
    def test_warm_steps_fault_in_no_frame_arrays(self, k, steps, bound):
        # Without the run's workspace a desk step faults in ~280 pages and a
        # K=64 step ~2,070, as glibc returns each step's freed arrays to the
        # kernel and the next step touches them again.
        env = package_env()
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 "1"))
        done = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP, str(k), str(steps)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < bound


class TestTrain:
    def test_history_and_step_count(self):
        inventory, index, model_cfg = tiny_setup()
        state, history = train(index, inventory, model_cfg, quick_train_cfg())
        assert len(history) == 6
        assert state.step == 6
        assert [h.epoch for h in history] == [0, 0, 0, 1, 1, 1]
        assert [h.step for h in history] == list(range(6))
        for rec in history:
            assert np.isfinite(rec.total)

    def test_history_grows_with_the_steps_taken(self):
        # Rows are kept for the steps run, not for epochs x steps_per_epoch:
        # a trillion-epoch run yields its first epoch in a few MB.
        inventory, index, model_cfg = tiny_setup()
        cfg = quick_train_cfg(epochs=10 ** 12, steps_per_epoch=1)
        tracemalloc.start()
        try:
            epoch, state, history = next(train_epochs(index, inventory, model_cfg, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (epoch, state.step, len(history)) == (1, 1, 1)
        assert isinstance(history, np.recarray) and history.step.tolist() == [0]
        assert peak < 4 * 2 ** 20

    def test_deterministic(self):
        inventory, index, model_cfg = tiny_setup()
        cfg = quick_train_cfg()
        state_a, hist_a = train(index, inventory, model_cfg, cfg)
        state_b, hist_b = train(index, inventory, model_cfg, cfg)
        for name, arr in parameter_arrays(state_a).items():
            assert np.array_equal(arr, parameter_arrays(state_b)[name])
        assert np.array_equal(hist_a, hist_b)

    def test_zero_learning_rate_freezes_parameters(self):
        inventory, index, model_cfg = tiny_setup()
        cfg = quick_train_cfg(learning_rate=0.0)
        state, _ = train(index, inventory, model_cfg, cfg)
        init_stream, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        fresh = init_model(model_cfg, len(index.speakers), init_stream)
        for name, arr in parameter_arrays(state).items():
            assert np.array_equal(arr, parameter_arrays(fresh)[name])

    def test_epoch_callback_one_based(self):
        inventory, index, model_cfg = tiny_setup()
        seen = []
        train(index, inventory, model_cfg, quick_train_cfg(),
              epoch_callback=lambda epoch, state: seen.append((epoch, state.step)))
        assert seen == [(1, 3), (2, 6)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        inventory, index, model_cfg = tiny_setup()
        cfg = quick_train_cfg(
            epochs=1, steps_per_epoch=10, learning_rate=1e150,
            weights=LossWeights(1.0, 1.0, 1.0),
        )
        with pytest.raises(DivergenceError):
            train(index, inventory, model_cfg, cfg)

    def test_divergence_names_the_gradient_group(self, monkeypatch):
        inventory, index, model_cfg = tiny_setup()
        real = training.batch_loss_and_grads

        def poisoned(*args, **kwargs):
            out, grads = real(*args, **kwargs)
            grads["class_weights"][0, 0] = np.nan
            return out, grads

        monkeypatch.setattr(training, "batch_loss_and_grads", poisoned)
        with pytest.raises(DivergenceError, match="non-finite class_weights gradient at step 0"):
            train(index, inventory, model_cfg, quick_train_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_parameter_group(self):
        inventory, index, model_cfg = tiny_setup()
        with pytest.raises(DivergenceError, match="non-finite encoder_weight_0 after step 0"):
            # The largest finite rate; a non-finite one is refused up front.
            train(index, inventory, model_cfg,
                  quick_train_cfg(learning_rate=np.finfo(np.float64).max))


class TestGradCheckHelpers:
    def test_mismatched_tables_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_gradient_tables({"a": np.ones(2)}, {"b": np.ones(2)}, 1e-4)

    def test_report_fail_line(self):
        report = GradCheckReport(tolerance=1e-4, max_errors={"w": 0.5, "b": 1e-9})
        assert not report.passed
        assert report.worst == 0.5
        assert report.lines()[-1].endswith("FAIL")

    def test_relative_error_floor(self):
        # Both gradients tiny: the 1e-6 floor keeps the ratio tame.
        a = {"w": np.array([1e-9])}
        n = {"w": np.array([2e-9])}
        report = compare_gradient_tables(a, n, 1e-4)
        assert report.max_errors["w"] == pytest.approx(1e-3, rel=1e-6)


class TestCheckpoint:
    def trained_state(self):
        inventory, index, model_cfg = tiny_setup()
        state, _ = train(index, inventory, model_cfg, quick_train_cfg(epochs=1))
        return state, model_cfg

    def test_round_trip_exact(self, tmp_path):
        state, model_cfg = self.trained_state()
        path = tmp_path / "ckpt"
        save_checkpoint(state, model_cfg, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, ModelState)
        assert loaded.config == model_cfg
        assert loaded.step == state.step
        for name, arr in parameter_arrays(state).items():
            assert np.array_equal(arr, parameter_arrays(loaded)[name])
        save_checkpoint(loaded, loaded.config, tmp_path / "again")
        assert path.read_bytes() == (tmp_path / "again").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ckpt"
        path.write_text("something else\n")
        with pytest.raises(ParseError, match="ckpt:1"):
            load_checkpoint(path)

    def test_truncated_tensor(self, tmp_path):
        state, model_cfg = self.trained_state()
        path = tmp_path / "ckpt"
        save_checkpoint(state, model_cfg, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "cut")

    def test_missing_tensor(self, tmp_path):
        state, model_cfg = self.trained_state()
        path = tmp_path / "ckpt"
        save_checkpoint(state, model_cfg, path)
        lines = path.read_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("tensor class_weights"))
        (tmp_path / "cut").write_text("\n".join(lines[:start]) + "\n")
        with pytest.raises(ParseError, match="class_weights"):
            load_checkpoint(tmp_path / "cut")

    def test_duplicate_tensor_rejected(self, tmp_path):
        state, model_cfg = self.trained_state()
        path = tmp_path / "ckpt"
        save_checkpoint(state, model_cfg, path)
        lines = path.read_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("tensor class_weights"))
        n_rows = int(lines[start].split()[2])
        block = lines[start:start + 1 + n_rows]
        # A second copy would silently win if the loader kept the last block.
        nan_copy = [block[0]] + [" ".join(["nan"] * len(r.split())) for r in block[1:]]
        (tmp_path / "dup").write_text("\n".join(lines + nan_copy) + "\n")
        with pytest.raises(ParseError, match="duplicate tensor 'class_weights'"):
            load_checkpoint(tmp_path / "dup")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        state, model_cfg = self.trained_state()
        path = tmp_path / "ckpt"
        save_checkpoint(state, model_cfg, path)
        lines = path.read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("tensor class_weights")) + 1
        values = lines[row].split()
        values[-1] = bad
        lines[row] = " ".join(values)
        (tmp_path / "bad").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"bad:{row + 1}: non-finite value in tensor 'class_weights'"):
            load_checkpoint(tmp_path / "bad")

    @pytest.mark.parametrize("damage", [
        # A config other than the state's: its header would contradict the tensors.
        lambda state, cfg: (state, ModelConfig(cfg.encoder, cfg.embedding_dim + 1)),
        lambda state, cfg: (ModelState(state.encoder, state.projection,
                                       state.class_weights * np.nan), cfg),
        # These two fail as the state is built.
        lambda state, cfg: (ModelState(state.encoder, state.projection,
                                       state.class_weights[:0]), cfg),
        lambda state, cfg: (ModelState(state.encoder, state.projection,
                                       state.class_weights[:, 1:]), cfg),
    ], ids=["other_embedding_dim", "nan_class_weight", "zero_classes", "wrong_class_width"])
    def test_refuses_a_state_load_would_reject(self, tmp_path, damage):
        model_cfg = tiny_setup()[2]
        with pytest.raises((ConfigurationError, DimensionError)):
            save_checkpoint(*damage(init_model(model_cfg, 3, seed=0), model_cfg), tmp_path / "ckpt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit, error", [
        (("embedding_dim 3", "embedding_dim 4"), ConfigurationError),
        (("n_classes 4", "n_classes 5"), ConfigurationError),
        (("layers -1,0,1:4:relu", "layers -1,0,1:5:relu"), DimensionError),
        (("layers -1,0,1:4:relu", "layers -1,0:4:relu"), DimensionError),
    ], ids=["embedding_dim", "n_classes", "layer_width", "layer_offsets"])
    def test_header_that_contradicts_the_tensors_is_refused(self, tmp_path, edit, error):
        _, _, model_cfg = tiny_setup()
        path = tmp_path / "ckpt"
        save_checkpoint(init_model(model_cfg, 4, seed=0), model_cfg, path)
        text = path.read_text()
        assert edit[0] + "\n" in text
        path.write_text(text.replace(edit[0] + "\n", edit[1] + "\n"))
        with pytest.raises(error):
            load_checkpoint(path)

    def test_header_magic_version_pinned(self):
        assert CHECKPOINT_MAGIC.endswith("v1")
