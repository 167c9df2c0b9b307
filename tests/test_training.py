"""Pair-batch SGD training loop, gradient certification, checkpoints."""

from collections import Counter

import numpy as np
import pytest

from phonetrait import encoder, trait_layer, training
from phonetrait.corpus import (
    CMU_PHONES,
    NON_VERBAL,
    CorpusIndex,
    PhoneAlignment,
    PhoneInventory,
    generate_corpus,
)
from phonetrait.encoder import EncoderConfig, LayerSpec
from phonetrait.errors import (
    BatchError,
    ConfigurationError,
    DivergenceError,
    ParseError,
)
from phonetrait.losses import AamConfig, LossWeights
from phonetrait.training import (
    CHECKPOINT_MAGIC,
    GradCheckReport,
    ModelConfig,
    StepRecord,
    TrainConfig,
    batch_loss_and_grads,
    batch_loss_value,
    compare_gradient_tables,
    epoch_mean_losses,
    grad_check,
    init_model,
    load_checkpoint,
    numeric_gradients,
    parameter_arrays,
    sample_pair_batch,
    save_checkpoint,
    train,
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
            TrainConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(speakers_per_batch=1)
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ConfigurationError):
            TrainConfig(momentum=1.0)
        TrainConfig(learning_rate=0.0)  # frozen model is allowed

    def test_model_config(self):
        enc = EncoderConfig(3, (LayerSpec((0,), 7, "relu"),))
        assert ModelConfig(enc, 4).trait_dim == 7
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
        assert len(set(sel.speaker_ids)) == 3
        for speaker, e, t in zip(sel.speaker_ids, sel.enroll_utts, sel.test_utts):
            assert e != t
            assert index.features[e].speaker_id == speaker
            assert index.features[t].speaker_id == speaker
        assert sel.class_labels.tolist() == [index.class_label(s) for s in sel.speaker_ids]

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
            assert "spk000" not in sel.speaker_ids
        with pytest.raises(BatchError):
            sample_pair_batch(index, 3, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        _, index, _ = tiny_setup()
        a = sample_pair_batch(index, 3, np.random.default_rng(7))
        b = sample_pair_batch(index, 3, np.random.default_rng(7))
        assert (a.speaker_ids, a.enroll_utts, a.test_utts) == \
               (b.speaker_ids, b.enroll_utts, b.test_utts)


class TestBatchGradients:
    def certify(self, with_classification):
        inventory, index, model_cfg = tiny_setup()
        state = init_model(model_cfg, len(index.speakers), seed=1)
        sel = sample_pair_batch(index, 3, np.random.default_rng(2))
        weights = LossWeights(alpha=0.05, beta=0.02, gamma=0.03)
        aam = AamConfig(margin=0.2, scale=30.0)
        _, analytic = batch_loss_and_grads(
            state, index, sel, weights, aam, inventory.size, with_classification
        )
        numeric = numeric_gradients(
            lambda: batch_loss_value(
                state, index, sel, weights, aam, inventory.size, with_classification
            ),
            parameter_arrays(state),
        )
        return compare_gradient_tables(analytic, numeric, tolerance=1e-4)

    def test_full_loss_gradients(self):
        report = self.certify(with_classification=True)
        assert report.passed, report.lines()

    def test_ablated_loss_gradients(self):
        report = self.certify(with_classification=False)
        assert report.passed, report.lines()

    def test_each_utterance_is_forwarded_once(self, monkeypatch):
        # Backward reads the forward's cached activations and phone ids, so
        # neither the encoder nor the alignment expansion runs a second time.
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
        monkeypatch.setattr(PhoneAlignment, "frame_phones",
                            counted("frame_phones", PhoneAlignment.frame_phones))
        batch_loss_and_grads(state, index, sel, LossWeights(), AamConfig(), inventory.size)
        assert calls == {"encode_layers": 6, "frame_phones": 6}

    def test_grad_check_wrapper(self):
        inventory, index, model_cfg = tiny_setup()
        state = init_model(model_cfg, len(index.speakers), seed=1)
        sel = sample_pair_batch(index, 2, np.random.default_rng(3))
        report = grad_check(
            state, index, sel, LossWeights(0.05, 0.02, 0.03), AamConfig(),
            inventory.size,
        )
        assert report.passed
        assert report.worst < 1e-4
        assert report.lines()[-1].endswith("PASS")


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

    def test_deterministic(self):
        inventory, index, model_cfg = tiny_setup()
        cfg = quick_train_cfg()
        state_a, hist_a = train(index, inventory, model_cfg, cfg)
        state_b, hist_b = train(index, inventory, model_cfg, cfg)
        for name, arr in parameter_arrays(state_a).items():
            assert np.array_equal(arr, parameter_arrays(state_b)[name])
        assert hist_a == hist_b

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
            train(index, inventory, model_cfg, quick_train_cfg(learning_rate=np.inf))

    def test_epoch_mean_losses(self):
        history = [
            StepRecord(0, 0, 2.0, 0, 0, 0), StepRecord(0, 1, 4.0, 0, 0, 0),
            StepRecord(1, 2, 10.0, 0, 0, 0),
        ]
        assert epoch_mean_losses(history) == {0: 3.0, 1: 10.0}


class TestGradCheckHelpers:
    def test_mismatched_tables_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_gradient_tables({"a": np.ones(2)}, {"b": np.ones(2)})

    def test_report_fail_line(self):
        report = GradCheckReport(tolerance=1e-4, max_errors={"w": 0.5, "b": 1e-9})
        assert not report.passed
        assert report.worst == 0.5
        assert report.lines()[-1].endswith("FAIL")

    def test_relative_error_floor(self):
        # Both gradients tiny: the 1e-6 floor keeps the ratio tame.
        a = {"w": np.array([1e-9])}
        n = {"w": np.array([2e-9])}
        report = compare_gradient_tables(a, n)
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
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == model_cfg
        assert loaded.step == state.step
        for name, arr in parameter_arrays(state).items():
            assert np.array_equal(arr, parameter_arrays(loaded)[name])
        save_checkpoint(loaded, loaded_cfg, tmp_path / "again")
        assert path.read_bytes() == (tmp_path / "again").read_bytes()

    def test_expected_config_enforced(self, tmp_path):
        state, model_cfg = self.trained_state()
        path = tmp_path / "ckpt"
        save_checkpoint(state, model_cfg, path)
        load_checkpoint(path, expected=model_cfg)
        other = ModelConfig(model_cfg.encoder, model_cfg.embedding_dim + 1)
        with pytest.raises(ConfigurationError, match="does not match"):
            load_checkpoint(path, expected=other)

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

    def test_header_magic_version_pinned(self):
        assert CHECKPOINT_MAGIC.endswith("v1")
