"""Command line interface: pipelines, config files, exit codes, error text."""

import dataclasses
import errno
import inspect
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _entry import run_phonetrait
from phonetrait import cli, errors, presets
from phonetrait.analysis import FRATIO_HEADER, read_report
from phonetrait.cli import (
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_MISSING_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    build_parser,
    main,
)
from phonetrait.corpus import UtteranceFeatures, load_features, save_features
from phonetrait.encoder import parse_layer_string
from phonetrait.errors import PhonetraitError
from phonetrait.losses import AamConfig, LossWeights
from phonetrait.training import TrainConfig

SUBCOMMANDS = ("gen-corpus", "train", "score", "eval", "fratio", "explain", "gradcheck")
GEN_ARGS = [
    "gen-corpus",
    "--n-speakers", "4", "--utts-per-speaker", "3", "--feature-dim", "3",
    "--segment-min", "2", "--segment-max", "4",
    "--phones-min", "4", "--phones-max", "6",
    "--n-target", "10", "--n-nontarget", "10",
]
TRAIN_ARGS = [
    "train", "--epochs", "1", "--steps-per-epoch", "2",
    "--speakers-per-batch", "2", "--layers", "0:4:relu", "--embedding-dim", "3",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny corpus -> train -> score -> eval chain shared by the tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus, run = root / "corpus", root / "run"
    assert main(GEN_ARGS + ["--out-dir", str(corpus)]) == EXIT_OK
    assert main(TRAIN_ARGS + ["--corpus-dir", str(corpus), "--out-dir", str(run)]) == EXIT_OK
    assert main([
        "score", "--corpus-dir", str(corpus),
        "--checkpoint", str(run / "ckpt_epoch1"), "--out-dir", str(run),
    ]) == EXIT_OK
    assert main([
        "eval", "--scores", str(run / "scores.txt"), "--out-dir", str(run),
    ]) == EXIT_OK
    return corpus, run


def valid_argv(command, corpus, run):
    """An argv, without --out-dir, on which ``command`` succeeds given the
    pipeline's corpus and run directories."""
    scores, inventory = str(run / "scores.txt"), str(corpus / "inventory.txt")
    return {
        "gen-corpus": GEN_ARGS,
        "train": TRAIN_ARGS + ["--corpus-dir", str(corpus)],
        "score": ["score", "--corpus-dir", str(corpus), "--checkpoint", str(run / "ckpt_epoch1")],
        "eval": ["eval", "--scores", scores],
        "fratio": ["fratio", "--scores", scores, "--inventory", inventory, "--n-samples", "1"],
        "explain": ["explain", "--scores", scores, "--inventory", inventory],
        "gradcheck": TestGradcheck.ARGS,
    }[command]


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_help_shows_loss_defaults(self, capsys):
        assert main(["train", "--help"]) == EXIT_OK
        text = capsys.readouterr().out
        for fragment in ("0.0007", "1e-05", "0.0001", "default: 8"):
            assert fragment in text

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        assert main(["train", "--epochs", "three"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["score", "eval", "explain"])
    def test_seed_only_where_it_acts(self, command, capsys):
        assert main([command, "--seed", "1"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_bare_train_is_the_desk_experiment(self):
        # Every TrainConfig/LossWeights/AamConfig field is a train flag of
        # the same name whose default is the desk preset's value.
        args = build_parser()[0].parse_args(["train"])
        train_cfg = presets.desk_train_config()
        for group, cls in ((train_cfg, TrainConfig), (train_cfg.weights, LossWeights),
                           (train_cfg.aam, AamConfig)):
            for f in dataclasses.fields(cls):
                if f.name not in ("weights", "aam"):
                    assert getattr(args, f.name) == getattr(group, f.name), f.name
        model_cfg = presets.desk_model_config()
        assert parse_layer_string(args.layers) == model_cfg.encoder.layers
        assert args.embedding_dim == model_cfg.embedding_dim


class TestGenCorpus:
    def test_writes_all_corpus_files(self, pipeline):
        corpus, _ = pipeline
        for name in ("inventory.txt", "features.txt", "alignments.txt", "trials.txt"):
            assert (corpus / name).is_file(), name
        inventory = (corpus / "inventory.txt").read_text().splitlines()
        assert len(inventory) == 40
        assert inventory[-1] == "[N-V]"
        assert len((corpus / "trials.txt").read_text().splitlines()) == 20

    def test_config_echo(self, pipeline):
        corpus, _ = pipeline
        lines = (corpus / "config_used.txt").read_text().splitlines()
        assert lines[0] == "command=gen-corpus"
        assert "n_speakers=4" in lines
        assert f"noise_std={presets.NOISE_STD}" in lines
        keys = [l.split("=")[0] for l in lines[1:]]
        assert keys == sorted(keys)

    def test_unknown_rare_phone(self, tmp_path, capsys):
        code = main(GEN_ARGS + ["--rare-phone", "QQ", "--out-dir", str(tmp_path / "c")])
        assert code == EXIT_CONFIG
        assert "unknown phone label 'QQ'" in capsys.readouterr().err

    def test_missing_out_dir(self, capsys):
        assert main(["gen-corpus"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError:")
        assert "--out-dir" in err


class TestTrain:
    def test_artifacts(self, pipeline):
        _, run = pipeline
        assert (run / "ckpt_epoch1").is_file()
        log = (run / "loss_log.txt").read_text().splitlines()
        assert log[0] == "step,L_all,L_AAM,L_veri,L_center"
        assert len(log) == 3
        assert log[1].startswith("0,")
        assert log[2].startswith("1,")

    def test_failed_epoch_leaves_the_finished_epochs_log(self, pipeline, tmp_path,
                                                         monkeypatch, capsys):
        # The loss log is written after every epoch: a run that fails while
        # saving epoch 2's checkpoint keeps epoch 1's rows.
        corpus, _ = pipeline
        argv = TRAIN_ARGS + ["--epochs", "3", "--corpus-dir", str(corpus)]
        assert main(argv + ["--out-dir", str(tmp_path / "full")]) == EXIT_OK
        full = (tmp_path / "full" / "loss_log.txt").read_text().splitlines(keepends=True)
        assert len(full) == 1 + 3 * 2
        save = cli.save_checkpoint

        def save_then_fail(state, model_cfg, path):
            if path.name == "ckpt_epoch2":
                raise OSError("disk full")
            save(state, model_cfg, path)

        monkeypatch.setattr(cli, "save_checkpoint", save_then_fail)
        assert main(argv + ["--out-dir", str(tmp_path / "cut")]) == EXIT_IO
        cut = tmp_path / "cut"
        assert sorted(p.name for p in cut.iterdir()) == ["ckpt_epoch1", "loss_log.txt"]
        assert (cut / "loss_log.txt").read_text() == "".join(full[:1 + 2])

    def test_missing_corpus(self, tmp_path, capsys):
        code = main(TRAIN_ARGS + [
            "--corpus-dir", str(tmp_path / "nowhere"), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == EXIT_MISSING_INPUT

    def test_corrupt_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(GEN_ARGS + ["--out-dir", str(corpus)]) == EXIT_OK
        (corpus / "features.txt").write_text("garbage\n")
        code = main(TRAIN_ARGS + ["--corpus-dir", str(corpus), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert "error: ParseError:" in capsys.readouterr().err


def widen_last_utterance(corpus):
    """Give the last utterance one feature column more than the others."""
    features = load_features(corpus / "features.txt")
    last = features[-1]
    features[-1] = UtteranceFeatures(last.utterance_id, last.speaker_id,
                                     np.hstack([last.features, last.features[:, :1]]))
    save_features(features, corpus / "features.txt")
    return f"DimensionError: features of {last.utterance_id!r} are 4-dim"


def empty_corpus(corpus):
    for name in ("features.txt", "alignments.txt"):
        (corpus / name).write_text("")
    return "ConfigurationError: corpus has no utterances"


class TestBadCorpus:
    @pytest.mark.parametrize("name, offset", [("inventory.txt", 1), ("features.txt", 8192)])
    def test_byte_that_is_not_utf8_is_a_parse_error_at_its_line(self, pipeline, tmp_path,
                                                                capsys, name, offset):
        # The first line that starts past ``offset`` bytes gets a 0xFF byte;
        # past 8 KB it lies beyond the first block a text file decodes.
        good, _ = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(good, corpus)
        lines = (corpus / name).read_bytes().splitlines(keepends=True)
        sizes = [len(line) for line in lines]
        starts = np.cumsum([0] + sizes[:-1])
        k = int(np.argmax(starts > offset))
        assert starts[k] > offset
        lines[k] = lines[k][:1] + b"\xff" + lines[k][1:]
        (corpus / name).write_bytes(b"".join(lines))
        code = main(TRAIN_ARGS + ["--corpus-dir", str(corpus), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: ParseError: {corpus / name}:{k + 1}: byte 0xff is not UTF-8\n")

    @pytest.mark.parametrize("damage", [widen_last_utterance, empty_corpus])
    @pytest.mark.parametrize("command", ["train", "score"])
    def test_rejected_as_configuration_error(self, pipeline, tmp_path, capsys, damage, command):
        good, run = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(good, corpus)
        message = damage(corpus)
        args = TRAIN_ARGS if command == "train" else [
            "score", "--checkpoint", str(run / "ckpt_epoch1")]
        code = main(args + ["--corpus-dir", str(corpus), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines


class TestScore:
    def test_score_file_shape(self, pipeline):
        _, run = pipeline
        rows = (run / "scores.txt").read_text().splitlines()
        assert len(rows) == 20
        assert all(len(r.split("\t")) == 5 + 40 for r in rows)

    def test_checkpoint_feature_mismatch(self, pipeline, tmp_path, capsys):
        _, run = pipeline
        other = tmp_path / "corpus4"
        args = [a if a != "3" else "4" for a in GEN_ARGS]
        assert main(args + ["--out-dir", str(other)]) == EXIT_OK
        code = main([
            "score", "--corpus-dir", str(other),
            "--checkpoint", str(run / "ckpt_epoch1"), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == EXIT_CONFIG
        assert "checkpoint expects" in capsys.readouterr().err

    def test_non_finite_checkpoint(self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        lines = (run / "ckpt_epoch1").read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("tensor class_weights")) + 1
        lines[row] = " ".join("nan" for _ in lines[row].split())
        bad = tmp_path / "nan.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        code = main([
            "score", "--corpus-dir", str(corpus),
            "--checkpoint", str(bad), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == EXIT_PARSE
        assert "non-finite value in tensor 'class_weights'" in capsys.readouterr().err

    def test_zero_embedding_is_a_numeric_error(self, pipeline, tmp_path, capsys):
        # A zero projection maps every utterance to the zero embedding,
        # whose cosine is undefined.
        corpus, run = pipeline
        lines = (run / "ckpt_epoch1").read_text().splitlines()
        for name in ("projection_weight", "projection_bias"):
            start = next(i for i, l in enumerate(lines) if l.startswith(f"tensor {name} ")) + 1
            stop = next(i for i in range(start, len(lines)) if lines[i].startswith("tensor "))
            lines[start:stop] = [" ".join("0.0" for _ in l.split()) for l in lines[start:stop]]
        zero = tmp_path / "zero.ckpt"
        zero.write_text("\n".join(lines) + "\n")
        code = main([
            "score", "--corpus-dir", str(corpus),
            "--checkpoint", str(zero), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: NumericGuardError:")
        assert not (tmp_path / "o" / "scores.txt").exists()


class TestEval:
    def test_reports_written(self, pipeline):
        _, run = pipeline
        report = read_report(run / "report.txt")
        for key in ("final_eer", "final_min_dcf", "evidence_eer", "explain_correlation"):
            assert key in report
        assert report["n_trials"] == "20"
        assert 0.0 <= float(report["final_eer"]) <= 1.0
        csv = (run / "report.csv").read_text().splitlines()
        assert csv[0] == "kind,metric,value"
        assert any(line.startswith("final,eer,") for line in csv)
        assert any(line.startswith("explain,correlation,") for line in csv)

    def test_single_class_names_the_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("a\tb\t1\t0.5\t0.5\t0.5\na\tc\t1\t0.4\t0.4\t0.4\n")
        code = main(["eval", "--scores", str(scores), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(scores) in err
        assert "non-target" in err

    def test_constant_evidence_is_a_numeric_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text(
            "a\tb\t1\t0.9\t0.5\t0.5\n"
            "a\tc\t0\t0.1\t0.5\t0.5\n"
            "b\tc\t0\t0.2\t0.5\t0.5\n"
        )
        code = main(["eval", "--scores", str(scores), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: NumericGuardError:")
        assert str(scores) in err

    def test_missing_scores_flag(self, capsys):
        assert main(["eval", "--out-dir", "x"]) == EXIT_CONFIG

    def test_non_finite_scores_rejected_where_read(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("a\tc\t0\t0.1\t0.5\t0.5\t0.5\na\tb\t1\tnan\tinf\tnan\t-inf\n")
        code = main(["eval", "--scores", str(scores), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: ParseError: {scores}:2: non-finite")

    def test_scores_path_is_a_directory(self, tmp_path, capsys):
        code = main(["eval", "--scores", str(tmp_path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError:")
        assert len(err.splitlines()) == 1


class TestFRatio:
    def test_table_written(self, pipeline, tmp_path):
        corpus, run = pipeline
        out = tmp_path / "f"
        code = main([
            "fratio", "--scores", str(run / "scores.txt"),
            "--inventory", str(corpus / "inventory.txt"),
            "--n-samples", "1", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "fratio.csv").read_text().splitlines()
        assert lines[0] == FRATIO_HEADER
        assert len(lines) == 41
        assert any(line.endswith(",1") for line in lines[1:])

    def test_oversized_pool_requirement_excludes_everything(self, pipeline, tmp_path):
        corpus, run = pipeline
        out = tmp_path / "f"
        code = main([
            "fratio", "--scores", str(run / "scores.txt"),
            "--inventory", str(corpus / "inventory.txt"),
            "--n-samples", "100000", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "fratio.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",0") for line in lines)


class TestExplain:
    def test_explanation_written(self, pipeline, tmp_path):
        corpus, run = pipeline
        out = tmp_path / "e"
        code = main([
            "explain", "--scores", str(run / "scores.txt"),
            "--inventory", str(corpus / "inventory.txt"),
            "--index", "3", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "explanation.txt").read_text().splitlines()
        assert lines[0].startswith("enroll ")
        assert sum(1 for l in lines if l.startswith("trait\t")) == 40

    def test_index_out_of_range(self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        code = main([
            "explain", "--scores", str(run / "scores.txt"),
            "--inventory", str(corpus / "inventory.txt"),
            "--index", "999", "--out-dir", str(tmp_path / "e"),
        ])
        assert code == EXIT_CONFIG
        assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "fratio", "explain"])
def test_empty_score_file_is_a_configuration_error(pipeline, tmp_path, capsys, command):
    # A file without rows gives no phone count; each reader still fails with
    # one configuration error line, not a shape error from the empty table.
    corpus, _ = pipeline
    scores = tmp_path / "scores.txt"
    scores.write_text("")
    args = [command, "--scores", str(scores), "--out-dir", str(tmp_path / "o")]
    if command != "eval":
        args += ["--inventory", str(corpus / "inventory.txt")]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigurationError: ")
    assert len(err.splitlines()) == 1


class TestGradcheck:
    ARGS = [
        "gradcheck", "--feature-dim", "3", "--trait-dim", "4",
        "--embedding-dim", "3", "--n-phones", "5", "--speakers-per-batch", "2",
    ]

    def test_pass(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(self.ARGS + ["--out-dir", str(out)]) == EXIT_OK
        text = (out / "gradcheck.txt").read_text()
        assert text.rstrip().endswith("PASS")
        assert "PASS" in capsys.readouterr().out

    def test_unreachable_tolerance_fails(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = main(self.ARGS + ["--tolerance", "1e-18", "--out-dir", str(out)])
        assert code == EXIT_GRADCHECK
        assert (out / "gradcheck.txt").read_text().rstrip().endswith("FAIL")


# Each setting is refused where its value is defined, before any work.
BAD_SETTINGS = {
    "rare-phone-weight-nan": ["gen-corpus", "--rare-phone-weight", "nan"],
    "rare-phone-weight-inf": ["gen-corpus", "--rare-phone-weight", "inf"],
    "speaker-spread-nan": ["gen-corpus", "--speaker-spread", "nan"],
    "noise-std-inf": ["gen-corpus", "--noise-std", "inf"],
    "learning-rate-nan": ["train", "--learning-rate", "nan"],
    "learning-rate-inf": ["train", "--learning-rate", "inf"],
    "alpha-inf": ["train", "--alpha", "inf"],
    "scale-nan": ["train", "--scale", "nan"],
    "c-miss-nan": ["eval", "--c-miss", "nan"],
    "c-fa-inf": ["eval", "--c-fa", "inf"],
    "step-size-zero": ["gradcheck", "--step-size", "0"],
    "tolerance-inf": ["gradcheck", "--tolerance", "inf"],
    # np.random.SeedSequence refuses a negative seed with a bare ValueError.
    "corpus-seed-negative": ["gen-corpus", "--seed", "-1"],
    "trial-seed-negative": ["gen-corpus", "--trial-seed", "-1"],
    "train-seed-negative": ["train", "--seed", "-1"],
    "fratio-seed-negative": ["fratio", "--seed", "-1"],
    "gradcheck-seed-negative": ["gradcheck", "--seed", "-1"],
    # A batch needs two speakers; 0 and -1 once escaped as bare tracebacks.
    "gradcheck-speakers-per-batch-1": ["gradcheck", "--speakers-per-batch", "1"],
    "gradcheck-speakers-per-batch-0": ["gradcheck", "--speakers-per-batch", "0"],
    "gradcheck-speakers-per-batch-negative": ["gradcheck", "--speakers-per-batch", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_non_finite_or_out_of_range_setting_is_a_config_error(pipeline, tmp_path, capsys, case):
    corpus, run = pipeline
    command, *setting = BAD_SETTINGS[case]
    inputs = {"gen-corpus": GEN_ARGS[1:], "train": TRAIN_ARGS[1:] + ["--corpus-dir", str(corpus)],
              "eval": ["--scores", str(run / "scores.txt")], "gradcheck": TestGradcheck.ARGS[1:],
              "fratio": ["--scores", str(run / "scores.txt"),
                         "--inventory", str(corpus / "inventory.txt")]}
    code = main([command, *inputs[command], *setting, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigurationError: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


# Each required path given as "" is refused: an empty path names the working
# directory, which would be written to or read from.
EMPTY_PATHS = [(command, "--out-dir") for command in SUBCOMMANDS] + [
    ("train", "--corpus-dir"), ("score", "--corpus-dir"), ("score", "--checkpoint"),
    ("eval", "--scores"), ("fratio", "--scores"), ("fratio", "--inventory"),
    ("explain", "--scores"), ("explain", "--inventory"),
]


@pytest.mark.parametrize("command, flag", EMPTY_PATHS)
def test_empty_required_path_is_refused(pipeline, tmp_path, monkeypatch, capsys, command, flag):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = valid_argv(command, *pipeline) + ["--out-dir", str(tmp_path / "o"), flag, ""]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: ConfigurationError: {flag} is required\n"
    assert list(cwd.iterdir()) == [] and not (tmp_path / "o").exists()


def test_empty_out_dir_in_a_config_file_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text("out_dir=\n")
    assert main(GEN_ARGS + ["--config", "cfg.txt"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: ConfigurationError: --out-dir is required\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]


# String values that config_used.txt cannot hold as given: a replay of the
# echo would strip the padding or split the value at its line break, and a
# value that is not UTF-8 cannot be written at all.
UNECHOABLE = {"padded": ("--out-dir", "e "), "leading-blank": ("--out-dir", " e"),
              "newline": ("--out-dir", "a\nb"), "return": ("--out-dir", "a\rb"),
              "not-utf8": ("--out-dir", "h\udcff"), "padded-label": ("--rare-phone", "AA ")}


@pytest.mark.parametrize("case", sorted(UNECHOABLE))
def test_unechoable_string_is_refused(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    flag, value = UNECHOABLE[case]
    assert main(GEN_ARGS + ["--out-dir", "out", flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: ConfigurationError: {flag} {value!r} must be unpadded, "
        "on one line and UTF-8 to be echoed to config_used.txt\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key", [("gen-corpus", "out_dir"), ("eval", "scores")])
def test_nul_byte_in_a_config_file_is_refused(tmp_path, monkeypatch, capsys, command, key):
    # No path can hold a NUL byte; opening one raises ValueError, not OSError.
    monkeypatch.chdir(tmp_path)
    settings = {"out_dir": "o", key: "a\x00b"}
    (tmp_path / "cfg.txt").write_text("".join(f"{k}={v}\n" for k, v in sorted(settings.items())))
    assert main([command, "--config", "cfg.txt"]) == EXIT_CONFIG
    flag = "--" + key.replace("_", "-")
    assert capsys.readouterr().err == (
        f"error: ConfigurationError: {flag} 'a\\x00b' holds a NUL byte, which no path can\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]


def test_non_utf8_argument_is_refused_without_a_traceback(tmp_path):
    # The operating system hands Python a byte that is not UTF-8 as a lone surrogate.
    result = run_phonetrait(["gen-corpus", "--out-dir", "h\udcff"], tmp_path)
    assert result.returncode == EXIT_CONFIG
    assert result.stderr.startswith("error: ConfigurationError: --out-dir 'h\\udcff' ")
    assert list(tmp_path.iterdir()) == []


FLAG_VALUES = {
    str: st.none() | st.text(st.characters(exclude_categories=()))
    | st.text(st.sampled_from("a =#\t\n\r\x0b\x85\u2028\udcff")).map(lambda s: f"a{s}a"),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_setting_is_refused_or_echoes_a_config_that_replays_exactly(
        tmp_path_factory, command, data):
    # Any value for each flag (None: left out): either the check refuses the
    # settings, or the echo, read back as a config file, echoes the same bytes.
    parser, _, registries = build_parser()
    registry = registries[command]
    argv = [command]
    for dest in sorted(registry):
        value = data.draw(FLAG_VALUES[registry[dest]], label=dest)
        if value is not None:
            argv.append(f"--{dest.replace('_', '-')}={value}")
    args = parser.parse_args(argv)
    try:
        cli._check_echoable(args, registry)
    except errors.ConfigurationError:
        return
    base = tmp_path_factory.mktemp("echo")
    cli._echo_config(command, args, registry, base / "first")
    replay, subparsers, _ = build_parser()
    subparsers.choices[command].set_defaults(**cli._load_config_file(
        str(base / "first" / "config_used.txt"), command, registry))
    cli._echo_config(command, replay.parse_args([command]), registry, base / "second")
    assert ((base / "second" / "config_used.txt").read_bytes()
            == (base / "first" / "config_used.txt").read_bytes())


# The documented exit code of every error a subcommand may raise.
DOCUMENTED_EXIT_CODES = {
    FileNotFoundError: EXIT_MISSING_INPUT,
    IsADirectoryError: EXIT_IO,
    PermissionError: EXIT_IO,
    OSError: EXIT_IO,
    errors.ParseError: EXIT_PARSE,
    errors.ConfigurationError: EXIT_CONFIG,
    errors.DimensionError: EXIT_CONFIG,
    errors.BatchError: EXIT_CONFIG,
    errors.EmptyUtteranceError: EXIT_CONFIG,
    errors.NumericGuardError: EXIT_NUMERIC,
    errors.DivergenceError: EXIT_NUMERIC,
}
PACKAGE_ERRORS = [obj for obj in vars(errors).values() if inspect.isclass(obj)
                  and issubclass(obj, PhonetraitError) and obj is not PhonetraitError]


def raised(kind):
    if kind is errors.ParseError:
        return kind("scores.txt", 7, "bad row")
    if issubclass(kind, OSError):  # ENOSPC: OSError maps no subclass to it
        return kind(errno.ENOSPC, "no space left", "a file")
    return kind("what went wrong")


@pytest.mark.parametrize("kind", sorted({*DOCUMENTED_EXIT_CODES, *PACKAGE_ERRORS},
                                        key=lambda kind: kind.__name__),
                         ids=lambda kind: kind.__name__)
def test_every_error_gets_its_exit_code_and_one_line(tmp_path, monkeypatch, capsys, kind):
    exc = raised(kind)

    def fail(args, out):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "eval", fail)
    assert main(["eval", "--out-dir", str(tmp_path / "o")]) == DOCUMENTED_EXIT_CODES[kind]
    assert capsys.readouterr().err == f"error: {kind.__name__}: {exc}\n"
    assert not (tmp_path / "o").exists()


def test_exit_code_table_names_every_package_error():
    listed = set()
    for kinds, _ in cli._EXIT_CODES:
        listed.update(kinds if isinstance(kinds, tuple) else (kinds,))
    assert set(PACKAGE_ERRORS) <= listed


class TestConfigFile:
    def test_file_sets_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment line\nn_speakers=3\n\nutts_per_speaker=2\n")
        out = tmp_path / "c"
        code = main(GEN_ARGS[:1] + [
            "--config", str(cfg), "--out-dir", str(out),
            "--feature-dim", "3", "--phones-min", "3", "--phones-max", "5",
            "--n-target", "4", "--n-nontarget", "4",
        ])
        assert code == EXIT_OK
        echo = (out / "config_used.txt").read_text()
        assert "n_speakers=3\n" in echo
        assert "utts_per_speaker=2\n" in echo

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_speakers=3\n")
        out = tmp_path / "c"
        code = main(GEN_ARGS + ["--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_OK
        assert "n_speakers=4\n" in (out / "config_used.txt").read_text()

    def test_echo_is_reusable_as_config(self, tmp_path):
        # The echoed config of one run reproduces the run it came from.
        first = tmp_path / "a"
        assert main(GEN_ARGS + ["--out-dir", str(first)]) == EXIT_OK
        second = tmp_path / "b"
        code = main([
            "gen-corpus", "--config", str(first / "config_used.txt"),
            "--out-dir", str(second),
        ])
        assert code == EXIT_OK
        assert (first / "features.txt").read_bytes() == (second / "features.txt").read_bytes()

    @pytest.mark.parametrize("command", SUBCOMMANDS[1:])
    def test_echo_of_every_other_subcommand_is_reusable_as_config(self, pipeline, tmp_path,
                                                                  command):
        # Passed back as the only flag, the echo reruns the subcommand into
        # the same directory: every file, the echo included, comes out the same.
        out = tmp_path / "o"
        assert main(valid_argv(command, *pipeline) + ["--out-dir", str(out)]) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        config = tmp_path / "config.txt"
        config.write_bytes(first["config_used.txt"])
        assert main([command, "--config", str(config)]) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_abbreviated_flag_reads_the_file(self, tmp_path):
        # argparse takes --conf for --config, so the file it names is read.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trial_seed=9\n")
        out = tmp_path / "c"
        assert main(GEN_ARGS + ["--conf", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert "trial_seed=9\n" in (out / "config_used.txt").read_text()

    @pytest.mark.parametrize("files, code", [(("none.txt", "cfg.txt"), EXIT_OK),
                                             (("cfg.txt", "none.txt"), EXIT_MISSING_INPUT)])
    def test_last_config_flag_wins(self, tmp_path, files, code):
        (tmp_path / "cfg.txt").write_text("trial_seed=9\n")
        first, last = (str(tmp_path / name) for name in files)
        out = tmp_path / "c"
        assert main(GEN_ARGS + ["--config", first, "--config", last, "--out-dir", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("does_not_exist=1\n")
        assert main(["gen-corpus", "--config", str(cfg), "--out-dir", "x"]) == EXIT_CONFIG
        assert "does_not_exist" in capsys.readouterr().err

    def test_unconvertible_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_speakers=many\n")
        assert main(["gen-corpus", "--config", str(cfg), "--out-dir", "x"]) == EXIT_PARSE

    def test_config_of_another_subcommand_refused(self, tmp_path, capsys):
        # A gen-corpus config must not set gradcheck's --seed.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("command=gen-corpus\nseed=99\n")
        out = tmp_path / "g"
        assert main(["gradcheck", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "'gen-corpus' config, not 'gradcheck'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_without_subcommand(self, capsys):
        assert main(["--config", "whatever.txt"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["gen-corpus", "--config", str(tmp_path / "none.txt"), "--out-dir", "x"])
        assert code == EXIT_MISSING_INPUT


class TestEntryPoint:
    def test_module_entry_point(self, tmp_path):
        result = run_phonetrait(["--help"], tmp_path)
        assert result.returncode == EXIT_OK
        assert all(name in result.stdout for name in SUBCOMMANDS)
        bare = run_phonetrait([], tmp_path)
        assert bare.returncode == EXIT_USAGE
        assert "usage: phonetrait" in bare.stderr

    @pytest.mark.skipif(shutil.which("phonetrait") is None,
                        reason="needs the console script: pip install -e . --no-build-isolation")
    def test_installed_script(self):
        exe = shutil.which("phonetrait")
        assert exe, "console script not installed"
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "gen-corpus" in result.stdout
