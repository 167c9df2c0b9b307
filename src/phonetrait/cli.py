"""Command-line entry point for the whole pipeline.

Subcommands: ``gen-corpus``, ``train``, ``score``, ``eval``, ``fratio``,
``explain``, ``gradcheck``. Every subcommand accepts ``--config`` (a
key=value file whose keys are the flag names with dashes as underscores)
and requires ``--out-dir``; explicit flags override config-file values,
which override the built-in defaults from ``phonetrait.presets``. The file
read is the one argparse parses into ``--config``: an abbreviation such as
``--conf`` names it too, and the last of several wins. A required path given
as the empty string is refused like a missing one. The effective settings
are echoed to ``config_used.txt`` in the output directory, in the same
key=value format, after the subcommand has run; a config file whose
``command`` names another subcommand is refused, and so, before any work, is
a string value the echo could not replay (padded, multi-line or not UTF-8)
or that holds a NUL byte, which no path can.

Exit codes: 0 success, 2 bad command line, 3 missing input file, 4 unparsable
input, 5 invalid configuration or insufficient data, 6 numeric failure or
divergence, 7 gradient check failure, 8 any other I/O failure (an input that
is a directory, a permission error, a full disk). Errors print a single line
``error: <Kind>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import presets
from .analysis import (
    compute_metrics,
    explainability_correlation,
    export_explanation,
    f_ratio,
    labelled_scores,
    save_f_ratio,
    write_report,
)
from .corpus import (
    CMU_PHONES,
    NON_VERBAL,
    CorpusIndex,
    PhoneInventory,
    default_inventory,
    generate_corpus,
    load_alignments,
    load_features,
    load_inventory,
    load_trials,
    make_trials,
    save_alignments,
    save_features,
    save_inventory,
    save_trials,
)
from .encoder import EncoderConfig, format_layer_string, parse_layer_string
from .errors import (
    BatchError,
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EmptyUtteranceError,
    NumericGuardError,
    ParseError,
    PhonetraitError,
)
from .losses import LOSS_LOG_HEADER, AamConfig, LossWeights, format_loss_log_line
from .scoring import load_scores, save_scores, score_trials
from .textio import LineReader, atomic_write, cell
from .training import (
    ModelConfig,
    TrainConfig,
    grad_check,
    init_model,
    load_checkpoint,
    sample_pair_batch,
    save_checkpoint,
    train_epochs,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_PARSE = 4
EXIT_CONFIG = 5
EXIT_NUMERIC = 6
EXIT_GRADCHECK = 7
EXIT_IO = 8

INVENTORY_FILE = "inventory.txt"
FEATURES_FILE = "features.txt"
ALIGNMENTS_FILE = "alignments.txt"
TRIALS_FILE = "trials.txt"
SCORES_FILE = "scores.txt"
LOSS_LOG_FILE = "loss_log.txt"
REPORT_TXT_FILE = "report.txt"
REPORT_CSV_FILE = "report.csv"
FRATIO_FILE = "fratio.csv"
EXPLANATION_FILE = "explanation.txt"
GRADCHECK_FILE = "gradcheck.txt"
CONFIG_ECHO_FILE = "config_used.txt"


def _add(parser: argparse.ArgumentParser, registry: dict, *names, **kwargs):
    action = parser.add_argument(*names, **kwargs)
    registry[action.dest] = action.type if action.type is not None else str
    return action


def _new_subcommand(subparsers, registries, name: str, outputs: str, help_text: str):
    """A subcommand with ``--config`` and ``--out-dir``, the directory for ``outputs``."""
    sub = subparsers.add_parser(
        name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    registry: dict = {}
    registries[name] = registry
    sub.add_argument("--config", type=str, default=None,
                     help="key=value file with defaults for any flag of this subcommand")
    _add(sub, registry, "--out-dir", type=str, default=None, help=f"directory for {outputs}")
    return sub, registry


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phonetrait",
        description="Explainable phonetic-trait speaker verification pipeline",
    )
    # A --config before the subcommand is parsed only to be refused.
    parser.add_argument("--config", dest="config_before_command", help=argparse.SUPPRESS)
    subparsers = parser.add_subparsers(dest="command")
    registries: dict[str, dict] = {}

    sub, reg = _new_subcommand(subparsers, registries, "gen-corpus", "the corpus files",
                               "generate a synthetic corpus with alignments and trials")
    _add(sub, reg, "--seed", type=int, default=presets.CORPUS_SEED, help="corpus generation seed")
    _add(sub, reg, "--n-speakers", type=int, default=presets.N_SPEAKERS, help="speakers to generate")
    _add(sub, reg, "--utts-per-speaker", type=int, default=presets.UTTS_PER_SPEAKER,
         help="utterances per speaker")
    _add(sub, reg, "--feature-dim", type=int, default=presets.FEATURE_DIM,
         help="synthetic feature width F")
    _add(sub, reg, "--segment-min", type=int, default=presets.SEGMENT_LENGTH_RANGE[0],
         help="minimum frames per phone segment")
    _add(sub, reg, "--segment-max", type=int, default=presets.SEGMENT_LENGTH_RANGE[1],
         help="maximum frames per phone segment")
    _add(sub, reg, "--phones-min", type=int, default=presets.PHONES_PER_UTT_RANGE[0],
         help="minimum segments per utterance")
    _add(sub, reg, "--phones-max", type=int, default=presets.PHONES_PER_UTT_RANGE[1],
         help="maximum segments per utterance")
    _add(sub, reg, "--noise-std", type=float, default=presets.NOISE_STD,
         help="frame noise standard deviation")
    _add(sub, reg, "--speaker-spread", type=float, default=presets.SPEAKER_SPREAD,
         help="speaker deviation around the shared phone prototypes")
    _add(sub, reg, "--rare-phone", type=str, default=presets.RARE_PHONE,
         help="label emitted rarely, empty string to disable")
    _add(sub, reg, "--rare-phone-weight", type=float, default=presets.RARE_PHONE_WEIGHT,
         help="relative emission weight of the rare phone")
    _add(sub, reg, "--n-target", type=int, default=presets.EVAL_N_TARGET,
         help="same-speaker trials to sample")
    _add(sub, reg, "--n-nontarget", type=int, default=presets.EVAL_N_NONTARGET,
         help="cross-speaker trials to sample")
    _add(sub, reg, "--trial-seed", type=int, default=presets.TRIAL_SEED, help="trial sampling seed")

    sub, reg = _new_subcommand(subparsers, registries, "train", "checkpoints and the loss log",
                               "train a model on a generated corpus")
    _add(sub, reg, "--seed", type=int, default=presets.TRAIN_SEED,
         help="initialisation and batch sampling seed")
    _add(sub, reg, "--corpus-dir", type=str, default=None, help="directory holding the corpus files")
    default_train = presets.desk_train_config()
    _add(sub, reg, "--epochs", type=int, default=default_train.epochs, help="training epochs")
    _add(sub, reg, "--steps-per-epoch", type=int, default=default_train.steps_per_epoch,
         help="batches per epoch")
    _add(sub, reg, "--speakers-per-batch", type=int, default=default_train.speakers_per_batch,
         help="speakers K per pair batch")
    _add(sub, reg, "--learning-rate", type=float, default=default_train.learning_rate,
         help="constant SGD learning rate")
    _add(sub, reg, "--momentum", type=float, default=default_train.momentum, help="SGD momentum")
    _add(sub, reg, "--alpha", type=float, default=default_train.weights.alpha,
         help="weight of the matched trait verification term")
    _add(sub, reg, "--beta", type=float, default=default_train.weights.beta,
         help="weight of the unmatched trait verification term")
    _add(sub, reg, "--gamma", type=float, default=default_train.weights.gamma,
         help="weight of the trait center term")
    _add(sub, reg, "--margin", type=float, default=default_train.aam.margin,
         help="angular margin of the class loss")
    _add(sub, reg, "--scale", type=float, default=default_train.aam.scale,
         help="logit scale of the class loss")
    default_model = presets.desk_model_config()
    _add(sub, reg, "--layers", type=str, default=format_layer_string(default_model.encoder.layers),
         help="encoder layers as offsets:dim:nonlinearity groups separated by ';'")
    _add(sub, reg, "--embedding-dim", type=int, default=default_model.embedding_dim,
         help="speaker embedding width")

    sub, reg = _new_subcommand(subparsers, registries, "score", "the score file",
                               "score a trial list with a trained checkpoint")
    _add(sub, reg, "--corpus-dir", type=str, default=None, help="directory holding the corpus files")
    _add(sub, reg, "--checkpoint", type=str, default=None, help="checkpoint file to score with")
    _add(sub, reg, "--trials", type=str, default=None,
         help="trial file, default <corpus-dir>/trials.txt")

    sub, reg = _new_subcommand(subparsers, registries, "eval", "the reports",
                               "compute detection metrics and the explainability correlation")
    _add(sub, reg, "--scores", type=str, default=None, help="score file to evaluate")
    _add(sub, reg, "--p-target", type=float, default=presets.P_TARGET,
         help="target prior of the detection cost")
    _add(sub, reg, "--c-miss", type=float, default=presets.C_MISS, help="miss cost")
    _add(sub, reg, "--c-fa", type=float, default=presets.C_FA, help="false-alarm cost")

    sub, reg = _new_subcommand(subparsers, registries, "fratio", "the table",
                               "per-phone discriminability table from a score file")
    _add(sub, reg, "--seed", type=int, default=0, help="resampling seed")
    _add(sub, reg, "--scores", type=str, default=None, help="score file to analyse")
    _add(sub, reg, "--inventory", type=str, default=None, help="inventory file naming the phones")
    _add(sub, reg, "--n-samples", type=int, default=presets.F_RATIO_SAMPLES,
         help="draws per pool; also the minimum pool size for a phone to be included")

    sub, reg = _new_subcommand(subparsers, registries, "explain", "the explanation",
                               "export one trial's per-phone evidence")
    _add(sub, reg, "--scores", type=str, default=None, help="score file to read")
    _add(sub, reg, "--inventory", type=str, default=None, help="inventory file naming the phones")
    _add(sub, reg, "--index", type=int, default=0, help="0-based trial row to explain")

    sub, reg = _new_subcommand(subparsers, registries, "gradcheck", "the report",
                               "finite-difference certification of all gradients")
    _add(sub, reg, "--seed", type=int, default=0, help="model and batch seed")
    _add(sub, reg, "--feature-dim", type=int, default=5, help="feature width of the toy corpus")
    _add(sub, reg, "--trait-dim", type=int, default=8, help="frame embedding width")
    _add(sub, reg, "--embedding-dim", type=int, default=4, help="speaker embedding width")
    _add(sub, reg, "--n-phones", type=int, default=6, help="inventory size of the toy corpus")
    _add(sub, reg, "--speakers-per-batch", type=int, default=3, help="speakers K in the checked batch")
    _add(sub, reg, "--step-size", type=float, default=1e-5, help="finite difference step")
    _add(sub, reg, "--tolerance", type=float, default=1e-4, help="max relative error to pass")

    return parser, subparsers, registries


def _echo_config(command: str, args, registry: dict, out: Path) -> None:
    with atomic_write(out / CONFIG_ECHO_FILE) as f:
        f.write(f"command={command}\n")
        for dest in sorted(registry):
            f.write(f"{dest}={cell(getattr(args, dest))}\n")


def _check_echoable(args, registry: dict) -> None:
    """ConfigurationError naming the first string flag whose value
    ``_load_config_file`` would not read back from the echo as given: one that
    is padded (values are stripped), holds a line break or is not UTF-8. A
    value holding a NUL byte is refused too, as no path can hold one."""
    for dest in sorted(registry):
        value = getattr(args, dest)
        if registry[dest] is not str or value is None:
            continue
        flag = f"--{dest.replace('_', '-')}"
        if "\x00" in value:
            raise ConfigurationError(f"{flag} {value!r} holds a NUL byte, which no path can")
        if (value != value.strip() or "\n" in value or "\r" in value
                or value.encode("utf-8", "replace").decode() != value):
            raise ConfigurationError(f"{flag} {value!r} must be unpadded, "
                                     f"on one line and UTF-8 to be echoed to {CONFIG_ECHO_FILE}")


def _load_config_file(path: str, command: str, registry: dict) -> dict:
    overrides = {}
    seen = set()
    with LineReader(path) as lines:
        for text in lines.records():
            stripped = text.strip()
            if stripped.startswith("#"):
                continue
            key, value = (part.strip() for part in lines.key_value(stripped, "="))
            seen.add(lines.unique_key(seen, key))
            if key == "command":
                if value != command:
                    raise ConfigurationError(f"{path} is a {value!r} config, not {command!r}")
                continue
            if key not in registry:
                raise ConfigurationError(f"unknown config key {key!r} in {path}")
            overrides[key] = lines.parse([value], registry[key], f"value for key {key!r}")[0]
    return overrides


def _require(value, flag: str):
    """``value``, refused if missing or empty (an empty path is the working directory)."""
    if not value:
        raise ConfigurationError(f"{flag} is required")
    return value


def _load_corpus(corpus_dir: str):
    base = Path(corpus_dir)
    inventory = load_inventory(base / INVENTORY_FILE)
    features = load_features(base / FEATURES_FILE)
    alignments = load_alignments(base / ALIGNMENTS_FILE, inventory)
    return inventory, CorpusIndex.build(features, alignments)


def cmd_gen_corpus(args, out: Path) -> int:
    inventory = default_inventory()
    weights = presets.desk_phone_weights(inventory, args.rare_phone, args.rare_phone_weight)
    features, alignments, _ = generate_corpus(
        n_speakers=args.n_speakers,
        utts_per_speaker=args.utts_per_speaker,
        inventory=inventory,
        feature_dim=args.feature_dim,
        segment_length_range=(args.segment_min, args.segment_max),
        phones_per_utt_range=(args.phones_min, args.phones_max),
        noise_std=args.noise_std,
        seed=args.seed,
        speaker_spread=args.speaker_spread,
        phone_weights=weights,
    )
    trials = make_trials(features, args.n_target, args.n_nontarget, args.trial_seed)
    save_inventory(inventory, out / INVENTORY_FILE)
    save_features(features, out / FEATURES_FILE)
    save_alignments(alignments, inventory, out / ALIGNMENTS_FILE)
    save_trials(trials, out / TRIALS_FILE)
    return EXIT_OK


def cmd_train(args, out: Path) -> int:
    inventory, index = _load_corpus(_require(args.corpus_dir, "--corpus-dir"))
    model_cfg = ModelConfig(EncoderConfig(index.feature_dim, parse_layer_string(args.layers)),
                            args.embedding_dim)
    train_cfg = TrainConfig(
        epochs=args.epochs,
        steps_per_epoch=args.steps_per_epoch,
        speakers_per_batch=args.speakers_per_batch,
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        seed=args.seed,
        weights=LossWeights(args.alpha, args.beta, args.gamma),
        aam=AamConfig(args.margin, args.scale),
    )

    # The loss log is rewritten after each epoch's checkpoint, so a run cut
    # short keeps the rows of every epoch it finished.
    log = [LOSS_LOG_HEADER + "\n"]
    for epoch, state, history in train_epochs(index, inventory, model_cfg, train_cfg):
        save_checkpoint(state, model_cfg, out / f"ckpt_epoch{epoch}")
        log.extend(format_loss_log_line(
            rec.step, rec.total, rec.classification, rec.verification, rec.center
        ) + "\n" for rec in history[len(log) - 1:])
        with atomic_write(out / LOSS_LOG_FILE) as f:
            f.writelines(log)
    return EXIT_OK


def cmd_score(args, out: Path) -> int:
    corpus_dir = _require(args.corpus_dir, "--corpus-dir")
    inventory, index = _load_corpus(corpus_dir)
    state = load_checkpoint(_require(args.checkpoint, "--checkpoint"))
    if state.config.encoder.input_dim != index.feature_dim:
        raise ConfigurationError(
            f"checkpoint expects {state.config.encoder.input_dim}-dim features, "
            f"corpus provides {index.feature_dim}"
        )
    trial_path = args.trials if args.trials else str(Path(corpus_dir) / TRIALS_FILE)
    trials = load_trials(trial_path)
    save_scores(score_trials(state, index, trials, inventory.size), out / SCORES_FILE)
    return EXIT_OK


def cmd_eval(args, out: Path) -> int:
    scores_path = _require(args.scores, "--scores")
    table = load_scores(scores_path)

    def metrics_for(kind: str):
        scores, labels = labelled_scores(getattr(table, kind), table.labels)
        try:
            return compute_metrics(scores, labels, args.p_target, args.c_miss, args.c_fa)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{scores_path}: {kind} scores: {exc}") from None

    final = metrics_for("final")
    evidence = metrics_for("evidence")
    try:
        correlation = explainability_correlation(table)
    except NumericGuardError as exc:
        raise NumericGuardError(f"{scores_path}: {exc}") from None

    # Every MetricReport field, in field order, then the correlation.
    metrics = [(kind, metric, value) for kind, report in (("final", final), ("evidence", evidence))
               for metric, value in vars(report).items()]
    metrics.append(("explain", "correlation", correlation))
    header = [("n_trials", len(table)), ("p_target", args.p_target),
              ("c_miss", args.c_miss), ("c_fa", args.c_fa)]
    write_report(header + [(f"{kind}_{metric}", value) for kind, metric, value in metrics],
                 out / REPORT_TXT_FILE)
    with atomic_write(out / REPORT_CSV_FILE) as f:
        f.write("kind,metric,value\n")
        for kind, metric, value in metrics:
            f.write(f"{kind},{metric},{cell(value)}\n")
    return EXIT_OK


def cmd_fratio(args, out: Path) -> int:
    inventory = load_inventory(_require(args.inventory, "--inventory"))
    table = load_scores(_require(args.scores, "--scores"), inventory.size)
    rows = f_ratio(table, inventory, n_samples=args.n_samples, seed=args.seed)
    save_f_ratio(rows, out / FRATIO_FILE)
    return EXIT_OK


def cmd_explain(args, out: Path) -> int:
    inventory = load_inventory(_require(args.inventory, "--inventory"))
    table = load_scores(_require(args.scores, "--scores"), inventory.size)
    if not 0 <= args.index < len(table):
        raise ConfigurationError(
            f"--index {args.index} out of range for {len(table)} scored trials"
        )
    export_explanation(table, args.index, inventory, out / EXPLANATION_FILE)
    return EXIT_OK


def cmd_gradcheck(args, out: Path) -> int:
    if not 2 <= args.n_phones <= len(CMU_PHONES) + 1:
        raise ConfigurationError("--n-phones must be between 2 and the full inventory size")
    if args.speakers_per_batch < 2:
        raise ConfigurationError("speakers_per_batch must be >= 2")
    inventory = PhoneInventory(CMU_PHONES[: args.n_phones - 1] + (NON_VERBAL,))
    features, alignments, _ = generate_corpus(
        n_speakers=args.speakers_per_batch,
        utts_per_speaker=2,
        inventory=inventory,
        feature_dim=args.feature_dim,
        segment_length_range=(2, 4),
        phones_per_utt_range=(4, 8),
        noise_std=0.3,
        seed=args.seed,
        speaker_spread=0.4,
    )
    index = CorpusIndex.build(features, alignments)
    model_cfg = ModelConfig(
        encoder=EncoderConfig(
            args.feature_dim,
            parse_layer_string(f"-1,0,1:{args.trait_dim}:relu"),
        ),
        embedding_dim=args.embedding_dim,
    )
    seq = np.random.SeedSequence(args.seed)
    init_stream, batch_stream = seq.spawn(2)
    state = init_model(model_cfg, args.speakers_per_batch, init_stream)
    selection = sample_pair_batch(
        index, args.speakers_per_batch, np.random.default_rng(batch_stream)
    )
    report = grad_check(
        state, index, selection, LossWeights(), AamConfig(), inventory.size,
        step_size=args.step_size, tolerance=args.tolerance,
    )
    with atomic_write(out / GRADCHECK_FILE) as f:
        for line in report.lines():
            f.write(line + "\n")
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_GRADCHECK


_HANDLERS = {
    "gen-corpus": cmd_gen_corpus,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "fratio": cmd_fratio,
    "explain": cmd_explain,
    "gradcheck": cmd_gradcheck,
}


# The exit code of an error: that of the first entry whose types it belongs to.
_EXIT_CODES = (
    (FileNotFoundError, EXIT_MISSING_INPUT),
    (OSError, EXIT_IO),
    (ParseError, EXIT_PARSE),
    ((ConfigurationError, DimensionError, BatchError, EmptyUtteranceError), EXIT_CONFIG),
    ((NumericGuardError, DivergenceError), EXIT_NUMERIC),
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers, registries = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config_before_command is not None:
                raise ConfigurationError("--config needs a recognised subcommand before it")
            if args.command is not None and args.config is not None:
                # The file argparse parsed sets the subcommand's defaults,
                # which the flags given override when argv is parsed again.
                overrides = _load_config_file(args.config, args.command, registries[args.command])
                subparsers.choices[args.command].set_defaults(**overrides)
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse handles --help and bad flags
            return int(exc.code) if exc.code else EXIT_OK
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        registry = registries[args.command]
        _check_echoable(args, registry)
        out = Path(_require(args.out_dir, "--out-dir"))
        code = _HANDLERS[args.command](args, out)
        _echo_config(args.command, args, registry, out)
        return code
    except (OSError, PhonetraitError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
