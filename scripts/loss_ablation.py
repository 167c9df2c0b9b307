"""Compare the full training objective against classification alone.

Trains the desk-scale model twice on the same corpus and seeds, once with
the pairwise trait terms active and once with alpha = beta = gamma = 0, then
prints both verification summaries. The trait terms should buy a visibly
lower evidence-score error rate.

BLAS runs on one thread whatever the environment asks, so a threaded kernel
cannot sum in another order and the printed figures repeat on one machine.
"""

import argparse
import dataclasses
import os

# Set before NumPy loads, when BLAS reads them.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1"))

from phonetrait import presets
from phonetrait.analysis import (
    compute_eer,
    explainability_correlation,
    labelled_scores,
)
from phonetrait.corpus import CorpusIndex, default_inventory, generate_corpus, make_trials
from phonetrait.losses import LossWeights
from phonetrait.scoring import score_trials
from phonetrait.training import train


def summarize(table) -> tuple[float, float, float]:
    return (
        compute_eer(*labelled_scores(table.final, table.labels))[0],
        compute_eer(*labelled_scores(table.evidence, table.labels))[0],
        explainability_correlation(table),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the preset epoch count for quick runs")
    args = parser.parse_args()
    if args.epochs is not None and args.epochs < 1:
        parser.error("--epochs must be >= 1")

    inventory = default_inventory()
    features, alignments, _ = generate_corpus(**presets.desk_corpus_kwargs(inventory))
    index = CorpusIndex.build(features, alignments)
    trials = make_trials(features, presets.EVAL_N_TARGET, presets.EVAL_N_NONTARGET,
                         presets.TRIAL_SEED)
    model_cfg = presets.desk_model_config()

    print(f"{'run':<16} {'final EER':>10} {'evidence EER':>13} {'correlation':>12}")
    for name, weights in (
        ("full loss", LossWeights()),
        ("class. only", LossWeights(0.0, 0.0, 0.0)),
    ):
        cfg = presets.desk_train_config(weights=weights)
        if args.epochs is not None:
            cfg = dataclasses.replace(cfg, epochs=args.epochs)
        state, _ = train(index, inventory, model_cfg, cfg)
        final_eer, evidence_eer, correlation = summarize(
            score_trials(state, index, trials, inventory.size))
        print(f"{name:<16} {final_eer:>10.3f} {evidence_eer:>13.3f} {correlation:>12.3f}")


if __name__ == "__main__":
    main()
