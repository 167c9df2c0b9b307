"""The standard desk-scale experiment shared by the CLI, scripts and tests.

One place defines the corpus, model and optimisation settings so the
acceptance experiment, the pipeline script and the command-line defaults all
agree. The values are small enough to train in well under ten minutes yet
large enough that trial metrics are meaningful.
"""

from __future__ import annotations

import numpy as np

from .corpus import PhoneInventory
from .encoder import EncoderConfig, LayerSpec
from .losses import AamConfig, LossWeights
from .training import ModelConfig, TrainConfig

# Corpus shape: 20 speakers x 10 utterances over the 40-unit inventory.
N_SPEAKERS = 20
UTTS_PER_SPEAKER = 10
FEATURE_DIM = 8
# Short segments keep single-phone summaries noisy enough that the pairwise
# trait losses have something to improve; utterance-level pooling still sees
# 45-60 segments per utterance.
SEGMENT_LENGTH_RANGE = (1, 3)
PHONES_PER_UTT_RANGE = (45, 60)
# Keeps per-phone signature norms about 10x the noise floor.
NOISE_STD = 0.28
SPEAKER_SPREAD = 0.5
# The last real phone is emitted rarely so the discriminability report has a
# deterministically excluded, flagged row.
RARE_PHONE = "ZH"
RARE_PHONE_WEIGHT = 0.02

CORPUS_SEED = 11
TRAIN_SEED = 23
TRIAL_SEED = 37
EVAL_N_TARGET = 250
EVAL_N_NONTARGET = 250
# Detection cost: target prior, miss cost and false-alarm cost.
P_TARGET = 0.01
C_MISS = 1.0
C_FA = 1.0
# F-ratio draws per pool, which are also the fewest values a pool needs for
# its phone to be ranked.
F_RATIO_SAMPLES = 500


def desk_phone_weights(
    inventory: PhoneInventory,
    rare_phone: str = RARE_PHONE,
    rare_weight: float = RARE_PHONE_WEIGHT,
) -> np.ndarray:
    """Uniform emission weights with ``rare_phone`` at ``rare_weight``.

    An empty ``rare_phone`` leaves every weight at 1; a label missing from
    the inventory raises ConfigurationError.
    """
    weights = np.ones(inventory.size)
    if rare_phone:
        weights[inventory.index_of(rare_phone)] = rare_weight
    return weights


def desk_corpus_kwargs(inventory: PhoneInventory) -> dict:
    return dict(
        n_speakers=N_SPEAKERS,
        utts_per_speaker=UTTS_PER_SPEAKER,
        inventory=inventory,
        feature_dim=FEATURE_DIM,
        segment_length_range=SEGMENT_LENGTH_RANGE,
        phones_per_utt_range=PHONES_PER_UTT_RANGE,
        noise_std=NOISE_STD,
        seed=CORPUS_SEED,
        speaker_spread=SPEAKER_SPREAD,
        phone_weights=desk_phone_weights(inventory),
    )


def desk_model_config() -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(
            input_dim=FEATURE_DIM,
            layers=(
                LayerSpec((-1, 0, 1), 16, "relu"),
                LayerSpec((0,), 16, "relu"),
            ),
        ),
        embedding_dim=8,
    )


def desk_train_config(
    weights: LossWeights | None = None, seed: int = TRAIN_SEED
) -> TrainConfig:
    return TrainConfig(
        epochs=50,
        steps_per_epoch=100,
        speakers_per_batch=10,
        learning_rate=0.09,
        momentum=0.9,
        seed=seed,
        weights=weights if weights is not None else LossWeights(),
        aam=AamConfig(),
    )
