"""Explainable phonetic-trait speaker verification on synthetic corpora.

The pipeline: a deterministic synthetic corpus with phone alignments, a small
frame encoder, per-phone trait pooling to a speaker embedding, a three-part
training loss with hand-derived gradients, cosine trial scoring with
per-phone evidence, and EER/minDCF/discriminability analysis. ``phonetrait``
on the command line drives the whole thing.
"""

from .corpus import (
    CMU_PHONES,
    NON_VERBAL,
    CorpusIndex,
    PhoneAlignment,
    PhoneInventory,
    TrialList,
    UtteranceFeatures,
    default_inventory,
    generate_corpus,
    make_trials,
)
from .encoder import EncoderConfig, EncoderParams, LayerSpec, encode_layers
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
from .losses import AamConfig, LossWeights, total_loss
from .scoring import ScoreTable, score_trials
from .trait_layer import extract_traits
from .training import ModelConfig, ModelState, TrainConfig, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "CMU_PHONES",
    "NON_VERBAL",
    "AamConfig",
    "BatchError",
    "ConfigurationError",
    "CorpusIndex",
    "DimensionError",
    "DivergenceError",
    "EmptyUtteranceError",
    "EncoderConfig",
    "EncoderParams",
    "LayerSpec",
    "LossWeights",
    "ModelConfig",
    "ModelState",
    "NumericGuardError",
    "ParseError",
    "PhoneAlignment",
    "PhoneInventory",
    "PhonetraitError",
    "ScoreTable",
    "TrainConfig",
    "TrialList",
    "UtteranceFeatures",
    "default_inventory",
    "encode_layers",
    "extract_traits",
    "generate_corpus",
    "grad_check",
    "make_trials",
    "score_trials",
    "total_loss",
    "train",
]
