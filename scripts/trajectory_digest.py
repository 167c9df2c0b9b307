"""Print one sha256 digest of a desk training trajectory.

Trains the desk model on the desk corpus at the preset seeds for --steps SGD
steps, then hashes every trainable array (in ``parameter_arrays`` order,
name, shape and bytes) followed by the loss-history record array. Two code
versions that print the same digest took bit-identical training steps.

--speakers-per-batch K (default 10, the desk's) sets the speakers of each
pair batch. Above the desk corpus's 20 speakers the corpus is the desk one at
K+16 speakers of 4 utterances each, so K=64 trains on the shape of the
benchmark's train-k64 workload.

The digest depends on the BLAS kernels of the host, so compare two versions
on the same machine only. The script runs BLAS on one thread whatever the
environment asks, as a threaded kernel may sum in another order:

    PYTHONPATH=src python scripts/trajectory_digest.py --steps 300
    PYTHONPATH=src python scripts/trajectory_digest.py --steps 20 --speakers-per-batch 64
"""

import argparse
import dataclasses
import hashlib
import os

# Set before NumPy loads, when BLAS reads them.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1"))

from phonetrait import presets
from phonetrait.corpus import CorpusIndex, default_inventory, generate_corpus
from phonetrait.training import parameter_arrays, train

DESK_K = presets.desk_train_config().speakers_per_batch


def trajectory_digest(steps: int, speakers_per_batch: int = DESK_K) -> str:
    inventory = default_inventory()
    corpus = presets.desk_corpus_kwargs(inventory)
    if speakers_per_batch > presets.N_SPEAKERS:
        corpus.update(n_speakers=speakers_per_batch + 16, utts_per_speaker=4)
    features, alignments, _ = generate_corpus(**corpus)
    index = CorpusIndex.build(features, alignments)
    cfg = dataclasses.replace(presets.desk_train_config(), epochs=1, steps_per_epoch=steps,
                              speakers_per_batch=speakers_per_batch)
    state, history = train(index, inventory, presets.desk_model_config(), cfg)
    digest = hashlib.sha256()
    for name, arr in parameter_arrays(state).items():
        digest.update(f"{name} {arr.shape}\n".encode())
        digest.update(arr.tobytes())
    digest.update(history.tobytes())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--steps", type=int, default=300, help="SGD steps to train (default 300)")
    parser.add_argument("--speakers-per-batch", type=int, default=DESK_K, metavar="K",
                        help=f"speakers per pair batch (default {DESK_K})")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    if args.speakers_per_batch < 2:
        parser.error("--speakers-per-batch must be >= 2")
    print(trajectory_digest(args.steps, args.speakers_per_batch))


if __name__ == "__main__":
    main()
