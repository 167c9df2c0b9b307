"""Print one sha256 digest of a desk training trajectory.

Trains the desk model on the desk corpus at the preset seeds for --steps SGD
steps, then hashes every trainable array (in ``parameter_arrays`` order,
name, shape and bytes) followed by the loss-history record array. Two code
versions that print the same digest took bit-identical training steps.

The digest depends on the BLAS kernels of the host, so compare two versions
on the same machine only:

    PYTHONPATH=src python scripts/trajectory_digest.py --steps 300
"""

import argparse
import dataclasses
import hashlib

from phonetrait import presets
from phonetrait.corpus import CorpusIndex, default_inventory, generate_corpus
from phonetrait.training import parameter_arrays, train


def trajectory_digest(steps: int) -> str:
    inventory = default_inventory()
    features, alignments, _ = generate_corpus(**presets.desk_corpus_kwargs(inventory))
    index = CorpusIndex.build(features, alignments)
    cfg = dataclasses.replace(presets.desk_train_config(), epochs=1, steps_per_epoch=steps)
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
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    print(trajectory_digest(args.steps))


if __name__ == "__main__":
    main()
