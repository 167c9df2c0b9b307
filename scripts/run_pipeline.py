"""Run the standard desk-scale experiment end to end.

Generates the seeded corpus, trains with the full objective, scores the
trials, and writes the metric report, the per-phone discriminability table
and one example explanation under --out-dir. Trial counts are raised above
the evaluation default so every common phone clears the 500-sample floor of
the discriminability table. Each stage's wall time is printed to stdout as it
finishes; the artifacts do not depend on it.
"""

import argparse
import sys
import time
from pathlib import Path

from phonetrait import presets
from phonetrait.analysis import read_report
from phonetrait.cli import main as cli


def step(argv: list[str]) -> None:
    start = time.perf_counter()
    code = cli(argv)
    if code != 0:
        sys.exit(code)
    print(f"  {argv[0]:<10} {time.perf_counter() - start:6.2f} s", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/desk",
                        help="root directory for corpus and run artifacts")
    args = parser.parse_args()

    root = Path(args.out_dir)
    corpus, run = str(root / "corpus"), str(root / "run")
    epochs = presets.desk_train_config().epochs

    step(["gen-corpus", "--out-dir", corpus,
          "--n-target", "2000", "--n-nontarget", "2000"])
    step(["train", "--corpus-dir", corpus, "--out-dir", run])
    step(["score", "--corpus-dir", corpus,
          "--checkpoint", f"{run}/ckpt_epoch{epochs}", "--out-dir", run])
    step(["eval", "--scores", f"{run}/scores.txt", "--out-dir", run])
    step(["fratio", "--scores", f"{run}/scores.txt",
          "--inventory", f"{corpus}/inventory.txt", "--out-dir", run,
          "--seed", str(presets.TRIAL_SEED)])
    step(["explain", "--scores", f"{run}/scores.txt",
          "--inventory", f"{corpus}/inventory.txt", "--out-dir", run,
          "--index", "0"])

    report = read_report(Path(run) / "report.txt")
    print(f"artifacts under {root}")
    for key in ("n_trials", "final_eer", "final_min_dcf",
                "evidence_eer", "evidence_min_dcf", "explain_correlation"):
        print(f"  {key} = {report[key]}")


if __name__ == "__main__":
    main()
