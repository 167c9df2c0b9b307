"""Every text loader rejects a malformed file with a ParseError at ``path:line``.

One table drives all ten loaders, so a change to the shared line reader that
moves a reported line, accepts a bad cell or loses a rule shows up here.
"""

import pytest

from phonetrait.analysis import FRATIO_HEADER, load_explanation, load_f_ratio, read_report
from phonetrait.cli import _load_config_file, build_parser
from phonetrait.corpus import (
    PhoneInventory,
    load_alignments,
    load_features,
    load_inventory,
    load_trials,
)
from phonetrait.errors import ParseError
from phonetrait.scoring import load_scores
from phonetrait.training import CHECKPOINT_MAGIC, load_checkpoint

PHONES = PhoneInventory(("AA", "AE", "AH"))

LOADERS = {
    "inventory": load_inventory,
    "alignments": lambda path: load_alignments(path, PHONES),
    "trials": load_trials,
    "features": load_features,
    "scores": load_scores,
    "fratio": load_f_ratio,
    "explanation": lambda path: load_explanation(path, PHONES),
    "report": read_report,
    "config": lambda path: _load_config_file(str(path), build_parser()[2]["gen-corpus"]),
    "checkpoint": load_checkpoint,
}

SCORE_ROW = "a\tb\t1\t0.5\t0.5\t0.5\n"
EXPLANATION = "enroll a\ntest b\nlabel 1\nfinal 0.5\nevidence 0.5\n"
# Six header lines; a tensor header that follows is line 7.
CHECKPOINT = (f"{CHECKPOINT_MAGIC}\ninput_dim 2\nlayers 0:2:relu\nembedding_dim 2\n"
              "n_classes 2\nstep 0\n")

# (loader, file text, line the error must name)
CASES = {
    "inventory-blank-line": ("inventory", "AA\n\nAE\n", 2),
    "inventory-empty": ("inventory", "", 1),
    "inventory-one-label": ("inventory", "AA\n", 1),
    "alignments-field-count": ("alignments", "u\t0\t2\tAA\nu\t2\t4\n", 2),
    "alignments-non-numeric": ("alignments", "u\t0\t2\tAA\nu\t2\tx\tAE\n", 2),
    "trials-field-count": ("trials", "1\ta\tb\n0\ta\tb\tc\n", 2),
    "features-header-field-count": ("features", "u s 2\n", 1),
    "features-header-non-numeric": ("features", "u s x 2\n", 1),
    "features-non-numeric": ("features", "u s 2 2\n1.0 2.0\n1.0 x\n", 3),
    "features-blank-in-block": ("features", "u s 2 2\n1.0 2.0\n\n3.0 4.0\n", 3),
    # A block cut short is reported at the end of the file, before a bad row in it.
    "features-truncated": ("features", "u s 3 2\n1.0\n1.0 2.0\n", 3),
    # A huge row count in a header is read as a cut-short block, not allocated.
    "features-truncated-huge-count": ("features", "u s 9999999999 2\n1.0 2.0\n", 2),
    "scores-field-count": ("scores", SCORE_ROW + "a\tc\t0\t0.5\t0.5\n", 2),
    "scores-non-numeric": ("scores", SCORE_ROW + "a\tc\t0\t0.5\tx\t0.5\n", 2),
    "scores-final-na": ("scores", SCORE_ROW + "a\tc\t0\tNA\t0.5\t0.5\n", 2),
    # Evidence is NA exactly when no phone is defined.
    "scores-evidence-without-phones": ("scores", SCORE_ROW + "a\tc\t0\t0.5\t0.5\tNA\n", 2),
    "scores-phones-without-evidence": ("scores", SCORE_ROW + "a\tc\t0\t0.5\tNA\t0.5\n", 2),
    "fratio-field-count": ("fratio", f"{FRATIO_HEADER}\nAA,1.0,1.0,1.0\n", 2),
    "fratio-non-numeric": ("fratio", f"{FRATIO_HEADER}\nAA,x,1.0,1.0,1\n", 2),
    "explanation-no-separator": ("explanation", "enroll a\ntest\n", 2),
    "explanation-trait-field-count": ("explanation", EXPLANATION + "trait\tAA\n", 6),
    "explanation-trait-non-numeric": ("explanation", EXPLANATION + "trait\tAA\tx\n", 6),
    "explanation-repeated-label": ("explanation", EXPLANATION + "label 0\n", 6),
    "explanation-repeated-trait": (
        "explanation", EXPLANATION + "trait\tAA\t0.5\ntrait\tAA\t0.25\n", 7),
    "explanation-bad-label": ("explanation", EXPLANATION.replace("label 1", "label 7"), 3),
    # An evidence line that disagrees with the trait lines is reported where it stands.
    "explanation-evidence-without-phones": ("explanation", EXPLANATION + "trait\tAA\tNA\n", 5),
    "explanation-phones-without-evidence": (
        "explanation", EXPLANATION.replace("evidence 0.5", "evidence NA") + "trait\tAA\t0.5\n", 5),
    "report-no-separator": ("report", "eer 0.1\nbroken\n", 2),
    "report-repeated-key": ("report", "final_eer 0.1\nfinal_eer 0.9\n", 2),
    "config-no-separator": ("config", "n_speakers=3\nbroken\n", 2),
    "config-non-numeric": ("config", "n_speakers=3\nn_target=many\n", 2),
    "config-repeated-key": ("config", "n_speakers=3\n\nn_speakers=4\n", 3),
    "checkpoint-blank-in-block": ("checkpoint", CHECKPOINT + "tensor w 2 2\n1.0 2.0\n\n3.0 4.0\n", 9),
    "checkpoint-truncated": ("checkpoint", CHECKPOINT + "tensor w 3 2\n1.0\n1.0 2.0\n", 9),
    "checkpoint-truncated-huge-count": (
        "checkpoint", CHECKPOINT + "tensor w 9999999999 2\n1.0 2.0\n", 8),
    "checkpoint-non-numeric": ("checkpoint", CHECKPOINT + "tensor w 1 2\n1.0 x\n", 8),
    "checkpoint-shape-non-numeric": ("checkpoint", CHECKPOINT + "tensor w x\n", 7),
    "checkpoint-negative-dimension": ("checkpoint", CHECKPOINT + "tensor w -2 2\n", 7),
    # A non-finite row is reported before a later row of the wrong width.
    "checkpoint-non-finite-first": (
        "checkpoint", CHECKPOINT + "tensor w 3 2\nnan 1.0\n1.0\n1.0 2.0\n", 8),
}
for bad in ("nan", "inf", "-inf"):
    CASES.update({
        f"features-non-finite-{bad}": ("features", f"u s 2 2\n1.0 2.0\n{bad} 2.0\n", 3),
        f"scores-final-{bad}": ("scores", SCORE_ROW + f"a\tc\t0\t{bad}\t0.5\t0.5\n", 2),
        f"scores-evidence-{bad}": ("scores", SCORE_ROW + f"a\tc\t0\t0.5\t{bad}\t0.5\n", 2),
        f"scores-similarity-{bad}": ("scores", SCORE_ROW + f"a\tc\t0\t0.5\t0.5\t{bad}\n", 2),
        f"fratio-within-{bad}": ("fratio", f"{FRATIO_HEADER}\nAA,{bad},1.0,1.0,1\n", 2),
        f"explanation-final-{bad}": ("explanation", EXPLANATION.replace("final 0.5", f"final {bad}"), 4),
        f"explanation-trait-{bad}": ("explanation", EXPLANATION + f"trait\tAA\t{bad}\n", 6),
    })
# f_ratio writes inf in the ratio column on purpose; nothing else is accepted there.
for bad in ("nan", "-inf"):
    CASES[f"fratio-ratio-{bad}"] = ("fratio", f"{FRATIO_HEADER}\nAA,1.0,1.0,{bad},1\n", 2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_file_names_its_line(tmp_path, case):
    loader, text, line = CASES[case]
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        LOADERS[loader](path)
    assert str(info.value).startswith(f"{path}:{line}: ")
