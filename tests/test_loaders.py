"""Every text loader rejects a malformed file with a ParseError at ``path:line``.

One table drives all eight loaders, so a change to the shared line reader that
moves a reported line, accepts a bad cell or loses a rule shows up here. The
chunked loaders are also held to the row-by-row readers of ``_oracles`` on
fuzzed files: the same error at the same line, or the same values.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import scan_alignments, scan_features, scan_scores
from phonetrait.analysis import read_report
from phonetrait.cli import _load_config_file, build_parser
from phonetrait import corpus, scoring, textio
from phonetrait.corpus import (
    _ALIGNMENT_CHUNK,
    PhoneAlignment,
    PhoneInventory,
    load_alignments,
    load_features,
    load_inventory,
    load_trials,
    save_alignments,
)
from phonetrait.encoder import _NONLINEARITIES, EncoderConfig, EncoderParams, LayerSpec
from phonetrait.errors import ConfigurationError, ParseError
from phonetrait.scoring import _SCORE_CHUNK, ScoreTable, load_scores, save_scores
from phonetrait.trait_layer import ProjectionParams
from phonetrait.training import (
    CHECKPOINT_MAGIC,
    ModelState,
    load_checkpoint,
    parameter_arrays,
    save_checkpoint,
)

PHONES = PhoneInventory(("AA", "AE", "AH"))

LOADERS = {
    "inventory": load_inventory,
    "alignments": lambda path: load_alignments(path, PHONES),
    "trials": load_trials,
    "features": load_features,
    "scores": load_scores,
    "report": read_report,
    "config": lambda path: _load_config_file(str(path), "gen-corpus",
                                             build_parser()[2]["gen-corpus"]),
    "checkpoint": load_checkpoint,
}

SCORE_ROW = "a\tb\t1\t0.5\t0.5\t0.5\n"
# Six header lines; a tensor header that follows is line 7.
CHECKPOINT = (f"{CHECKPOINT_MAGIC}\ninput_dim 2\nlayers 0:2:relu\nembedding_dim 2\n"
              "n_classes 2\nstep 0\n")

# (loader, file text, line the error must name)
CASES = {
    "inventory-blank-line": ("inventory", "AA\n\nAE\n", 2),
    "inventory-empty": ("inventory", "", 1),
    "inventory-one-label": ("inventory", "AA\n", 1),
    # A tab would split an alignment or explanation cell, a comma an F-ratio cell.
    "inventory-tab-in-label": ("inventory", "AA\nA\tA\nAE\n", 2),
    "inventory-comma-in-label": ("inventory", "AA\nAE\nA,E\n", 3),
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
    # A dimension past int64 is refused at its line, and a header count
    # allocates nothing: a huge n_classes is only a missing tensor.
    "checkpoint-input-dim-past-int64": (
        "checkpoint", CHECKPOINT.replace("input_dim 2", "input_dim 99999999999999999999"), 2),
    "checkpoint-layer-dim-past-int64": (
        "checkpoint", CHECKPOINT.replace("0:2:relu", "0:99999999999999999999:relu"), 3),
    "checkpoint-n-classes-past-int64": (
        "checkpoint", CHECKPOINT.replace("n_classes 2", "n_classes 99999999999999999999"), 5),
    "checkpoint-n-classes-huge": (
        "checkpoint", CHECKPOINT.replace("n_classes 2", "n_classes 100000000000"), 6),
    "checkpoint-tensor-dim-past-int64": (
        "checkpoint", CHECKPOINT + "tensor class_weights 0 99999999999999999999\n", 7),
    # The row length would wrap to 0 in int64 arithmetic.
    "checkpoint-tensor-row-past-int64": (
        "checkpoint", CHECKPOINT + "tensor class_weights 1 4294967296 4294967296\n"
        + " ".join(["1.0"] * 8) + "\n", 7),
}
for bad in ("nan", "inf", "-inf"):
    CASES.update({
        f"features-non-finite-{bad}": ("features", f"u s 2 2\n1.0 2.0\n{bad} 2.0\n", 3),
        f"scores-final-{bad}": ("scores", SCORE_ROW + f"a\tc\t0\t{bad}\t0.5\t0.5\n", 2),
        f"scores-evidence-{bad}": ("scores", SCORE_ROW + f"a\tc\t0\t0.5\t{bad}\t0.5\n", 2),
        f"scores-similarity-{bad}": ("scores", SCORE_ROW + f"a\tc\t0\t0.5\t0.5\t{bad}\n", 2),
    })
# float() reads these, the bulk parse behind the loaders does not.
for bad in ("1_0", "\uff11"):
    CASES.update({
        f"features-{bad}": ("features", f"u s 2 2\n1.0 2.0\n{bad} 2.0\n", 3),
        f"checkpoint-{bad}": ("checkpoint", CHECKPOINT + f"tensor w 1 2\n1.0 {bad}\n", 8),
        f"scores-{bad}": ("scores", SCORE_ROW + f"a\tc\t0\t0.5\t0.5\t{bad}\n", 2),
        f"alignments-{bad}": ("alignments", f"u\t0\t2\tAA\nu\t2\t{bad}\tAE\n", 2),
    })
# Only a cell that is exactly NA is missing: a signed or padded NA is no number,
# and the parser must not strip an ASCII separator from a number.
CASES.update({
    "scores-signed-na": ("scores", SCORE_ROW + "a\tc\t0\t0.5\t0.5\t-NA\n", 2),
    "scores-padded-na": ("scores", SCORE_ROW + "a\tc\t0\t0.5\t0.5\tNA \n", 2),
    "scores-separator-char": ("scores", SCORE_ROW + "a\tc\t0\t0.5\t0.5\t0.5\x1c\n", 2),
})


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_file_names_its_line(tmp_path, case):
    loader, text, line = CASES[case]
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        LOADERS[loader](path)
    assert str(info.value).startswith(f"{path}:{line}: ")


# (good row, bad row) of each chunk-checked loader
CHUNKED_ROWS = {
    "trials": (b"1\ta\tb\n", b"2\ta\tb\n"),
    "alignments": (b"u\t0\t2\tAA\n", b"u\t0\t2\tZZ\n"),
    "scores": (b"a\tb\t1\t0.5\t0.5\t0.5\n", b"a\tb\t7\t0.5\t0.5\t0.5\n"),
}


@pytest.mark.parametrize("loader", sorted(CHUNKED_ROWS))
def test_bad_row_is_named_before_a_later_byte_that_is_not_utf8(tmp_path, loader):
    # A loader reads a chunk of lines before it checks their rows; a byte that
    # is not UTF-8 ends the chunk, so a bad row above it is the one named.
    good, bad = CHUNKED_ROWS[loader]
    path = tmp_path / "input.txt"
    path.write_bytes(bad + b"x\xff\ty\n")
    with pytest.raises(ParseError) as info:
        LOADERS[loader](path)
    assert str(info.value).startswith(f"{path}:1: ")
    path.write_bytes(good + b"x\xff\ty\n")
    with pytest.raises(ParseError, match=f"{path}:2: byte 0xff is not UTF-8"):
        LOADERS[loader](path)


BAD_SCORE_ROWS = {
    "non-numeric": "a\tc\t0\t0.5\tx\t0.5\n",
    "non-finite": "a\tc\t0\t0.5\t0.5\tinf\n",
    "evidence": "a\tc\t0\t0.5\tNA\t0.5\n",
    "label": "a\tc\t7\t0.5\t0.5\t0.5\n",
    "field-count": "a\tc\t0\t0.5\t0.5\n",
}


@pytest.mark.parametrize("kind", sorted(BAD_SCORE_ROWS))
@pytest.mark.parametrize("bad_row", [_SCORE_CHUNK - 1, _SCORE_CHUNK, _SCORE_CHUNK + 1])
def test_bad_score_row_near_a_chunk_boundary(tmp_path, kind, bad_row):
    # Score rows are converted a chunk at a time; a bad row just before, at
    # or after the boundary is still named at its own line.
    rows = [SCORE_ROW] * (2 * _SCORE_CHUNK + 1)
    rows[bad_row] = BAD_SCORE_ROWS[kind]
    path = tmp_path / "scores.txt"
    path.write_text("".join(rows))
    with pytest.raises(ParseError) as info:
        load_scores(path)
    assert str(info.value).startswith(f"{path}:{bad_row + 1}: ")


def test_bad_cell_is_named_before_a_later_bad_label(tmp_path):
    # The label is checked as the row is read, the cells a chunk later: the
    # earlier row must still be the one reported.
    rows = [SCORE_ROW] * 5
    rows[1] = BAD_SCORE_ROWS["non-numeric"]
    rows[3] = BAD_SCORE_ROWS["label"]
    path = tmp_path / "scores.txt"
    path.write_text("".join(rows))
    with pytest.raises(ParseError) as info:
        load_scores(path)
    assert str(info.value).startswith(f"{path}:2: non-numeric")


def test_bad_label_is_named_before_a_bad_cell_in_its_row(tmp_path):
    # Within one row the rules keep the order a row is read in: the field
    # count, the label, then the cells.
    path = tmp_path / "scores.txt"
    path.write_text(SCORE_ROW + "a\tc\t7\t0.5\tx\t0.5\n")
    with pytest.raises(ParseError) as info:
        load_scores(path)
    assert str(info.value).startswith(f"{path}:2: label must be 1, 0 or NA")


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
               1.7976931348623157e308, -1.7976931348623157e308)
values = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"))


@st.composite
def score_tables(draw):
    n, width = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    similarity = np.array([[draw(st.none() | values) for _ in range(width)] for _ in range(n)],
                          dtype=np.float64).reshape(n, width)  # None -> NaN (NA)
    if n:  # an all-NA row among them
        similarity[draw(st.integers(0, n - 1))] = np.nan
    evidence = [np.nan if np.isnan(row).all() else draw(values) for row in similarity]
    return ScoreTable([draw(ids) for _ in range(n)], [draw(ids) for _ in range(n)],
                      [draw(st.sampled_from([-1, 0, 1])) for _ in range(n)],
                      [draw(values) for _ in range(n)], evidence, similarity)


@settings(max_examples=150, deadline=None)
@given(score_tables())
def test_score_file_round_trip_is_byte_identical(tmp_path_factory, table):
    root = tmp_path_factory.mktemp("scores")
    save_scores(table, root / "first.txt")
    loaded = load_scores(root / "first.txt", table.similarity.shape[1])
    assert (loaded.enroll_ids, loaded.test_ids) == (table.enroll_ids, table.test_ids)
    assert loaded.labels.tobytes() == table.labels.tobytes()
    for column in ("final", "evidence", "similarity"):  # bitwise: -0.0 and NaN alike
        back, written = getattr(loaded, column), getattr(table, column)
        assert np.array_equal(np.isnan(back), np.isnan(written))
        assert back.tobytes() == written.tobytes()
    save_scores(loaded, root / "second.txt")
    assert (root / "second.txt").read_bytes() == (root / "first.txt").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_score_table_refuses_what_load_scores_rejects(tmp_path_factory, data):
    # The table's value rules are the loader's: a row it refuses is a row
    # whose line load_scores rejects, and a table it takes reads back bitwise.
    n, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    cell = st.sampled_from((np.nan, np.inf, -np.inf)) | values
    labels = [data.draw(st.sampled_from([-1, 0, 1, 2])) for _ in range(n)]
    columns = np.array([[data.draw(cell) for _ in range(2 + width)] for _ in range(n)])
    columns[:, 1] = [np.nan if np.isnan(r[2:]).all() and data.draw(st.booleans()) else r[1]
                     for r in columns]  # mostly consistent NA patterns
    path = tmp_path_factory.mktemp("rules") / "scores.txt"
    path.write_text("".join(
        "\t".join([f"e{k}", f"t{k}", "NA" if label < 0 else str(label)]
                  + ["NA" if np.isnan(v) else repr(float(v)) for v in r]) + "\n"
        for k, (label, r) in enumerate(zip(labels, columns))))
    made = _outcome(lambda cols: ScoreTable([f"e{k}" for k in range(n)],
                                            [f"t{k}" for k in range(n)], labels, cols[:, 0],
                                            cols[:, 1], cols[:, 2:]), columns)
    loaded = _outcome(load_scores, path)
    assert (made[0] == "ok") == (loaded[0] == "ok"), (made, loaded)
    if made[0] == "ok":
        assert np.column_stack([loaded[1].final, loaded[1].evidence,
                                loaded[1].similarity]).tobytes() == columns.tobytes()
        assert loaded[1].labels.tolist() == labels


offsets = st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True).map(sorted)
# Architectures parse_layer_string reads back, with arrays of edge values.
layer_specs = st.builds(LayerSpec, offsets, st.integers(1, 6), st.sampled_from(_NONLINEARITIES))
weights = st.sampled_from((1e300, -3.5e300, 1e-310)) | values


@st.composite
def model_states(draw):
    encoder = EncoderConfig(draw(st.integers(1, 4)),
                            draw(st.lists(layer_specs, min_size=1, max_size=3)))
    embedding_dim, n_classes = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def array(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(weights, min_size=size, max_size=size))).reshape(shape)

    shapes = encoder.weight_shapes()
    return ModelState(
        EncoderParams(encoder, [array(*shape) for shape in shapes],
                      [array(shape[0]) for shape in shapes]),
        ProjectionParams(array(embedding_dim, 2 * encoder.output_dim), array(embedding_dim)),
        array(n_classes, embedding_dim), draw(st.integers(0, 10 ** 6)))


@settings(max_examples=100, deadline=None)
@given(model_states())
def test_checkpoint_round_trip_is_byte_identical(tmp_path_factory, state):
    root = tmp_path_factory.mktemp("checkpoint")
    save_checkpoint(state, state.config, root / "first")
    loaded = load_checkpoint(root / "first")
    assert (loaded.config, loaded.step) == (state.config, state.step)
    for name, arr in parameter_arrays(state).items():  # bitwise: -0.0 alike
        back = parameter_arrays(loaded)[name]
        assert (back.shape, back.dtype, back.tobytes()) == (arr.shape, arr.dtype, arr.tobytes())
    save_checkpoint(loaded, loaded.config, root / "second")
    assert (root / "second").read_bytes() == (root / "first").read_bytes()


def _counting_opens(calls):
    """``open`` that appends each path it opens to ``calls``."""
    def counting(path, *args, **kwargs):
        calls.append(path)
        return open(path, *args, **kwargs)
    return counting


def test_alignment_rows_across_a_chunk_boundary(tmp_path):
    # One utterance runs across the boundary between two converted chunks: it
    # loads with the file opened once, and a gap at the boundary's first row
    # is named at its own line.
    n = _ALIGNMENT_CHUNK + 2
    alignments = [PhoneAlignment("u", [(k, k + 1, k % 3) for k in range(n)]),
                  PhoneAlignment("v", [(0, 2, 1)])]
    path = tmp_path / "alignments.txt"
    save_alignments(alignments, PHONES, path)
    opened = []
    with mock.patch.object(textio, "open", _counting_opens(opened), create=True):
        loaded = load_alignments(path, PHONES)
    assert ([(a.utterance_id, a.segments.tolist()) for a in loaded]
            == [(a.utterance_id, a.segments.tolist()) for a in alignments])
    assert opened == [path]
    rows = path.read_text().splitlines(keepends=True)
    rows[_ALIGNMENT_CHUNK] = f"u\t{_ALIGNMENT_CHUNK + 1}\t{_ALIGNMENT_CHUNK + 2}\tAA\n"
    path.write_text("".join(rows))
    with pytest.raises(ParseError) as info:
        load_alignments(path, PHONES)
    assert str(info.value).startswith(f"{path}:{_ALIGNMENT_CHUNK + 1}: gap at frame")


# Cells a defect writes into a valid file: numbers, NA in its good and bad
# forms, non-finite and out-of-range values, labels and ids.
DEFECT_CELLS = ("x", "", "0", "1", "2", "-1", "7", "0.5", "1.5", "NA", "-NA", "NA ", " NA", "NAN",
                "nan", "inf", "-inf", "1e999", "1_0", "\uff11", "0x1", " 1", "1 ", "\x0b1", "1\x1c",
                "99999999999999999999", "AA", "ZZ", "u0")


@st.composite
def defects(draw, text, sep):
    """``text`` with 0-2 defects: a cell replaced, dropped or repeated, a line
    dropped, repeated, moved, swapped with the next or preceded by a blank
    line, or the file cut after a line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        cells = lines[k].split(sep)
        j = draw(st.integers(0, len(cells) - 1))
        kind = draw(st.sampled_from(("cell", "cell", "cell", "drop-cell", "repeat-cell",
                                     "drop", "repeat", "move", "swap", "blank", "cut")))
        if kind == "cell":
            cells[j] = draw(st.sampled_from(DEFECT_CELLS))
        elif kind == "drop-cell":
            del cells[j]
        elif kind == "repeat-cell":
            cells.insert(j, cells[j])
        lines[k] = sep.join(cells)
        if kind == "drop":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(k))
        elif kind == "swap" and k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif kind == "blank":
            lines.insert(k, draw(st.sampled_from(("", " ", "\t"))))
        elif kind == "cut":
            del lines[k + 1:]
    return "".join(line + "\n" for line in lines)


cells = st.sampled_from((0.5, -0.25, 1.0, 0.0, -0.0, 5e-324, 1e300))


@st.composite
def alignment_files(draw):
    alignments = []
    for u in range(draw(st.integers(1, 4))):
        lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        ends = np.cumsum(lengths).tolist()
        phones = draw(st.lists(st.integers(0, 2), min_size=len(ends), max_size=len(ends)))
        alignments.append(PhoneAlignment(f"u{u}", list(zip([0] + ends[:-1], ends, phones))))
    return "".join(f"{a.utterance_id}\t{s}\t{e}\t{PHONES.labels[p]}\n"
                   for a in alignments for s, e, p in a.segments.tolist())


@st.composite
def score_files(draw):
    n, width = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    similarity = np.array([[draw(st.none() | cells) for _ in range(width)] for _ in range(n)],
                          dtype=np.float64).reshape(n, width)
    evidence = [np.nan if np.isnan(row).all() else draw(cells) for row in similarity]
    return ScoreTable([f"e{k}" for k in range(n)], [f"t{k}" for k in range(n)],
                      [draw(st.sampled_from([-1, 0, 1])) for _ in range(n)],
                      [draw(cells) for _ in range(n)], evidence, similarity)


@st.composite
def feature_files(draw):
    blocks = []
    for u in range(draw(st.integers(1, 3))):
        n_frames, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rows = [" ".join(repr(draw(cells)) for _ in range(dim)) for _ in range(n_frames)]
        blocks.append(f"u{u} s {n_frames} {dim}\n" + "".join(row + "\n" for row in rows))
    return "".join(blocks)


def _outcome(read, path):
    try:
        return "ok", read(path)
    except (ParseError, ConfigurationError) as exc:
        return type(exc).__name__, str(exc)


def _check_against_oracle(tmp_path_factory, text, load, scan, as_oracle, chunk):
    path = tmp_path_factory.mktemp("differential") / "input.txt"
    path.write_text(text)
    opened = []
    with mock.patch.object(textio, "open", _counting_opens(opened), create=True), \
            mock.patch.object(corpus, "_ALIGNMENT_CHUNK", chunk), \
            mock.patch.object(scoring, "_SCORE_CHUNK", chunk):
        kind, loaded = _outcome(load, path)
    assert opened == [path]
    expected_kind, expected = _outcome(scan, path)
    assert kind == expected_kind, (loaded, expected)
    if kind == "ok":
        assert as_oracle(loaded) == expected
    else:
        assert loaded == expected


chunks = st.sampled_from((1, 2, 3))


@settings(max_examples=300, deadline=None)
@given(st.data(), chunks)
def test_alignment_loader_matches_row_by_row_oracle(tmp_path_factory, data, chunk):
    text = data.draw(defects(data.draw(alignment_files()), "\t"))
    _check_against_oracle(
        tmp_path_factory, text, lambda path: load_alignments(path, PHONES),
        lambda path: scan_alignments(path, PHONES),
        lambda loaded: [(a.utterance_id, list(map(tuple, a.segments.tolist()))) for a in loaded],
        chunk)


@settings(max_examples=300, deadline=None)
@given(st.data(), chunks)
def test_score_loader_matches_row_by_row_oracle(tmp_path_factory, data, chunk):
    root = tmp_path_factory.mktemp("table")
    save_scores(data.draw(score_files()), root / "scores.txt")
    text = data.draw(defects((root / "scores.txt").read_text(), "\t"))

    def as_oracle(table):  # values compared bitwise: -0.0 and NaN alike
        values = np.column_stack([table.final, table.evidence, table.similarity])
        return table.enroll_ids, table.test_ids, table.labels.tolist(), values.tobytes()

    _check_against_oracle(
        tmp_path_factory, text, load_scores,
        lambda path: (lambda e, t, l, v: (e, t, l, v.tobytes()))(*scan_scores(path)),
        as_oracle, chunk)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_feature_loader_matches_row_by_row_oracle(tmp_path_factory, data):
    text = data.draw(defects(data.draw(feature_files()), " "))
    _check_against_oracle(
        tmp_path_factory, text, load_features,
        lambda path: [(u, s, f.shape, f.tobytes()) for u, s, f in scan_features(path)],
        lambda loaded: [(f.utterance_id, f.speaker_id, f.features.shape, f.features.tobytes())
                        for f in loaded], 1)
