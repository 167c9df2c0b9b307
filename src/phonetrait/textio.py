"""Text-file rules shared by every phonetrait reader and writer.

Every text file phonetrait reads (corpus files, checkpoints, score files,
reports and ``--config`` files; F-ratio tables and explanations are only
written) is read by the one ``LineReader`` below, under one set of rules: lines
are numbered from 1 and a ParseError names ``path:line``; blank lines between
records are skipped (a blank inventory line, or one inside a feature or tensor
block, is an error); every float cell must be finite (``NA`` marks a missing
value where a format allows one); a repeated key is rejected at its second
line; a byte that is not UTF-8 is rejected at its line (files are written as
UTF-8 too). Numeric cells are converted in bulk by ``np.loadtxt`` and must be
ASCII.
A loader that reads rows in chunks checks each rule once per chunk, as a mask
over its rows, and ``LineReader.reject`` names the first row that any rule
marks.
"""

from __future__ import annotations

import os
import sys
import tempfile
from contextlib import contextmanager
from itertools import islice
from math import isnan
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError


@contextmanager
def atomic_write(path):
    """Write to a temp file in the target directory, then rename into place.

    The file gets the mode ``open`` would give it (0o666 less the umask), not
    the owner-only 0o600 that ``mkstemp`` creates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


NA = "NA"
# Whitespace that float() and np.loadtxt's parser both skip around a number.
_BLANKS = " \t\x0b\x0c"
# The ASCII separators np.loadtxt's parser also skips around a number, which
# float() and int() reject there.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _loadtxt(text: str, sep: str | None, dtype=np.float64) -> np.ndarray:
    """Rows of ``sep``-separated numbers (None: whitespace), one per line of
    ``text``, as one 2-d array from one ``np.loadtxt`` call.

    ValueError if a cell is no number. The text must be ASCII without
    ``_SEPARATORS``: np.loadtxt's integer parser reads some non-ASCII letters
    as digits, and its parsers skip those separators around a number; float()
    and int() reject both. (They also read ``1_0`` and non-ASCII digits, which
    np.loadtxt rejects.)
    """
    if not text.isascii() or any(c in text for c in _SEPARATORS):
        raise ValueError("a cell holds a non-ASCII character or an ASCII separator")
    if not text or text.isspace():
        raise ValueError("no numbers")
    return np.loadtxt(text.split("\n"), dtype=dtype, delimiter=sep, comments=None, ndmin=2)


def numbers(rows, width: int, sep: str | None = None, dtype=np.float64, na: bool = False):
    """``rows`` of ``width`` ``sep``-separated numbers (None: whitespace) as one
    (n, width) array, with ``NA`` cells as NaN if ``na``, and the marks of three
    ``LineReader.reject`` rules: per row, the error of a row of another width,
    why a row is no numbers, and whether it holds a non-finite value (not NA).
    The marks are None when one ``_loadtxt`` call converts the rows, all finite.
    Only otherwise are the rows converted one at a time, up to the first that
    breaks a rule, to record why; the array then holds the rows before it."""
    text, n_na = "\n".join(rows), 0
    if na and not any(blank in text for blank in _BLANKS if blank != sep):
        # An NA cell starts a row or follows ``sep``. With no blank that
        # np.loadtxt would skip after it, any other cell that starts with NA
        # is no number, with ``nan`` in place of NA or not.
        marked = ("\n" + text).replace("\nNA", "\nnan").replace(sep + NA, sep + "nan")
        text, n_na = marked[1:], len(marked) - len(text) - 1
    try:
        values = _loadtxt(text, sep, dtype)
        if (values.shape == (len(rows), width)
                and np.count_nonzero(np.isfinite(values)) == values.size - n_na):
            return values, (None, None, None)
    except ValueError:
        pass
    good = []
    wrong_width, not_number, non_finite = [None] * len(rows), [None] * len(rows), [False] * len(rows)
    for k, row in enumerate(rows):
        cells = row.split(sep)
        if len(cells) != width:
            wrong_width[k] = f"expected {width} values, got {len(cells)}"
            break
        try:
            if na:
                row = sep.join("nan" if cell == NA else cell for cell in cells)
            converted = _loadtxt(row, sep, dtype)[0] if cells else np.empty(0, dtype)
        except ValueError as exc:
            not_number[k] = str(exc)
            break
        non_finite[k] = np.count_nonzero(np.isfinite(converted)) != width - cells.count(NA) * na
        if non_finite[k]:
            break
        good.append(converted)
    # NumPy refuses even an empty array wider than an index reaches; no row is.
    shape = (len(good), width if good or width <= sys.maxsize // 8 else 0)
    return np.array(good, dtype).reshape(shape), (wrong_width, not_number, non_finite)


def first_broken(*rules) -> tuple[int, str] | None:
    """The first row that any rule marks and the message of the first rule that
    marks it, or None. A rule is ``(marks, message)``: ``marks`` is true (or an
    error string) for each row that breaks it, or None; ``message(k)`` row k's."""
    marked = [np.asarray([] if marks is None else marks, dtype=bool) for marks, _ in rules]
    firsts = [(int(marks.argmax()), i) for i, marks in enumerate(marked) if marks.any()]
    if not firsts:
        return None
    k, i = min(firsts)
    return k, rules[i][1](k)


class LineReader:
    """One phonetrait text file, streamed under the rules above; ``line_no`` is
    the 1-based number of the last line read, which ``error`` names."""

    def __init__(self, path):
        self.path = path
        # A byte that is not UTF-8 decodes to a lone surrogate, which
        # ``_check_utf8`` rejects at the line that holds it.
        self._file = open(path, encoding="utf-8", errors="surrogateescape")
        self._numbered = enumerate(self._file, start=1)
        self.line_no = 0

    def __enter__(self) -> "LineReader":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def _check_utf8(self, line: str) -> None:
        """A ParseError if ``line``, the last line read, holds a byte that is not UTF-8."""
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise self.error(f"byte 0x{byte:02x} is not UTF-8") from None

    def __iter__(self):
        """Every remaining line, blank or not, without its newline."""
        for self.line_no, line in self._numbered:
            if not line.isascii():
                self._check_utf8(line)
            yield line.rstrip("\n")

    def records(self):
        """The remaining non-blank lines: blank lines between records are skipped."""
        return (text for text in self if text.strip())

    def chunks(self, size: int):
        """The remaining lines ``size`` at a time, blank ones skipped as by ``records``,
        each chunk as a list of lines and a sequence of their line numbers. A
        line that is not UTF-8 ends its chunk and is raised after it, so that
        the caller names a bad row above it first."""
        while True:
            lines, not_utf8 = [], None
            try:
                for text in islice(self, size):
                    lines.append(text)
            except ParseError as exc:
                not_utf8 = exc
            first = self.line_no - (not_utf8 is not None) - len(lines) + 1
            rows = [text for text in lines if text.strip()]
            if len(rows) == len(lines) > 0:
                yield rows, range(first, first + len(lines))
            elif rows:
                yield rows, [first + k for k, text in enumerate(lines) if text.strip()]
            if not_utf8 is not None:
                raise not_utf8
            if not lines:
                return

    def next_line(self) -> str | None:
        """The next line, blank or not, or None at the end of the file."""
        return next(iter(self), None)

    def error(self, message: str, line_no: int | None = None) -> ParseError:
        return ParseError(self.path, self.line_no if line_no is None else line_no, message)

    def reject(self, line_nos, *rules) -> None:
        """Raise a ParseError at the first row that any rule marks, citing the
        first rule that marks that row (see ``first_broken``), at line
        ``line_nos[k]`` for row ``k``."""
        if broken := first_broken(*rules):
            raise self.error(broken[1], line_nos[broken[0]])

    def key_value(self, text: str, sep: str = " ") -> tuple[str, str]:
        key, found, value = text.partition(sep)
        if not found:
            raise self.error(f"expected 'key{sep}value', got {text!r}")
        return key, value

    def unique_key(self, seen, key: str, what: str = "key") -> str:
        """``key``, which must not be in ``seen`` yet (the caller records it)."""
        if key in seen:
            raise self.error(f"duplicate {what} {key!r}")
        return key

    def parse(self, cells, convert, what: str) -> list:
        """``convert`` (``int``, ``float`` or a flag's type) applied to every cell."""
        try:
            return list(map(convert, cells))
        except ValueError as exc:
            raise self.error(f"non-numeric {what} ({exc})") from None

    def block(self, n_rows: int, row_len: int, what: str) -> np.ndarray:
        """The ``n_rows`` lines after a block header, each ``row_len`` finite floats.

        A block cut short by the end of the file is reported at its last line,
        before any bad row in it; otherwise the first bad row is reported.
        Nothing is allocated from the header's counts.
        """
        rows = list(islice(self, min(n_rows, sys.maxsize)))  # no file has more lines
        if len(rows) < n_rows:
            raise self.error(f"truncated {what}")
        values, (wrong_width, not_number, non_finite) = numbers(rows, row_len)
        self.reject(range(self.line_no + 1 - n_rows, self.line_no + 1),
                    (wrong_width, lambda k: wrong_width[k]),
                    (not_number, lambda k: f"non-numeric value in {what} ({not_number[k]})"),
                    (non_finite, lambda k: f"non-finite value in {what}"))
        return values


def cell(value) -> str:
    """One value as a text cell: a float as its ``repr`` (NaN as ``NA``), None
    as the empty string, anything else with ``str``."""
    if isinstance(value, float):
        # float(): NumPy 2 writes repr(np.float64(x)) as "np.float64(x)".
        return NA if isnan(value) else repr(float(value))
    return "" if value is None else str(value)


def write_row(f, row: np.ndarray) -> None:
    """One row of floats as ``repr`` text; ``LineReader.block`` reads such rows back exactly."""
    f.write(" ".join(map(repr, row.tolist())) + "\n")


def check_ids(ids, sep: str | None) -> None:
    """ConfigurationError, raised before a writer writes, for the first of ``ids``
    that holds a line break or that ``sep`` splits (None: any whitespace, which
    an empty id fails too), so its loader would not read it back whole."""
    for text in ids:
        if text.split(sep) != [text] or "\n" in text or "\r" in text:
            rule = "no whitespace and not be empty" if sep is None else "no tab or line break"
            raise ConfigurationError(f"id {text!r} must hold {rule}")
