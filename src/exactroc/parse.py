"""The input format: `score,label` records, one a line, into a Dataset of two class tallies.

`parse_input` owns every rule of it, the byte order mark included, so the library and
`exactroc report` read the same text alike.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain, islice
from typing import Iterable, Literal

from .core import Dataset, Tally, read_score

_LABELS = {"1": True, "pos": True, "true": True, "0": False, "neg": False, "false": False}
_DELIMITERS = {"csv": ",", "tsv": "\t"}
_CHUNK_LINES = 1024  # lines parse_input counts at once: its extra memory follows this
_SPANS = "quoted field spans lines"  # a line whose quoted field does not close on it


class ParseError(ValueError):
    """Malformed input record; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_input(source: str | Iterable[str], fmt: Literal["csv", "tsv"] = "csv") -> Dataset:
    """Parse `score,label` records from lines (an open file), or text split as a file is.

    Scores are decimal text, read exactly by `core.read_score`: as a Decimal, or as a
    Fraction for `a/b` text; the two compare exactly. Labels accept 1/0, pos/neg, true/false
    (case-insensitive). One leading byte order mark (U+FEFF) is dropped, as the utf-8-sig
    codec drops it. A single leading header line is skipped when neither of its
    fields makes sense as data. Each line is one csv record: a quoted field must close on
    the line it opens on, the last line included. Lines are read `_CHUNK_LINES` at a time.
    Each chunk is added to one count of raw lines, in C, and only the lines new to that
    count are parsed. So each class is a tally with one tally entry per distinct raw
    line, and memory follows the distinct lines, not the rows: 1e6 rows on a 3-decimal
    grid, about 2,000 distinct lines, parse in about 0.25 s in process. A score text is
    read once for each distinct line it is on. Raises ParseError at the first failing
    line, or DegenerateClassesError when only one class is present.
    """
    if fmt not in _DELIMITERS:
        raise ValueError(f"fmt must be 'csv' or 'tsv', not {fmt!r}")
    state = _ParseState(_DELIMITERS[fmt])
    lines = iter(io.StringIO(source, newline=None) if isinstance(source, str) else source)
    done = 0  # lines read before the chunk
    while chunk := list(islice(lines, _CHUNK_LINES)):
        if not done and chunk[0][:1] == "\ufeff":  # a bytes line slices to bytes: no match
            chunk[0] = chunk[0][1:]
        state.count_chunk(chunk, done)
        done += len(chunk)
    return state.dataset()


class _ParseState:
    """One parse_input call: its raw lines counted, and the score of each new data line."""

    def __init__(self, delimiter: str) -> None:
        self.delimiter = delimiter
        self.counts: Counter[str] = Counter()  # raw line -> rows
        self.classes: tuple[dict, dict] = {}, {}  # negatives, positives: a data line -> score
        self.header: tuple[str, str] | None = None  # its raw line, and the error it recurs as

    def read_row(self, line: str, row: list[str]) -> None:
        """Read the row of a line new to the count; a refused row raises ValueError.

        The header line is not data: it is kept in `header`, with the error it recurs as.
        A row is the first data row while neither a header nor a data line has been read.
        """
        if not "".join(row).strip():
            return
        if len(row) != 2:
            raise ValueError(f"expected 2 fields, got {len(row)}")
        score_text, label_text = row[0].strip(), row[1].strip()
        label = _LABELS.get(label_text.lower())
        try:
            value = read_score(score_text)
        except (ValueError, ZeroDivisionError):
            error = f"cannot read score {score_text!r}"
            if self.header or any(self.classes) or label is not None:
                raise ValueError(error) from None
            self.header = line, error
        else:
            if label is None:
                raise ValueError(f"cannot read label {label_text!r}")
            self.classes[label][line] = value

    def count_chunk(self, chunk: list[str], done: int) -> None:
        """Count a chunk, and read only the lines it adds to the count; `done` lines precede it.

        Each line it adds must be one whole csv record. ParseError names the chunk's first
        failing line: an added line that `read_row` or csv refuses, or whose quoted field
        runs past its end, or the header line recurring.
        """
        counts = self.counts
        before = len(counts)
        counts.update(chunk)
        new = list(islice(reversed(counts), len(counts) - before))[::-1]  # the lines it added
        # At the end of its input csv closes an open quote silently. The empty line read
        # after the last added line makes a quote left open there run past its end too.
        reader = csv.reader(chain(new, [""]), delimiter=self.delimiter)
        errors = []  # (index in the chunk, message)
        try:
            for k, line in enumerate(new):
                row = next(reader)
                if reader.line_num > k + 1:
                    raise ValueError(_SPANS)
                self.read_row(line, row)
        except (csv.Error, ValueError) as e:  # csv's include a field past its size limit
            spans = reader.line_num > k + 1  # the record ran on past its line, failed or not
            errors.append((chunk.index(new[k]), _SPANS if spans else str(e)))
        if self.header and counts[self.header[0]] > 1:  # the header line recurs
            line, error = self.header
            at = chunk.index(line)
            errors.append((chunk.index(line, at + 1) if line in new else at, error))
        if errors:
            at, error = min(errors)
            raise ParseError(done + at + 1, error)

    def dataset(self) -> Dataset:
        """Each class as a tally of its lines' scores and counts, in first-seen order."""
        count, tallies = self.counts.__getitem__, []
        for c in self.classes:  # each class dict is freed once tallied, the line count after
            tallies.append(Tally(tuple(c.values()), tuple(map(count, c))))
            c.clear()
        self.counts.clear()
        return Dataset(*reversed(tallies))
