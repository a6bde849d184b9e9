"""The reader's equivalences: `parse_input` gives one outcome whatever its source and chunks.

Each outcome, a Dataset or the first failing line and its message, is the same for text, a
text stream and an iterable of lines, for every chunk size, and is checked against
`_parse_row_by_row`, which reads every row on its own. The row rules, the score spellings and
what the reader holds and reads are still tested in test_cli.py.
"""

import csv
import io
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import DegenerateClassesError, ParseError, parse_input
import exactroc.parse as parse_module
from exactroc.core import Dataset
from cases import COUNTEREXAMPLE_CSV

def test_parse_never_skips_a_line_with_an_undecoded_byte_as_the_header():
    # `exactroc` decodes a byte that is not UTF-8 to a lone surrogate: 0xff to "\udcff"
    with pytest.raises(ParseError) as exc:
        parse_input("\udcff,\udcfe\n" + COUNTEREXAMPLE_CSV)
    assert str(exc.value) == "line 1: cannot read score '\\udcff'"
    assert len(parse_input("scöre,läbel\n" + COUNTEREXAMPLE_CSV)) == 2  # text is a header


def _parsed(source):
    try:
        return parse_input(source)
    except ParseError as e:
        return str(e)


@pytest.mark.parametrize(
    "text",
    [
        "0.5,1\r\n0.9,1\r\n0.5,0\r\n0.1,0\r\n",
        '"sc\nore",label\n0.5,1\n"0.1\n",0\n',
        '"sc\r\nore",label\r\n0.5,1\r\n"0.1",0\r\n',
        "score,label\n\n0.5,1\n\n\n0.1,0\n\n",
        "score,label\nscore,label\n0.5,1\n0.1,0\n",
        "0.5,1\n\nbad,worse\n",
    ],
    ids=["crlf", "quoted-newline", "quoted-crlf", "header-blank-lines", "second-header", "bad-row"],
)
def test_parse_input_reads_text_and_lines_alike(text):
    lines = text.splitlines(keepends=True)
    assert _parsed(text) == _parsed(io.StringIO(text)) == _parsed(iter(lines))


def _parse_row_by_row(text):
    """parse_input without its count of raw lines: every row is checked, stripped and read.

    A record that csv reads over more than one line is refused at its first line. An
    empty line is read after the text, so a quote left open on its last line runs on too.
    """
    labels = {"1": True, "pos": True, "true": True, "0": False, "neg": False, "false": False}
    positives, negatives = [], []
    reader = csv.reader(itertools.chain(io.StringIO(text), [""]))
    first_data_row = True
    start = 1  # the line the next record starts on
    try:
        for row in reader:
            line, start = start, reader.line_num + 1
            if reader.line_num > line:
                raise ParseError(line, "quoted field spans lines")
            if not "".join(row).strip():
                continue
            if len(row) != 2:
                raise ParseError(line, f"expected 2 fields, got {len(row)}")
            score_text, label_text = row[0].strip(), row[1].strip()
            label = labels.get(label_text.lower())
            try:
                value = Fraction(score_text)
            except (ValueError, ZeroDivisionError):
                if first_data_row and label is None:
                    first_data_row = False
                    continue
                raise ParseError(line, f"cannot read score {score_text!r}") from None
            if label is None:
                raise ParseError(line, f"cannot read label {label_text!r}")
            (positives if label else negatives).append(value)
            first_data_row = False
    except csv.Error as e:
        message = "quoted field spans lines" if reader.line_num > start else str(e)
        raise ParseError(start, message) from None
    return Dataset(positives, negatives)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return ("ParseError", e.line, str(e))
    except DegenerateClassesError as e:
        return ("DegenerateClassesError", str(e))


LINE_COUNT_SCORES = ["0.5", " 0.5", '"0.5"', "0.50", "1/2", "0.25 ", "bad", ""]
LINE_COUNT_LABELS = ["1", "0", "POS", " neg", "maybe"]
LINE_COUNT_ODD_ROWS = ["", ",", "0.5,1,x", '"0.5\n",1', '0.25,"\n0"']


@given(
    st.booleans(),
    st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(LINE_COUNT_SCORES), st.sampled_from(LINE_COUNT_LABELS)
            ).map(",".join),
            st.sampled_from(LINE_COUNT_ODD_ROWS),
        ),
        max_size=30,
    ),
)
@settings(max_examples=400)
def test_parse_input_line_count_changes_nothing(header, rows):
    text = "\n".join((["score,label"] if header else []) + rows) + "\n"
    assert _outcome(parse_input, text) == _outcome(_parse_row_by_row, text)


@pytest.mark.parametrize(
    ("text", "line", "message"),
    [
        ("0.5,1\n0.5,0\n0.5,1\n 0.5,0\nbad,1\n", 5, "cannot read score 'bad'"),
        ("0.5,1\n0.5,0\n0.5,1\n0.5,0\n0.5,maybe\n", 5, "cannot read label 'maybe'"),
        ('"0.5\n",1\n"0.5\n",0\n"0.5\n",1\n0.5,1,x\n', 1, "quoted field spans lines"),
        ('0.5,"\n1"\n0.5,"\n1"\n0.5,0\n0.5,"\nmaybe"\n', 1, "quoted field spans lines"),
    ],
    ids=["score-after-hits", "label-after-hits", "fields-after-quoted", "quoted-label"],
)
def test_parse_input_error_lines_after_line_count_hits(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")
    assert _outcome(_parse_row_by_row, text) == ("ParseError", line, str(exc.value))


CHUNK_SIZES = [1, 2, 3, 1024]
CHUNK_ROWS = [
    "score,label",
    '"score","label"',
    '"0.5\n",0',  # its first line starts a LINE_COUNT_ODD_ROWS record with the other label
    '0.25,"\n1"',
    "0.5\x00,1",  # a NUL byte: csv.Error before Python 3.11, an unreadable score after
    "1" * (csv.field_size_limit() + 1) + ",0",  # csv.Error: field larger than field limit
    '0.25,"0',  # a quote left open: the line, and with it the file, is refused
]


@given(
    st.booleans(),
    st.lists(
        st.tuples(
            st.one_of(
                st.tuples(
                    st.sampled_from(LINE_COUNT_SCORES), st.sampled_from(LINE_COUNT_LABELS)
                ).map(",".join),
                st.sampled_from(LINE_COUNT_ODD_ROWS + CHUNK_ROWS),
            ),
            st.sampled_from(["\n", "\r\n"]),
        ),
        max_size=40,
    ),
)
@settings(max_examples=300, deadline=None)
def test_parse_input_chunks_change_nothing(header, rows):
    # Quoted records that span lines straddle chunk ends, and are refused at their first
    # line; a header may recur anywhere.
    text = ("score,label\n" if header else "") + "".join(row + end for row, end in rows)
    expected = _outcome(_parse_row_by_row, text)
    with pytest.MonkeyPatch.context() as patch:
        for size in CHUNK_SIZES:
            patch.setattr(parse_module, "_CHUNK_LINES", size)
            for source in (text, io.StringIO(text), iter(text.splitlines(keepends=True))):
                assert _outcome(parse_input, source) == expected, (size, type(source))


FIELD_LIMIT = csv.field_size_limit()
SPANS = "quoted field spans lines"


@pytest.mark.parametrize(
    ("text", "line", "message"),
    [
        ('0.5,1\n0.25,"0\n0.5,1\n', 2, SPANS),
        ('0.5,1\n0.25,"0', 2, SPANS),
        ("score,label\r\nscore,label\r\n0.5,1,x\n", 2, "cannot read score 'score'"),
        ("score,label\n0.5,1\n0.25,0\nscore,label\n0.5,1,x\n", 4, "cannot read score 'score'"),
        (
            "0.5,1\n" + "1" * (FIELD_LIMIT + 1) + ",0\n",
            2,
            f"field larger than field limit ({FIELD_LIMIT})",
        ),
        ('0.5,1\n0.25,"0\n' + "1" * (FIELD_LIMIT + 1) + ",0\n", 2, SPANS),
        (
            "0.5,1\n0.5\x00,1\n",
            2,
            "line contains NUL" if sys.version_info < (3, 11) else "cannot read score '0.5\\x00'",
        ),
    ],
    ids=[
        "quote-open-on-a-chunks-last-new-line",
        "quote-open-on-the-last-line",
        "header-recurs-before-a-bad-line",
        "header-recurs-in-a-later-chunk",
        "csv-error-on-its-own-line",
        "quote-open-before-a-csv-error",
        "nul-byte",
    ],
)
def test_parse_input_refuses_at_the_first_failing_line(text, line, message):
    # A quote left open on the last line a chunk adds would end at the end of csv's input,
    # and be read as a whole field, but for the empty line parse_input reads after it.
    expected = ("ParseError", line, f"line {line}: {message}")
    assert _outcome(_parse_row_by_row, text) == expected
    with pytest.MonkeyPatch.context() as patch:
        for size in CHUNK_SIZES:
            patch.setattr(parse_module, "_CHUNK_LINES", size)
            for source in (text, iter(text.splitlines(keepends=True))):
                assert _outcome(parse_input, source) == expected, size

