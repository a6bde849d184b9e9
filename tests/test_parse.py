"""The reader's equivalences: `parse_input` gives one outcome whatever its source and chunks.

Each outcome, a Dataset or the first failing line and its message, is the same for text, a
text stream and an iterable of lines, for every chunk size, and is checked against
`_parse_row_by_row`, which reads every row on its own. The row rules, the score spellings,
the byte order mark and what the reader holds and reads are tested here as well.
"""

import csv
import io
import itertools
import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import (
    DegenerateClassesError,
    ParseError,
    dataset_from_pairs,
    emit_report,
    parse_input,
    run_report,
)
import exactroc.parse as parse_module
from exactroc.core import Dataset, Tally
from cases import COUNTEREXAMPLE_CSV, MARKED_HEADER_RECURS, _distinct_lines
from oracles import rows

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


def test_parse_counterexample():
    d = parse_input(COUNTEREXAMPLE_CSV)
    assert rows(d.pos_tally) == (Fraction(7, 20),)
    assert rows(d.neg_tally) == (Fraction(7, 20),)


def test_parse_skips_header():
    d = parse_input("score,label\n" + COUNTEREXAMPLE_CSV)
    assert len(d) == 2


def test_parse_rejects_second_header_like_line():
    with pytest.raises(ParseError) as exc:
        parse_input("score,label\nscore,label\n" + COUNTEREXAMPLE_CSV)
    assert exc.value.line == 2


def test_parse_bad_score_with_valid_label_is_an_error_even_on_line_one():
    with pytest.raises(ParseError) as exc:
        parse_input("abc,1\n0.35,0\n")
    assert exc.value.line == 1


def test_parse_tsv():
    d = parse_input("0.5\t1\n0.1\t0\n", fmt="tsv")
    assert rows(d.pos_tally) == (Fraction(1, 2),)
    assert rows(d.neg_tally) == (Fraction(1, 10),)


def test_parse_skips_blank_lines_but_keeps_line_numbers():
    d = parse_input("0.5,1\n\n0.1,0\n")
    assert len(d) == 2
    with pytest.raises(ParseError) as exc:
        parse_input("0.5,1\n\nbad,worse\n")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text",
    ["0.5,maybe\n0.1,0\n", "0.5\n0.1,0\n", "0.5,1,extra\n0.1,0\n"],
)
def test_parse_malformed_rows(text):
    with pytest.raises(ParseError):
        parse_input(text)


@pytest.mark.parametrize(
    ("text", "value"),
    [
        ("1_000", Fraction(1000)),
        ("٣", Fraction(3)),
        ("-0", Fraction(0)),
        ("+.5", Fraction(1, 2)),
        ("1E3", Fraction(1000)),
        ("1_0/2_0", Fraction(1, 2)),
    ],
)
def test_score_spellings_accepted_by_file_and_library_alike(text, value):
    assert rows(parse_input(f"0.25,1\n{text},0\n").neg_tally) == (value,)
    assert rows(dataset_from_pairs([("0.25", True), (text, False)]).neg_tally) == (value,)


@pytest.mark.parametrize("text", ["0x10", "inf", "nan", "1/0", "²"])
def test_score_spellings_rejected_by_file_and_library_alike(text):
    with pytest.raises(ParseError, match=f"^line 2: cannot read score '{text}'$"):
        parse_input(f"0.25,1\n{text},0\n")
    with pytest.raises((ValueError, ZeroDivisionError)):
        dataset_from_pairs([("0.25", True), (text, False)])


def test_parse_label_synonyms_case_insensitive():
    d = parse_input("0.9,Pos\n0.8,TRUE\n0.2,NEG\n0.1,False\n")
    assert d.n_pos == 2
    assert d.n_neg == 2


def test_parse_single_class_is_degenerate():
    with pytest.raises(DegenerateClassesError):
        parse_input("0.5,1\n0.7,1\n")
    with pytest.raises(DegenerateClassesError):
        parse_input("")


def test_parse_input_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^fmt must be 'csv' or 'tsv', not 'CSV'$"):
        parse_input(COUNTEREXAMPLE_CSV, fmt="CSV")


def _score_texts(text):
    """The stripped score text of each distinct line of `text`, as csv reads the line."""
    return sorted(row[0].strip() for row in csv.reader(set(text.splitlines(keepends=True))))


def test_parse_input_reads_each_distinct_data_line_once(monkeypatch):
    calls = []
    score = parse_module.read_score

    def counting_score(text):
        calls.append(text)
        return score(text)

    monkeypatch.setattr(parse_module, "read_score", counting_score)
    rng = random.Random(0)
    spellings = [
        "0.5", " 0.5", '"0.5"', "0.5 ", "0.50", "1/2", "0.25", " 0.25", "-3", "1e-3", "7/20"
    ]
    labels = ["1", "0", "pos", " NEG"]
    text = "".join(f"{rng.choice(spellings)},{rng.choice(labels)}\n" for _ in range(10_000))
    d = parse_input(text)
    assert len(d) == 10_000
    # one read per distinct line, not per row or per text: 11 spellings times 4 labels
    assert len(calls) == len(set(text.splitlines())) == 44
    assert sorted(calls) == _score_texts(text)
    halves = parse_input(' 0.5,1\n"0.5",0\n0.5,1\n0.5 ,0\n')
    assert len(calls) == 44 + 4  # one read for each of the four distinct lines
    assert halves.counts[:3] == ((Fraction(1, 2),), (2,), (2,))  # merged into one row
    # Every chunk is counted as raw lines, and a line new to the count is read through
    # csv, whichever chunk it falls in. Each distinct line is still read once.
    unquoted = [s for s in spellings if '"' not in s]
    rows = [f"{rng.choice(unquoted)},{rng.choice(labels)}\n" for _ in range(10_000)]
    rows[5_000] = '"0.5",1\n'
    for size in (7, 1024):
        monkeypatch.setattr(parse_module, "_CHUNK_LINES", size)
        calls.clear()
        assert len(parse_input("".join(rows))) == 10_000
        assert sorted(calls) == _score_texts("".join(rows))


def test_parse_input_refuses_bytes_lines_with_csvs_message():
    with pytest.raises(csv.Error) as csv_error:
        next(csv.reader([b"0.5,1\n"]))
    with pytest.raises(ParseError) as exc:
        parse_input(iter([b"0.5,1\n", b"0.1,0\n"]))
    assert str(exc.value) == f"line 1: {csv_error.value}"


def test_parse_input_reads_each_distinct_line_once_quoted_or_not(monkeypatch):
    # R's write.csv quotes the header and every text field; the twins differ only in quotes.
    grid = [(f"0.{k % 1000:03d}", k % 3 % 2) for k in range(3_000)]
    twins = [
        "score,label\n" + "".join(f"{s},{c}\n" for s, c in grid),
        '"score","label"\n' + "".join(f"{s},{c}\n" for s, c in grid),
        '"score","label"\n' + "".join(f'{s},"{c}"\n' for s, c in grid),
    ]
    lines = []
    read_row = parse_module._ParseState.read_row

    def spy(self, line, row):
        lines.append(line)
        return read_row(self, line, row)

    monkeypatch.setattr(parse_module._ParseState, "read_row", spy)
    tallies = []
    for text in twins:
        lines.clear()
        d = parse_input(text)
        assert sorted(lines) == sorted(set(text.splitlines(keepends=True)))
        tallies.append((d.pos_tally, d.neg_tally))
    # a line is counted as itself, so twins differ in keys but not in their tallies
    assert tallies[0] == tallies[1] == tallies[2]


GRID_LINES = [f"{k // 1000}.{k % 1000:03d},{c}\n".encode() for k in range(1001) for c in (0, 1)]


def _hightie_lines(n, seed=5):
    """A header, then n rows on the 3-decimal grid 0.000..1.000, each a fresh str."""
    rng = random.Random(seed)
    yield "score,label\n"
    for _ in range(n):
        yield GRID_LINES[rng.randrange(len(GRID_LINES))].decode()


def test_parse_input_memory_follows_the_chunk_not_the_rows():
    # The lines come from a generator, so nothing holds the input: what parse_input holds
    # is one chunk of lines and a count of the 2002 possible lines, whatever the rows.
    parse_input(_hightie_lines(5_000))  # leaves out what the first call allocates once
    peaks = []
    for n in (100_000, 400_000):
        tracemalloc.start()
        try:
            assert len(parse_input(_hightie_lines(n))) == n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2**20 and max(peaks) <= 1.1 * min(peaks), peaks


def test_parse_input_peak_follows_the_distinct_lines_at_a_stated_cost():
    # Every line is distinct, so parse_input holds each one with its count, its class
    # entry and its Decimal, and then each class's tally. It frees each class dict once
    # it is tallied, and the count of lines after both: the peak is about 225 bytes a
    # line on Python 3.11. A dict entry with a str key takes 8 bytes more before 3.11.
    parse_input(_distinct_lines(1_000))  # leaves out what the first call allocates once
    per_line = []
    for n in (10_000, 20_000, 40_000):
        tracemalloc.start()
        try:
            assert len(parse_input(_distinct_lines(n))) == n
            per_line.append(tracemalloc.get_traced_memory()[1] / n)
        finally:
            tracemalloc.stop()
    assert max(per_line) < 260 and max(per_line) <= 1.1 * min(per_line), per_line


def test_parse_input_drops_one_leading_byte_order_mark():
    plain = parse_input("0.5,1\n0.1,0\n")
    marked = "\ufeff0.5,1\n0.1,0\n"
    for source in (marked, marked.splitlines(keepends=True)):
        d = parse_input(source)
        assert d == plain
        assert emit_report(run_report(d)) == emit_report(run_report(plain))
    # as the utf-8-sig codec: one mark, and only before the first line
    for text, line, score in [
        ("\ufeff\ufeff0.5,1\n0.1,0\n", 1, "\ufeff0.5"),
        ("0.5,1\n\ufeff0.1,0\n", 2, "\ufeff0.1"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert str(exc.value) == f"line {line}: cannot read score {score!r}"


def _spellings(m, e):
    """The value m * 10**e written four ways: plain, zero-padded, a/b, and with an exponent."""
    plain = f"{Decimal(m).scaleb(e):f}"
    q = Fraction(m) * Fraction(10) ** e
    padded = plain + ("0" if "." in plain else ".0")
    return [plain, padded, f"{q.numerator}/{q.denominator}", f"{m}e{e}"]


@st.composite
def _written_classes(draw):
    """Two non-empty classes of exact scores, and a file that writes them as rows."""
    value = st.tuples(st.integers(-999, 999), st.integers(-3, 2))
    pos, neg = (draw(st.lists(value, min_size=1, max_size=12)) for _ in range(2))
    rows = []
    for (m, e), label in [*((v, "1") for v in pos), *((v, "0") for v in neg)]:
        text = draw(st.sampled_from(_spellings(m, e)))
        label = draw(st.sampled_from([label, {"1": "pos", "0": "NEG"}[label]]))
        quoted = draw(st.booleans()), draw(st.booleans())
        rows.append(",".join(f'"{f}"' if q else f for f, q in zip((text, label), quoted)))
    rows = draw(st.permutations(rows))
    header = draw(st.sampled_from([[], ["score,label"], ['"score","label"']]))
    lines = header + rows
    for _ in range(draw(st.integers(0, 3))):  # blank lines anywhere, before the header too
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "\ufeff" * draw(st.booleans()) + "".join(line + end for line in lines)
    exact = [[Fraction(m) * Fraction(10) ** e for m, e in c] for c in (pos, neg)]
    return text, Dataset(*exact)


@given(_written_classes())
@settings(max_examples=200, deadline=None)
def test_parse_input_reads_back_the_classes_it_was_written_from(written):
    text, expected = written
    reports = [emit_report(run_report(expected), mode) for mode in ("json", "text")]
    for source in (text, text.splitlines(keepends=True)):
        d = parse_input(source)
        assert d == expected
        assert [emit_report(run_report(d), mode) for mode in ("json", "text")] == reports


def test_parse_input_refuses_a_marked_header_where_it_recurs():
    text = MARKED_HEADER_RECURS
    for source in (text, text.splitlines(keepends=True)):
        with pytest.raises(ParseError) as exc:
            parse_input(source)
        assert str(exc.value) == "line 4: cannot read score 'score'"


def test_parse_input_keeps_one_tally_entry_per_data_line():
    d = parse_input("0.5,1\n1/2,1\n0.5,1\n0.5,0\n 0.5,0\n0.1,0\n")
    assert d.pos_tally == Tally((Fraction(1, 2), Fraction(1, 2)), (2, 1))
    assert d.neg_tally == Tally((Fraction(1, 2), Fraction(1, 2), Fraction(1, 10)), (1, 1, 1))
    # " 0.5,0" and "0.5,0" are two entries, each its score read from its own line, equal
    # in value; the count table merges all four entries of 1/2 into one row
    assert d.neg_tally.scores[0] == d.neg_tally.scores[1] == Decimal("0.5")
    assert d.counts[:3] == ((Fraction(1, 10), Fraction(1, 2)), (0, 3), (1, 2))
