import contextlib
import csv
import gc
import importlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import (
    DegenerateClassesError,
    IdentityError,
    ParseError,
    dataset_from_pairs,
    emit_report,
    identity_suite,
    parse_input,
    roc_curve,
    run_report,
)
import exactroc.cli as cli_module
import exactroc.parse as parse_module
from exactroc.cli import RocReport, emit_curve_svg, main
from exactroc.contlab import MAX_SAMPLES, LaplaceTieModel, sample
from exactroc.core import Dataset
from exactroc.pairwise import TieReport
from exactroc.roc import RocCurve
from exactroc.stieltjes import AtomicMeasure, StepFunction
from datagen import random_dataset
from oracles import rows

COUNTEREXAMPLE_CSV = "0.35,1\n0.35,0\n"
DATA = Path(__file__).parent / "data"
MIXED_CSV = "0.5,1\n0.9,1\n0.5,0\n0.1,0\n"
REPORT_FIELDS = (
    "auc", "pair_probability", "tie", "hypothesis_holds", "curve",
    "n_pos", "n_neg", "balanced_integral", "right_integral",
)


def _report_with(r, **changes):
    """A RocReport built through its constructor: `r`'s fields, with `changes` in place."""
    return RocReport(**{**{name: getattr(r, name) for name in REPORT_FIELDS}, **changes})


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


def test_parse_input_splits_text_on_every_line_end_as_a_file_is_split(tmp_path, capsys):
    # CR-only line ends: text is split with universal newlines, as `main` reads a file
    text = "score,label\r0.5,1\r0.9,1\r0.5,0\r0.1,0\r"
    d = parse_input(text)
    assert d == parse_input(iter(text.splitlines(keepends=True)))
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode())
    assert main(["report", "--input", str(path)]) == 0
    assert capsys.readouterr().out == emit_report(run_report(d), "json")


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


def _distinct_lines(n, seed=7):
    """A header, then n rows of distinct float scores, as in low-tie input."""
    rng = random.Random(seed)
    yield "score,label\n"
    for k in range(n):
        yield f"{rng.random()!r},{k % 2}\n"


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


def test_run_report_counterexample():
    r = run_report(parse_input(COUNTEREXAMPLE_CSV))
    assert r.auc == Fraction(1, 2)
    assert r.pair_probability == 0
    assert r.tie.correction == Fraction(1, 2)
    assert r.hypothesis_holds is False
    assert (r.n_pos, r.n_neg) == (1, 1)


def test_run_report_mixed():
    r = run_report(parse_input(MIXED_CSV))
    assert r.auc == Fraction(7, 8)
    assert r.pair_probability == Fraction(3, 4)
    assert r.tie.correction == Fraction(1, 8)


def test_run_report_disjoint():
    r = run_report(parse_input("0.8,1\n0.4,1\n0.6,0\n0.2,0\n"))
    assert r.hypothesis_holds is True
    assert r.auc == r.pair_probability == Fraction(3, 4)
    assert r.tie.correction == 0


def test_report_construction_rejects_inconsistent_fields():
    r = run_report(parse_input(MIXED_CSV))
    with pytest.raises(IdentityError):
        _report_with(r, pair_probability=Fraction(1, 2))
    with pytest.raises(IdentityError):
        _report_with(r, hypothesis_holds=True)


def test_report_requires_the_tie_inventory_to_agree_with_the_hypothesis():
    r = run_report(parse_input(MIXED_CSV))
    with pytest.raises(IdentityError) as exc:
        _report_with(r, tie=TieReport((), r.tie.correction, r.tie.bound))
    assert str(exc.value) == (
        "RocReport: no cross-class tie iff area = pair probability: "
        "hypothesis False, shared 0, auc 7/8, pair 3/4"
    )


@pytest.mark.parametrize(
    ("stage", "patch", "message"),
    [
        (
            "integrate",
            lambda real: lambda variant, g, m: Fraction(1, 3),
            "RocReport: trapezoid area = balanced Stieltjes integral: 7/8 vs 1/3",
        ),
        (
            "integrate",
            lambda real: lambda variant, g, m: (
                Fraction(1, 3) if variant == "right" else real(variant, g, m)
            ),
            "RocReport: strict pair probability = right-limit Stieltjes integral: "
            "3/4 vs 1/3",
        ),
        (
            "tie_report",
            lambda real: lambda d: TieReport(real(d).shared_scores, Fraction(0), real(d).bound),
            "RocReport: area - pair probability = tie correction: 1/8 vs 0/1",
        ),
        (
            "tie_report",
            lambda real: lambda d: TieReport(
                real(d).shared_scores, real(d).correction, real(d).correction / 2
            ),
            "RocReport: 0 <= correction <= bound <= 1/2: correction 1/8, bound 1/16",
        ),
        (
            "hypothesis_holds",
            lambda real: lambda d: True,
            "RocReport: no cross-class tie iff area = pair probability: "
            "hypothesis True, shared 1, auc 7/8, pair 3/4",
        ),
    ],
    ids=[
        "balanced-integral",
        "right-integral",
        "tie-correction",
        "tie-chain",
        "no-tie-condition",
    ],
)
def test_identity_errors_name_the_stage_and_both_exact_sides(
    tmp_path, capsys, monkeypatch, stage, patch, message
):
    import exactroc.cli as cli_module

    monkeypatch.setattr(cli_module, stage, patch(getattr(cli_module, stage)))
    with pytest.raises(IdentityError) as exc:
        run_report(parse_input(MIXED_CSV))
    assert str(exc.value) == message
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["report", "--input", path]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_emit_report_json_counterexample():
    r = run_report(parse_input(COUNTEREXAMPLE_CSV))
    payload = json.loads(emit_report(r, "json"))
    assert payload["n_pos"] == 1
    assert payload["n_neg"] == 1
    assert payload["hypothesis_holds"] is False
    assert payload["auc"] == "1/2"
    assert payload["auc_decimal"] == "0.5"
    assert payload["pair_probability"] == "0/1"
    assert payload["tie_correction"] == "1/2"
    assert payload["tie_bound"] == "1/2"
    assert payload["shared_scores"] == [
        {"score": "7/20", "pos_mass": "1/1", "neg_mass": "1/1"}
    ]
    assert payload["curve"] == [["1/1", "1/1"], ["0/1", "0/1"]]


def test_emit_report_json_key_order_and_determinism():
    r = run_report(parse_input(MIXED_CSV))
    text = emit_report(r, "json")
    assert text == emit_report(run_report(parse_input(MIXED_CSV)), "json")
    assert list(json.loads(text)) == [
        "n_pos",
        "n_neg",
        "hypothesis_holds",
        "auc",
        "auc_decimal",
        "pair_probability",
        "pair_probability_decimal",
        "tie_correction",
        "tie_correction_decimal",
        "tie_bound",
        "tie_bound_decimal",
        "shared_scores",
        "curve",
    ]
    assert text.endswith("\n")


def test_emit_report_decimals_use_17_significant_digits():
    # one positive against three negatives, beating two: pair probability 2/3
    r = run_report(parse_input("0.6,1\n0.1,0\n0.5,0\n0.7,0\n"))
    payload = json.loads(emit_report(r, "json"))
    assert payload["pair_probability"] == "2/3"
    assert payload["pair_probability_decimal"] == "0.66666666666666667"


REPORT_TEXT = {
    COUNTEREXAMPLE_CSV: [
        "observations      2 (1 positive, 1 negative)",
        "hypothesis_holds  false",
        "auc               1/2 = 0.5",
        "pair_probability  0/1 = 0",
        "tie_correction    1/2 = 0.5",
        "tie_bound         1/2 = 0.5",
        "shared_score      7/20 (pos_mass 1/1, neg_mass 1/1)",
        "curve             (1/1, 1/1) (0/1, 0/1)",
    ],
    MIXED_CSV: [
        "observations      4 (2 positive, 2 negative)",
        "hypothesis_holds  false",
        "auc               7/8 = 0.875",
        "pair_probability  3/4 = 0.75",
        "tie_correction    1/8 = 0.125",
        "tie_bound         1/4 = 0.25",
        "shared_score      1/2 (pos_mass 1/2, neg_mass 1/2)",
        "curve             (1/1, 1/1) (1/2, 1/1) (0/1, 1/2) (0/1, 0/1)",
    ],
}


@given(st.integers(0, 10**6), st.sampled_from(["disjoint", "tied", "random"]))
@settings(max_examples=150)
def test_emit_report_json_is_laid_out_as_json_dumps(seed, kind):
    d = random_dataset(random.Random(seed), disjoint=kind == "disjoint", force_tie=kind == "tied")
    text = emit_report(run_report(d), "json")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_emit_report_text_mode():
    for text, lines in REPORT_TEXT.items():
        assert emit_report(run_report(parse_input(text)), "text") == "\n".join(lines) + "\n"


def test_emit_report_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="^mode must be 'json' or 'text', not 'xml'$"):
        emit_report(run_report(parse_input(COUNTEREXAMPLE_CSV)), "xml")


def test_svg_is_valid_xml_with_one_point_per_curve_vertex():
    d = parse_input(MIXED_CSV)
    curve = roc_curve(d)
    svg = emit_curve_svg(curve, 480)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("width") == "480"
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert len(polylines) == 1
    assert len(polylines[0].get("points").split()) == len(curve.points)


def test_svg_counterexample_is_the_diagonal_segment():
    curve = roc_curve(parse_input(COUNTEREXAMPLE_CSV))
    svg = emit_curve_svg(curve, 480)
    root = ET.fromstring(svg)
    ns = {"s": "http://www.w3.org/2000/svg"}
    pts = root.findall(".//s:polyline", ns)[0].get("points").split()
    assert len(pts) == 2


def test_writers_build_no_fraction():
    # 1,500 distinct scores, some shared: every value printed is a ratio of integer counts
    r = run_report(parse_input("".join(f"{i // 2}/997,{int(i % 3 == 0)}\n" for i in range(3000))))
    assert len(r.curve.neg_ge) > 1000 and r.tie.shared_scores
    constructors = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # from Python 3.12, arithmetic builds here
        constructors.add(Fraction._from_coprime_ints.__func__.__code__)
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in constructors:
            built.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        emit_report(r, "json")
        emit_report(r, "text")
        emit_curve_svg(r.curve)
    finally:
        sys.setprofile(previous)
    assert built == []


def test_svg_rejects_tiny_width():
    curve = roc_curve(parse_input(COUNTEREXAMPLE_CSV))
    with pytest.raises(ValueError):
        emit_curve_svg(curve, 63)


def test_identity_suite_all_pass_on_examples(monkeypatch):
    # the benchmark reads a `check` with another number of rows as incorrect
    monkeypatch.syspath_prepend(str(DATA.parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for text in (COUNTEREXAMPLE_CSV, MIXED_CSV):
        rows = identity_suite(parse_input(text))
        assert len(rows) == workloads.CHECK_ROWS
        assert all(ok for _, ok, _ in rows)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_main_report_ok(tmp_path, capsys):
    path = _write(tmp_path, "d.csv", COUNTEREXAMPLE_CSV)
    assert main(["report", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["auc"] == "1/2"


def test_main_report_text_output(tmp_path, capsys):
    for text, lines in REPORT_TEXT.items():
        path = _write(tmp_path, "d.csv", text)
        assert main(["report", "--input", path, "--output", "text"]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_main_report_tsv(tmp_path, capsys):
    path = _write(tmp_path, "d.tsv", "0.5\t1\n0.1\t0\n")
    assert main(["report", "--input", path, "--format", "tsv"]) == 0
    assert json.loads(capsys.readouterr().out)["auc"] == "1/1"


def test_main_parse_error_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "d.csv", "zap,1\n0.1,0\n")
    assert main(["report", "--input", path]) == 1
    assert "error: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "check"])
def test_main_oversized_field_is_a_parse_error(tmp_path, capsys, command):
    path = _write(tmp_path, "big.csv", "0.5,1\n" + "1" * 200_000 + ",1\n0,0\n")
    assert main([command, "--input", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: field larger than field limit")
    assert "Traceback" not in err


def test_main_reads_a_byte_order_mark_before_the_first_data_row(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + MIXED_CSV.replace("\n", "\r\n").encode())
    r = run_report(parse_input(MIXED_CSV))
    for output in ("json", "text"):
        assert main(["report", "--input", str(path), "--output", output]) == 0
        assert capsys.readouterr().out == emit_report(r, output)


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


MARKED_HEADER_RECURS = "\ufeffscore,label\r\n0.5,1\r\n0.1,0\r\nscore,label\r\n0.9,1\r\n"


def test_parse_input_refuses_a_marked_header_where_it_recurs():
    text = MARKED_HEADER_RECURS
    for source in (text, text.splitlines(keepends=True)):
        with pytest.raises(ParseError) as exc:
            parse_input(source)
        assert str(exc.value) == "line 4: cannot read score 'score'"


def test_main_check_refuses_a_marked_header_where_it_recurs(tmp_path, capsys):
    data = MARKED_HEADER_RECURS.encode()
    (tmp_path / "h.csv").write_bytes(data)
    assert main(["check", "--input", str(tmp_path / "h.csv")]) == 1
    assert capsys.readouterr().err == "error: line 4: cannot read score 'score'\n"
    proc = subprocess.run(
        [sys.executable, "-m", "exactroc", "check", "--input", "-"],
        input=data,
        capture_output=True,
        env=_subprocess_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == "error: line 4: cannot read score 'score'\n"


def _subprocess_env():
    import exactroc

    return {**os.environ, "PYTHONPATH": str(Path(exactroc.__file__).parents[1])}


@pytest.mark.parametrize("command", ["report", "check", "curve"])
def test_main_reads_stdin_for_a_dash(tmp_path, capsys, command):
    data = b"\xef\xbb\xbf" + MIXED_CSV.encode()
    (tmp_path / "d.csv").write_bytes(data)

    def argv(source, svg):
        return [command, "--input", source] + ["--svg", str(tmp_path / svg)] * (command == "curve")

    assert main(argv(str(tmp_path / "d.csv"), "file.svg")) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "exactroc", *argv("-", "stdin.svg")],
        input=data,
        capture_output=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == capsys.readouterr().out
    if command == "curve":
        assert (tmp_path / "stdin.svg").read_bytes() == (tmp_path / "file.svg").read_bytes()


def _write_grid_rows(path, n, seed=5):
    """n rows of `score,label` with scores on the 3-decimal grid 0.000..1.000."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n):
            k = rng.randint(0, 1000)
            fh.write(f"{k // 1000}.{k % 1000:03d},{rng.randint(0, 1)}\n")
    return str(path)


def _traced_peak(argv):
    """The tracemalloc peak of main(argv), its stdout discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_main_report_holds_neither_the_whole_input_nor_the_whole_output(tmp_path):
    # 1e5 rows of 8 bytes on a 3-decimal grid: few distinct scores, so the class tallies
    # are small. Holding the text whole (4 bytes a character in a StringIO) or the JSON as
    # one string would put the peak past the bound.
    path = _write_grid_rows(tmp_path / "grid.csv", 100_000)
    assert _traced_peak(["report", "--input", path]) < 4 * os.path.getsize(path)


@pytest.mark.parametrize("command", ["report", "check"])
def test_main_memory_follows_distinct_scores_not_rows(tmp_path, command):
    # Both files have the same 1001 distinct scores and 30x as many rows apart. Each class
    # is a tally of its score texts, so nothing on the way holds one entry per row. A
    # first run on a small file leaves out what the first call allocates once.
    _traced_peak([command, "--input", _write_grid_rows(tmp_path / "warm.csv", 100)])
    small = _traced_peak([command, "--input", _write_grid_rows(tmp_path / "small.csv", 10_000)])
    large = _traced_peak([command, "--input", _write_grid_rows(tmp_path / "large.csv", 300_000)])
    assert large <= 1.5 * small, (small, large)


def test_main_report_never_holds_the_whole_curve_as_fractions(tmp_path):
    # 2e4 rows of distinct float scores, so the curve has a point per row. The peak is
    # about 20x the file size; holding the curve as two Fractions a point makes it 31x.
    rng = random.Random(13)
    path = tmp_path / "distinct.csv"
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(20_000):
            fh.write(f"{rng.random()!r},{rng.randint(0, 1)}\n")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["report", "--input", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 26 * path.stat().st_size


@pytest.mark.parametrize("output", ["json", "text"])
def test_main_report_into_a_closed_pipe_exits_141_quietly(tmp_path, output):
    # 5,000 distinct scores make a report of 120 KiB or more, past a pipe's 64 KiB buffer,
    # so the writer still has bytes to write when the reader goes
    path = _write(tmp_path, "d.csv", "".join(f"{i}/7919,{i % 2}\n" for i in range(5000)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "exactroc", "report", "--input", path, "--output", output],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class _Writes:
    """A stdout that keeps each string written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("output", ["json", "text"])
def test_main_report_writes_its_pieces_a_few_hundred_at_a_time(tmp_path, monkeypatch, output):
    # With stdout unbuffered, a write per piece is a system call per curve vertex
    text = "".join(f"{i}/7919,{i % 2}\n" for i in range(6000))
    path = _write(tmp_path, "d.csv", text)
    r = run_report(parse_input(text))
    assert len(r.curve.neg_ge) > 5000
    pieces = sum(1 for _ in cli_module._report_pieces(r, output))
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["report", "--input", path, "--output", output]) == 0
    whole = "".join(stdout.writes)
    assert whole == emit_report(r, output)
    assert len(stdout.writes) <= math.ceil(pieces / 256)
    assert max(map(len, stdout.writes)) <= len(whole) / 10  # never the report as one string


class _ClosedPipe:
    """A stdout whose reader has gone: each write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.fixture
def collector_state():
    """Leaves the cyclic collector as enabled or disabled as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "case, code",
    [("ok", 0), ("usage", 1), ("parse", 1), ("one class", 2), ("identity", 3), ("closed pipe", 141)],
)
def test_main_restores_the_collectors_state(
    tmp_path, capsys, monkeypatch, collector_state, enabled, case, code
):
    text = {"parse": "0.5,maybe\n", "one class": "0.5,1\n0.7,1\n"}.get(case, MIXED_CSV)
    argv = ["report", "--input", _write(tmp_path, "d.csv", text)]
    if case == "identity":
        monkeypatch.setattr(cli_module, "auc_trapezoid", lambda curve: Fraction(0))
    with open(tmp_path / "sink", "w") as sink:  # main points its descriptor at /dev/null
        if case == "closed pipe":
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        (gc.enable if enabled else gc.disable)()
        if case == "usage":
            with pytest.raises(SystemExit) as exc:
                main(argv[:1])
            assert exc.value.code == code
        else:
            assert main(argv) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("command", ["report", "check", "curve"])
def test_main_leaves_the_same_cyclic_garbage_for_any_input(tmp_path, collector_state, command):
    # What main builds from its input holds no cycle, so running it with the collector
    # off leaves no more garbage on 10k rows than on 10: argparse's parser graph alone.
    def garbage(n):
        path = tmp_path / f"{n}.csv"
        path.write_text("".join(_distinct_lines(n)), encoding="utf-8")
        argv = [command, "--input", str(path)] + ["--svg", str(tmp_path / "c.svg")] * (
            command == "curve"
        )
        gc.collect()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        return gc.collect()

    gc.disable()
    garbage(10)  # leaves out what the first call caches
    assert garbage(10) == garbage(10_000)


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_main_unreadable_input_exits_1(tmp_path, capsys, kind):
    path = tmp_path / "d.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"0.5,1\n\xff,0\n")
    assert main(["report", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_main_degenerate_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "d.csv", "0.5,1\n0.7,1\n")
    assert main(["report", "--input", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_identity_violation_exits_3(tmp_path, capsys, monkeypatch):
    import exactroc.cli as cli_module

    def broken(_):
        raise IdentityError("injected")

    monkeypatch.setattr(cli_module, "run_report", broken)
    path = _write(tmp_path, "d.csv", COUNTEREXAMPLE_CSV)
    assert main(["report", "--input", path]) == 3
    assert "internal error: injected" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "check"])
def test_main_validator_failure_exits_3(tmp_path, capsys, monkeypatch, command):
    # a kernel validator's ValueError is an implementation bug, not malformed input
    import exactroc.cli as cli_module

    monkeypatch.setattr(cli_module, "roc_curve", lambda d: RocCurve((2, 1), (2, 1)))
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main([command, "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: count columns must be equally long, from (1,1) to (0,0)\n"
    )


def test_main_check_ok(tmp_path, capsys):
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["check", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 7
    assert "FAIL" not in out


def test_equal_scores_group_without_hashing_a_fraction(tmp_path, capsys, monkeypatch):
    # hashing a Fraction is slow, and from Python 3.12 on it fills a cache
    def unhashable(self):
        raise TypeError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", unhashable)
    # one value, spelled four ways, each in both classes
    text = "".join(f"{s},{c}\n" for s in ("0.5", "1/2", "50e-2", ".50") for c in (1, 0))
    text += "0.9,1\n0.1,0\n"
    d = parse_input(text)
    assert [s.score for s in run_report(d).tie.shared_scores] == [Fraction(1, 2)]
    assert all(ok for _, ok, _ in identity_suite(d))
    path = _write(tmp_path, "spellings.csv", text)
    assert main(["report", "--input", path]) == 0
    shared = json.loads(capsys.readouterr().out)["shared_scores"]
    assert shared == [{"score": "1/2", "pos_mass": "4/5", "neg_mass": "4/5"}]
    assert main(["check", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "(hypothesis False, shared 1, " in out


CHECK_OK = {
    MIXED_CSV: [
        "ok    trapezoid area = balanced Stieltjes integral (7/8 vs 7/8)",
        "ok    strict pair probability = right-limit Stieltjes integral (3/4 vs 3/4)",
        "ok    fast pair count = sorted-merge pair count (3/4 vs 3/4)",
        "ok    area - pair probability = tie correction (1/8 vs 1/8)",
        "ok    0 <= correction <= bound <= 1/2 (correction 1/8, bound 1/4)",
        "ok    no cross-class tie iff area = pair probability "
        "(hypothesis False, shared 1, auc 7/8, pair 3/4)",
        "ok    count table = tally of the raw columns (distinct scores 3)",
    ],
    COUNTEREXAMPLE_CSV: [
        "ok    trapezoid area = balanced Stieltjes integral (1/2 vs 1/2)",
        "ok    strict pair probability = right-limit Stieltjes integral (0/1 vs 0/1)",
        "ok    fast pair count = sorted-merge pair count (0/1 vs 0/1)",
        "ok    area - pair probability = tie correction (1/2 vs 1/2)",
        "ok    0 <= correction <= bound <= 1/2 (correction 1/2, bound 1/2)",
        "ok    no cross-class tie iff area = pair probability "
        "(hypothesis False, shared 1, auc 1/2, pair 0/1)",
        "ok    count table = tally of the raw columns (distinct scores 1)",
    ],
}

# MIXED_CSV with 1/2 moved to one value written 0.35 for a positive and 7/20 for a negative:
# its table row holds the positive's Decimal, and the negatives' tally a Fraction.
MIXED_TYPES_CSV = "0.35,1\n0.9,1\n7/20,0\n0.1,0\n"
CHECK_OK[MIXED_TYPES_CSV] = CHECK_OK[MIXED_CSV]  # the same counts, so the same rows


def test_main_check_prints_every_row_name_and_detail(tmp_path, capsys):
    for text, lines in CHECK_OK.items():
        path = _write(tmp_path, "d.csv", text)
        assert main(["check", "--input", path]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    ("fault", "detail"),
    [
        (lambda t: t._replace(pos=(1, 0, 1)), "pos disagrees, pos_ge disagrees"),
        (lambda t: t._replace(neg=(2, 0, 0)), "neg disagrees, neg_ge disagrees"),
    ],
    ids=["move-pos", "move-neg"],
)
def test_main_check_names_a_corrupt_column_of_mixed_score_types(
    tmp_path, capsys, monkeypatch, fault, detail
):
    table = Dataset.counts.func

    def corrupt(d):
        t = table(d)
        assert t[1:3] == ((0, 1, 1), (1, 1, 0)) and isinstance(t.scores[1], Decimal)
        assert [type(s) for s in d.neg_tally.scores] == [Fraction, Decimal]
        return fault(t)

    monkeypatch.setattr(Dataset, "counts", property(corrupt))
    path = _write(tmp_path, "d.csv", MIXED_TYPES_CSV)
    assert main(["check", "--input", path]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[6] == f"FAIL  count table = tally of the raw columns (distinct scores 3, {detail})"


@pytest.mark.parametrize(
    ("stage", "patch", "changed"),
    [
        (
            "integrate",
            lambda real: lambda variant, g, m: Fraction(1, 3),
            {
                0: "FAIL  trapezoid area = balanced Stieltjes integral (7/8 vs 1/3)",
                1: "FAIL  strict pair probability = right-limit Stieltjes integral "
                "(3/4 vs 1/3)",
            },
        ),
        (
            "tie_report",
            lambda real: lambda d: TieReport(real(d).shared_scores, Fraction(0), real(d).bound),
            {
                3: "FAIL  area - pair probability = tie correction (1/8 vs 0/1)",
                4: "ok    0 <= correction <= bound <= 1/2 (correction 0/1, bound 1/4)",
            },
        ),
        (
            "tie_report",
            lambda real: lambda d: TieReport(
                real(d).shared_scores, real(d).correction, real(d).correction / 2
            ),
            {4: "FAIL  0 <= correction <= bound <= 1/2 (correction 1/8, bound 1/16)"},
        ),
        (
            "hypothesis_holds",
            lambda real: lambda d: True,
            {
                5: "FAIL  no cross-class tie iff area = pair probability "
                "(hypothesis True, shared 1, auc 7/8, pair 3/4)"
            },
        ),
        (
            # the vertex (1/2, 1) moved down to (1/2, 1/2): still a valid curve
            "roc_curve",
            lambda real: lambda d: RocCurve((2, 1, 0, 0), (2, 1, 1, 0)),
            {
                0: "FAIL  trapezoid area = balanced Stieltjes integral (5/8 vs 7/8)",
                3: "FAIL  area - pair probability = tie correction (-1/8 vs 1/8)",
                5: "ok    no cross-class tie iff area = pair probability "
                "(hypothesis False, shared 1, auc 5/8, pair 3/4)",
            },
        ),
        (
            "auc_trapezoid",
            lambda real: lambda c: Fraction(3, 4),
            {
                0: "FAIL  trapezoid area = balanced Stieltjes integral (3/4 vs 7/8)",
                3: "FAIL  area - pair probability = tie correction (0/1 vs 1/8)",
                5: "FAIL  no cross-class tie iff area = pair probability "
                "(hypothesis False, shared 1, auc 3/4, pair 3/4)",
            },
        ),
        (
            "pair_probability_fast",
            lambda real: lambda d: Fraction(1, 2),
            {
                1: "FAIL  strict pair probability = right-limit Stieltjes integral "
                "(1/2 vs 3/4)",
                2: "FAIL  fast pair count = sorted-merge pair count (1/2 vs 3/4)",
                3: "FAIL  area - pair probability = tie correction (3/8 vs 1/8)",
                5: "ok    no cross-class tie iff area = pair probability "
                "(hypothesis False, shared 1, auc 7/8, pair 1/2)",
            },
        ),
        (
            # the positives' rate between 1/2 and 9/10 read as 1/4, not 1/2
            "rate_step_function",
            lambda real: lambda d, side: (
                StepFunction(real(d, side).breakpoints, (1, Fraction(1, 4), 0))
                if side == "positive"
                else real(d, side)
            ),
            {
                0: "FAIL  trapezoid area = balanced Stieltjes integral (7/8 vs 13/16)",
                1: "FAIL  strict pair probability = right-limit Stieltjes integral "
                "(3/4 vs 5/8)",
            },
        ),
        (
            # the negative at 1/2 moved to 9/10: still positive weights at increasing places
            "negative_differential",
            lambda real: lambda g: AtomicMeasure(
                ((Fraction(1, 10), Fraction(1, 2)), (Fraction(9, 10), Fraction(1, 2)))
            ),
            {
                0: "FAIL  trapezoid area = balanced Stieltjes integral (7/8 vs 5/8)",
                1: "FAIL  strict pair probability = right-limit Stieltjes integral "
                "(3/4 vs 1/2)",
            },
        ),
    ],
    ids=[
        "integrals",
        "tie-correction",
        "tie-chain",
        "no-tie-condition",
        "curve",
        "area",
        "fast-pair-count",
        "rate-step-function",
        "negative-differential",
    ],
)
def test_main_check_prints_fail_rows_instead_of_raising(
    tmp_path, capsys, monkeypatch, stage, patch, changed
):
    import exactroc.cli as cli_module

    monkeypatch.setattr(cli_module, stage, patch(getattr(cli_module, stage)))
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["check", "--input", path]) == 3
    lines = [changed.get(i, line) for i, line in enumerate(CHECK_OK[MIXED_CSV])]
    failures = sum(line.startswith("FAIL") for line in lines)
    captured = capsys.readouterr()
    assert captured.out == "\n".join(lines) + "\n"
    assert captured.err == f"{failures} identity check(s) failed\n"


def test_main_check_catches_a_corrupt_at_or_above_column(tmp_path, capsys, monkeypatch):
    # One wrong running count that still makes a valid curve. The curve, the fast pair
    # count and the tie correction all read the same table, so the rows comparing them
    # with each other can pass; the sorted merge and the tally read the class tallies and
    # must fail.
    table = Dataset.counts.func

    def corrupt(d):
        t = table(d)
        assert t.pos_ge == (2, 2, 1, 0)
        return t._replace(pos_ge=(2, 1, 1, 0))

    monkeypatch.setattr(Dataset, "counts", property(corrupt))
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["check", "--input", path]) == 3
    changed = {
        0: "FAIL  trapezoid area = balanced Stieltjes integral (5/8 vs 7/8)",
        1: "FAIL  strict pair probability = right-limit Stieltjes integral (1/2 vs 3/4)",
        2: "FAIL  fast pair count = sorted-merge pair count (1/2 vs 3/4)",
        5: "ok    no cross-class tie iff area = pair probability "
        "(hypothesis False, shared 1, auc 5/8, pair 1/2)",
        6: "FAIL  count table = tally of the raw columns (distinct scores 3, pos_ge disagrees)",
    }
    lines = [changed.get(i, line) for i, line in enumerate(CHECK_OK[MIXED_CSV])]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    assert lines[3] == "ok    area - pair probability = tie correction (1/8 vs 1/8)"


# Scores 1/10 (positives only) and 1/5 (negatives only) are adjacent, and 3/10 is shared.
# Each fault below leaves a table that every stage's validator accepts, so `check` prints
# all its rows instead of stopping at the first stage that raises.
FAULT_CSV = "0.1,1\n0.1,1\n0.3,1\n0.9,1\n0.2,0\n0.2,0\n0.3,0\n0.5,0\n"


@pytest.mark.parametrize(
    ("fault", "detail"),
    [
        (
            lambda t: t._replace(scores=(t.scores[1], t.scores[0], *t.scores[2:])),
            "distinct scores 5, scores disagrees, pos disagrees, neg disagrees",
        ),
        (
            lambda t: t._replace(pos=t.pos[::-1]),
            "distinct scores 5, pos disagrees, pos_ge disagrees",
        ),
        (
            lambda t: t._replace(neg=(0, 1, 2, 1, 0)),
            "distinct scores 5, neg disagrees, neg_ge disagrees",
        ),
        (lambda t: t._replace(pos_ge=(4, 3, 2, 1, 1, 0)), "distinct scores 5, pos_ge disagrees"),
        (lambda t: t._replace(pos_ge=(4, 2, 1, 1, 1, 0)), "distinct scores 5, pos_ge disagrees"),
        (lambda t: t._replace(neg_ge=(4, 4, 3, 1, 0, 0)), "distinct scores 5, neg_ge disagrees"),
        (lambda t: t._replace(neg_ge=(4, 3, 2, 1, 0, 0)), "distinct scores 5, neg_ge disagrees"),
        (
            # the top score and its one positive are left out, and the running counts agree
            lambda t: t._replace(
                scores=t.scores[:-1], pos=t.pos[:-1], neg=t.neg[:-1],
                pos_ge=(3, 1, 1, 0, 0), neg_ge=t.neg_ge[:-1],
            ),
            "distinct scores 4, pos disagrees, pos_ge disagrees",
        ),
    ],
    ids=[
        "swap-scores", "reverse-pos", "move-neg", "pos_ge+1", "pos_ge-1", "neg_ge+1", "neg_ge-1",
        "drop-top-positive",
    ],
)
def test_main_check_certifies_each_count_table_column(
    tmp_path, capsys, monkeypatch, fault, detail
):
    table = Dataset.counts.func

    def corrupt(d):
        t = table(d)
        assert t[1:] == ((2, 0, 1, 0, 1), (0, 2, 1, 1, 0), (4, 2, 2, 1, 1, 0), (4, 4, 2, 1, 0, 0))
        return fault(t)

    monkeypatch.setattr(Dataset, "counts", property(corrupt))
    path = _write(tmp_path, "d.csv", FAULT_CSV)
    assert main(["check", "--input", path]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[6] == f"FAIL  count table = tally of the raw columns ({detail})"


@pytest.mark.parametrize(
    ("fault", "message", "detail"),
    [
        (
            lambda t: t._replace(scores=(t.scores[1], t.scores[0], *t.scores[2:])),
            "breakpoints must be strictly increasing",
            "scores disagrees, pos disagrees",
        ),
        (lambda t: t._replace(pos=t.pos[::-1]), "values must strictly decrease",
         "pos disagrees, pos_ge disagrees"),
        (lambda t: t._replace(pos_ge=(2, 2, 2, 0)), "values must strictly decrease",
         "pos_ge disagrees"),
        (lambda t: t._replace(neg_ge=(2, 1, 1, 0)), "values must strictly decrease",
         "neg_ge disagrees"),
        (lambda t: t._replace(neg_ge=(2, 0, 0, 0)), "values must strictly decrease",
         "neg_ge disagrees"),
        (lambda t: t._replace(pos_ge=(2, 3, 1, 0)), "counts must be non-increasing along the sweep",
         "pos_ge disagrees"),
    ],
    ids=["swap-scores", "reverse-pos", "pos_ge[2]+1", "neg_ge[2]+1", "neg_ge[1]-1", "pos_ge[1]+1"],
)
def test_main_check_names_the_wrong_column_when_a_stage_refuses_the_table(
    tmp_path, capsys, monkeypatch, fault, message, detail
):
    # On MIXED_CSV each of these faults makes a StepFunction or RocCurve validator raise,
    # so rows 1-6 have nothing to compare; the certificate row still names the column.
    table = Dataset.counts.func

    def corrupt(d):
        t = table(d)
        assert t[1:] == ((0, 1, 1), (1, 1, 0), (2, 2, 1, 0), (2, 1, 0, 0))
        return fault(t)

    monkeypatch.setattr(Dataset, "counts", property(corrupt))
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["check", "--input", path]) == 3
    captured = capsys.readouterr()
    names = [line[6:line.index(" (")] for line in CHECK_OK[MIXED_CSV]]
    assert captured.out.splitlines() == [
        *(f"FAIL  {name} (not evaluated: {message})" for name in names[:6]),
        f"FAIL  {names[6]} (distinct scores 3, {detail})",
    ]
    assert captured.err == "7 identity check(s) failed\n"


def test_main_check_builds_one_dataset(tmp_path, capsys, monkeypatch):
    built = []
    init = Dataset.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "__init__", counting)
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["check", "--input", path]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out == "\n".join(CHECK_OK[MIXED_CSV]) + "\n"


def test_main_check_never_runs_the_quadratic_pair_count(tmp_path, capsys, monkeypatch):
    import exactroc.cli as cli_module
    import exactroc.pairwise as pairwise_module

    def quadratic(_):
        raise AssertionError("check ran the O(n_pos * n_neg) pair count")

    monkeypatch.setattr(pairwise_module, "pair_probability_bruteforce", quadratic)
    # and any reference cli holds to it, so no copy of the double loop can run
    monkeypatch.setattr(cli_module, "pair_probability_bruteforce", quadratic, raising=False)
    rows = "".join(f"{i * 7919 % 200}/100,{int(i % 3 == 0)}\n" for i in range(20_000))
    path = _write(tmp_path, "tied.csv", rows)
    assert main(["check", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 7
    assert "FAIL" not in out
    assert "fast pair count = sorted-merge pair count" in out


def test_main_check_reports_failures_with_exit_3(tmp_path, capsys, monkeypatch):
    import exactroc.cli as cli_module

    monkeypatch.setattr(
        cli_module, "identity_suite", lambda d: [("injected identity", False, "boom")]
    )
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["check", "--input", path]) == 3
    captured = capsys.readouterr()
    assert "FAIL  injected identity" in captured.out
    assert "1 identity check(s) failed" in captured.err


def test_main_report_prints_the_golden_text_on_a_nondyadic_file(capsys):
    assert main(["report", "--input", str(DATA / "nondyadic.csv"), "--output", "text"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (DATA / "nondyadic_report.txt").read_bytes().decode("utf-8")
    assert captured.err == ""


def test_main_check_prints_the_golden_rows_on_a_nondyadic_file(capsys):
    assert main(["check", "--input", str(DATA / "nondyadic.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (DATA / "nondyadic_check.txt").read_bytes().decode("utf-8")
    assert captured.err == ""


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["report"], "exactroc report: error: the following arguments are required: --input"),
        (
            ["report", "--input", "d.csv", "--output", "xml"],
            "exactroc report: error: argument --output: invalid choice: 'xml'",
        ),
        ([], "exactroc: error: the following arguments are required: command"),
        (["contlab", "--delta", "1e-9"], "exactroc: error: unrecognized arguments: --delta 1e-9"),
    ],
    ids=["missing-input", "bad-output", "missing-command", "contlab-delta"],
)
def test_main_usage_error_exits_1_not_the_degenerate_code(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: exactroc")
    assert message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_main_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: exactroc")


def test_main_curve_writes_svg(tmp_path):
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    out = tmp_path / "curve.svg"
    assert main(["curve", "--input", path, "--svg", str(out), "--width", "320"]) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert root.get("width") == "320"


def test_main_curve_writes_the_golden_svg(tmp_path):
    # 3 positives and 7 negatives, so the rates are thirds and sevenths, never dyadic
    out = tmp_path / "curve.svg"
    assert main(["curve", "--input", str(DATA / "nondyadic.csv"), "--svg", str(out)]) == 0
    assert out.read_bytes() == (DATA / "nondyadic_curve.svg").read_bytes()


def test_main_curve_rejects_a_narrow_width(tmp_path, capsys):
    # a usage error, found before the input is opened: this input does not exist
    out = tmp_path / "curve.svg"
    argv = ["curve", "--input", str(tmp_path / "missing.csv"), "--svg", str(out), "--width", "10"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: exactroc curve")
    assert err.endswith("exactroc curve: error: argument --width: width must be at least 64 px\n")
    assert not out.exists()


@pytest.mark.parametrize("output", ["json", "text"])
def test_main_report_prints_a_score_past_the_int_str_digit_limit(tmp_path, capsys, output):
    path = _write(tmp_path, "d.csv", "1e-5000,1\n1e-5000,0\n")
    assert main(["report", "--input", path, "--output", output]) == 0
    out = capsys.readouterr().out
    exact = "1/1" + "0" * 5000
    if output == "json":
        assert json.loads(out)["shared_scores"][0]["score"] == exact
    else:
        assert f"shared_score      {exact} " in out


def _near_cap_rows():
    """1,000 rows of `<k>e-19998`, `<k>e-19999` or `<k>e-20000` scores, k up to 1e6."""
    rng = random.Random(13)
    exponents = (19998, 19999, 20000)
    return "".join(
        f"{rng.randint(1, 10**6)}e-{rng.choice(exponents)},{rng.randint(0, 1)}\n"
        for _ in range(1000)
    )


def _primes_above(low, count):
    """The first `count` primes above `low`, by a sieve of Eratosthenes."""
    top = low + 40 * count  # near 1e6 primes are about 14 apart
    sieve = bytearray([1]) * top
    for i in range(2, math.isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, top, i)))
    primes = [n for n in range(low + 1, top) if sieve[n]]
    assert len(primes) >= count
    return primes[:count]


def _prime_denominator_rows():
    rng = random.Random(13)
    return "".join(
        f"{rng.randint(1, b - 1)}/{b},{i % 2}\n" for i, b in enumerate(_primes_above(10**6, 2000))
    )


SPELLINGS_OF_ONE_HALF = ("0.5", "1/2", "5e-1", ".50", "+0.500")
DIGITS_4300 = "7" * 4300
CAP_NUMERATORS = [k for k in range(1, 125) if k % 2 and k % 5]  # 50, each k/10**20000 reduced

# Each case: the file's text, the exit code both commands must give, and the report's shared
# scores or the error line. `int()` reads at most 4300 digits.
INPUT_CORPUS = {
    "spellings-of-one-value": (
        "".join(f"{s},{c}\n" for s in SPELLINGS_OF_ONE_HALF for c in (1, 0)),
        0,
        ["1/2"],
    ),
    "field-past-the-csv-limit": (
        "0" * (csv.field_size_limit() + 1) + ",1\n0,0\n",
        1,
        f"error: line 1: field larger than field limit ({csv.field_size_limit()})\n",
    ),
    "4300-digit-score": (f"{DIGITS_4300},1\n{DIGITS_4300},0\n0,0\n", 0, [f"{DIGITS_4300}/1"]),
    "4301-digit-score": (
        f"{DIGITS_4300}7,1\n0,0\n",
        1,
        f"error: line 1: cannot read score '{DIGITS_4300}7'\n",
    ),
    "2000-prime-denominators": (_prime_denominator_rows(), 0, []),
    "1000-unshared-scores-near-the-exponent-cap": (_near_cap_rows(), 0, []),
    "50-shared-scores-at-the-exponent-cap": (
        "".join(f"{k}e-20000,{c}\n" for k in CAP_NUMERATORS for c in (1, 0)),
        0,
        [f"{k}/1{'0' * 20000}" for k in CAP_NUMERATORS],
    ),
    "exponent-past-the-cap": (
        "1e-99999999999,1\n0,0\n",
        1,
        "error: line 1: cannot read score '1e-99999999999'\n",
    ),
    "quote-left-open-on-line-2-of-200k": (
        'score,label\n0.25,"0\n' + "".join(f"0.{k % 1000:03d},{k % 2}\n" for k in range(200_000)),
        1,
        "error: line 2: quoted field spans lines\n",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CORPUS))
@pytest.mark.parametrize("command", ["report", "check"])
def test_main_input_corpus_exits_within_budget(tmp_path, command, case):
    # Each run is a child under an address-space limit and a 10 s timeout, so an input
    # that makes the tool hang or grow without bound fails the test instead of the host.
    text, code, expected = INPUT_CORPUS[case]
    path = _write(tmp_path, "d.csv", text)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from exactroc.cli import main\n"
        f"sys.exit(main([{command!r}, '--input', {path!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=10,
    )
    assert proc.returncode == code, proc.stderr[:500]
    if code:
        assert (proc.stdout, proc.stderr) == ("", expected)
    elif command == "check":
        assert proc.stdout.count("ok  ") == 7 and "FAIL" not in proc.stdout
    else:
        assert [s["score"] for s in json.loads(proc.stdout)["shared_scores"]] == expected


def test_main_contlab_prints_certificate(capsys):
    assert main(["contlab", "--epsilon", "0.25", "--samples", "1000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "beta_star" in out
    assert "fpr_below_jump   1" in out
    rows = [line.split() for line in out.splitlines()]
    assert [row[0] for row in rows] == [
        "epsilon",
        "beta_star",
        "fpr_below_jump",
        "fpr_above_jump",
        "model_area",
        "model_pair_prob",
        "model_gap",
        "auc",
        "pair_probability",
        "tie_correction",
    ]
    value = {row[0]: row[1:] for row in rows}
    model = LaplaceTieModel(0.25)
    assert [float(value[name][0]) for name in ("model_area", "model_pair_prob", "model_gap")] == [
        model.area,
        model.pair_probability,
        model.gap,
    ]
    # the sample's values print exactly, as `report --output text` prints them
    r = run_report(sample(model, 1000, 1))
    exact = {"auc": r.auc, "pair_probability": r.pair_probability, "tie_correction": r.tie.correction}
    for name, q in exact.items():
        assert Fraction(value[name][0]) == q and value[name][1] == "="
    assert exact["auc"] - exact["pair_probability"] == exact["tie_correction"] > 0


def test_main_contlab_exits_3_when_an_identity_row_fails_on_the_sample(capsys, monkeypatch):
    import exactroc.cli as cli_module

    monkeypatch.setattr(cli_module, "pair_probability_fast", lambda d: Fraction(1, 2))
    assert main(["contlab", "--samples", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: RocReport: strict pair probability = right-limit Stieltjes integral: 1/2 vs "
    )


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", str(MAX_SAMPLES + 1), f"samples must lie in [1, {MAX_SAMPLES}]"),
        ("--seed", "-1", "seed must be non-negative"),
    ],
)
def test_main_contlab_rejects_bad_draw_arguments(capsys, flag, value, message):
    assert main(["contlab", "--samples", "10", flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_main_contlab_certifies_the_jump_next_to_the_upper_end_of_epsilon(capsys):
    # beta_star is ~3.3e-10 here, below the fixed 1e-9 probe offset of earlier releases
    assert main(["contlab", "--epsilon", "0.4999999999", "--samples", "1000"]) == 0
    assert "fpr_below_jump   1\n" in capsys.readouterr().out


def test_main_contlab_prints_each_epsilon_as_its_own_run(capsys):
    def run(*epsilons):
        assert main(["contlab", "--epsilon", *epsilons, "--samples", "1000", "--seed", "1"]) == 0
        return capsys.readouterr().out

    assert run("0.25", "0.4") == run("0.25") + run("0.4")


def test_main_contlab_labels_each_epsilon_apart(capsys):
    assert main(["contlab", "--epsilon", "0.001", "0.004", "--samples", "1000"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [float(row[1]) for row in rows if row[0] == "epsilon"] == [0.001, 0.004]


def test_main_contlab_checks_every_epsilon_before_any_output(capsys):
    assert main(["contlab", "--epsilon", "0.1", "0.7"]) == 1
    assert capsys.readouterr() == ("", "error: epsilon must lie in (0, 1/2), got 0.7\n")


def test_main_contlab_bad_epsilon_exits_1(capsys):
    assert main(["contlab", "--epsilon", "0.9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs_in_subprocess(tmp_path):
    path = _write(tmp_path, "d.csv", COUNTEREXAMPLE_CSV)
    proc = subprocess.run(
        [sys.executable, "-m", "exactroc", "report", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tie_correction"] == "1/2"


def test_import_leaves_numpy_and_scipy_unloaded():
    env = _subprocess_env()
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, exactroc.contlab; "
            "print(sorted({'numpy', 'scipy'} & {m.split('.')[0] for m in sys.modules}))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _imported(*args):
    """The modules a fresh `python -X importtime ARGS` imports, read from its import log."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    log = (line for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return {line.rsplit("|", 1)[1].strip() for line in log}


@pytest.mark.parametrize(
    "args",
    [["-c", "import exactroc"], ["-m", "exactroc", "check", "--input", str(DATA / "counterexample.csv")]],
    ids=["import", "check"],
)
def test_cold_start_leaves_dataclasses_and_inspect_unloaded(args):
    # measured against a bare interpreter, whose `site` imports vary from machine to machine
    loaded = _imported(*args) - _imported("-c", "pass")
    assert {"exactroc.core", "exactroc.parse", "exactroc.cli"} <= loaded
    assert "exactroc.contlab" not in loaded  # only `exactroc contlab` loads the lab
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(m for m in loaded if m.split(".")[0] in heavy) == []


def test_run_report_matches_dataset_built_directly():
    via_text = run_report(parse_input(MIXED_CSV))
    via_api = run_report(Dataset(["0.5", "0.9"], ["0.5", "0.1"]))
    assert emit_report(via_text) == emit_report(via_api)
