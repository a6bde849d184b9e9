"""The command line: `main`, the `exactroc` script and `python -m exactroc`, and their imports.

Each test runs a command, through `main` or in a fresh interpreter, or reads what an import
loads: exit codes, the bytes on stdout and stderr, memory and the collector around a run.
The input format itself, `parse_input` with no command around it, is tested in test_parse.py.
"""

import contextlib
import csv
import gc
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

from exactroc import (
    IdentityError,
    emit_report,
    identity_suite,
    parse_input,
    run_report,
)
import exactroc.report as report_module
from exactroc.cli import main
from exactroc.contlab import MAX_SAMPLES, LaplaceTieModel, sample
from exactroc.core import Dataset
from exactroc.pairwise import TieReport
from exactroc.roc import RocCurve
from exactroc.stieltjes import AtomicMeasure, StepFunction
from cases import (
    COUNTEREXAMPLE_CSV,
    DATA,
    MARKED_HEADER_RECURS,
    MIXED_CSV,
    REPORT_TEXT,
    _distinct_lines,
)


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
    monkeypatch.setattr(report_module, stage, patch(getattr(report_module, stage)))
    with pytest.raises(IdentityError) as exc:
        run_report(parse_input(MIXED_CSV))
    assert str(exc.value) == message
    path = _write(tmp_path, "d.csv", MIXED_CSV)
    assert main(["report", "--input", path]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8", errors="surrogateescape")  # "\udcff" is byte 0xff
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
    pieces = sum(1 for _ in report_module._report_pieces(r, output))
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
        monkeypatch.setattr(report_module, "auc_trapezoid", lambda curve: Fraction(0))
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
    if kind == "not utf-8":
        assert err.startswith("error: line 2: ")


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
    monkeypatch.setattr(report_module, "roc_curve", lambda d: RocCurve((2, 1), (2, 1)))
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
    monkeypatch.setattr(report_module, stage, patch(getattr(report_module, stage)))
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
    import exactroc.pairwise as pairwise_module

    def quadratic(_):
        raise AssertionError("check ran the O(n_pos * n_neg) pair count")

    monkeypatch.setattr(pairwise_module, "pair_probability_bruteforce", quadratic)
    # and any reference report holds to it, so no copy of the double loop can run
    monkeypatch.setattr(report_module, "pair_probability_bruteforce", quadratic, raising=False)
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
# scores or the error line. `int()` reads at most 4300 digits. `_write` writes "\udcff" as the
# byte 0xff, which is not UTF-8.
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
    "byte-0xff-on-line-200003": (
        "score,label\n" + "".join(f"0.{k % 1000:03d},{k % 2}\n" for k in range(200_001))
        + "\udcff,0\n",
        1,
        "error: line 200003: cannot read score '\\udcff'\n",
    ),
    "undecodable-first-line": (  # not skipped as a header
        "\udcff,\udcfe\n0.5,1\n0.1,0\n",
        1,
        "error: line 1: cannot read score '\\udcff'\n",
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
    monkeypatch.setattr(report_module, "pair_probability_fast", lambda d: Fraction(1, 2))
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
    "args, required, forbidden",
    [
        (["-c", "import exactroc"], set(), {"exactroc.cli", "argparse"}),
        (
            ["-m", "exactroc", "check", "--input", str(DATA / "counterexample.csv")],
            {"exactroc.cli"},
            set(),
        ),
    ],
    ids=["import", "check"],
)
def test_cold_start_leaves_dataclasses_and_inspect_unloaded(args, required, forbidden):
    # measured against a bare interpreter, whose `site` imports vary from machine to machine
    loaded = _imported(*args) - _imported("-c", "pass")
    assert {"exactroc.core", "exactroc.parse", "exactroc.report"} | required <= loaded
    assert sorted(forbidden & loaded) == []  # the library never loads its command line
    assert "exactroc.contlab" not in loaded  # only `exactroc contlab` loads the lab
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(m for m in loaded if m.split(".")[0] in heavy) == []
