"""Batch front end: CSV/TSV in, exact report (JSON or text) and SVG out.

Exit codes: 0 success, 1 parse or usage error, 2 degenerate classes (only one
label present), 3 internal error: a failed identity or validator, 141 stdout closed
by its reader (the status a shell gives a filter ended by SIGPIPE). Code 3 can only
mean an implementation bug, never a data problem: `report` and `check` share
one evaluation and one list of exact identities (trapezoid area = balanced
Stieltjes integral, strict pair probability = right-limit integral, area -
probability = tie correction in [0, 1/2], no shared score iff area =
probability). A RocReport raises on the first that fails, before anything is
emitted; `check` prints each as a row.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Literal, NoReturn

from .contlab import LaplaceTieModel, jump_certificate, sample
from .core import Dataset, DegenerateClassesError, Rational, Tally, _Frozen, score
from .pairwise import (
    TieReport,
    hypothesis_holds,
    pair_probability_fast,
    pair_probability_sorted,
    tie_report,
)
from .roc import RocCurve, auc_trapezoid, roc_curve
from .stieltjes import integrate, negative_differential, rate_step_function

_LABELS = {"1": True, "pos": True, "true": True, "0": False, "neg": False, "false": False}
_DELIMITERS = {"csv": ",", "tsv": "\t"}
_MIN_WIDTH_PX = 64  # the narrowest SVG canvas, for emit_curve_svg and `curve --width`


class ParseError(ValueError):
    """Malformed input record; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IdentityError(RuntimeError):
    """An exact identity failed; the message names the stage and both exact sides."""


class RocReport(_Frozen):
    """Everything the evaluation produces for one dataset, exactly.

    Construction raises IdentityError on the first exact identity that fails.
    """

    auc: Rational
    pair_probability: Rational
    tie: TieReport
    hypothesis_holds: bool
    curve: RocCurve
    n_pos: int
    n_neg: int
    balanced_integral: Rational
    right_integral: Rational
    __slots__ = _fields = tuple(__annotations__)

    def _check(self) -> None:
        for name, ok, detail in _identities(self):
            if not ok:
                raise IdentityError(f"RocReport: {name}: {detail}")


def _evaluate(d: Dataset) -> SimpleNamespace:
    """Run every stage on `d` once; the fields of a RocReport, not yet checked."""
    curve = roc_curve(d)
    tpr_step = rate_step_function(d, "positive")
    neg_rate_diff = negative_differential(rate_step_function(d, "negative"))
    return SimpleNamespace(
        auc=auc_trapezoid(curve),
        pair_probability=pair_probability_fast(d),
        tie=tie_report(d),
        hypothesis_holds=hypothesis_holds(d),
        curve=curve,
        n_pos=d.n_pos,
        n_neg=d.n_neg,
        balanced_integral=integrate("balanced", tpr_step, neg_rate_diff),
        right_integral=integrate("right", tpr_step, neg_rate_diff),
    )


# The names of the exact identities every evaluation satisfies, in `_identities`' order.
_IDENTITIES = (
    "trapezoid area = balanced Stieltjes integral",
    "strict pair probability = right-limit Stieltjes integral",
    "area - pair probability = tie correction",
    "0 <= correction <= bound <= 1/2",
    "no cross-class tie iff area = pair probability",
)
_MERGE_ROW = "fast pair count = sorted-merge pair count"  # `check`'s third row


def _identities(r: RocReport | SimpleNamespace) -> list[tuple[str, bool, str]]:
    """The exact identities every evaluation satisfies; (name, passed, detail) rows."""
    auc, pair, tie = r.auc, r.pair_probability, r.tie
    area, strict, gap, chain, no_tie = _IDENTITIES
    return [
        _equal(area, auc, r.balanced_integral),
        _equal(strict, pair, r.right_integral),
        _equal(gap, auc - pair, tie.correction),
        (
            chain,
            0 <= tie.correction <= tie.bound <= Fraction(1, 2),
            f"correction {_frac(tie.correction)}, bound {_frac(tie.bound)}",
        ),
        (
            no_tie,
            r.hypothesis_holds == (not tie.shared_scores) == (auc == pair),
            f"hypothesis {r.hypothesis_holds}, shared {len(tie.shared_scores)}, "
            f"auc {_frac(auc)}, pair {_frac(pair)}",
        ),
    ]


def _equal(name: str, a: Rational, b: Rational) -> tuple[str, bool, str]:
    """The identity row `name`: a == b, with both exact sides as its detail."""
    return name, a == b, f"{_frac(a)} vs {_frac(b)}"


def parse_input(source: str | Iterable[str], fmt: Literal["csv", "tsv"] = "csv") -> Dataset:
    """Parse `score,label` records from text or lines (an open file is read row by row).

    Scores are decimal text, read exactly. Labels accept 1/0, pos/neg, true/false
    (case-insensitive). A single leading header line is skipped when neither of its
    fields makes sense as data. Each distinct field text is read once, and each class
    is kept as a tally of its raw score texts, so memory follows the distinct texts,
    not the rows: a row whose score text, exactly as written, was already counted in
    the class its label text names costs two dict lookups and one increment. The
    dataset is built from the two tallies. Raises ParseError with the offending line
    number, or DegenerateClassesError when only one class is present.
    """
    if fmt not in _DELIMITERS:
        raise ValueError(f"fmt must be 'csv' or 'tsv', not {fmt!r}")
    lines = io.StringIO(source) if isinstance(source, str) else source
    positives: dict[str, int] = {}  # raw score text -> rows of the class
    negatives: dict[str, int] = {}
    scores: dict[str, Fraction] = {}  # raw and stripped texts; equal texts share one object
    tallies: dict[str, dict[str, int]] = {}  # raw label text -> its class's tally
    reader = csv.reader(lines, delimiter=_DELIMITERS[fmt])
    first_data_row = True
    try:
        for row in reader:
            if len(row) == 2:  # a score text already counted in this label's class
                tally = tallies.get(row[1])
                if tally is not None and row[0] in tally:
                    tally[row[0]] += 1
                    continue
            line = reader.line_num
            if not "".join(row).strip():
                continue
            if len(row) != 2:
                raise ParseError(line, f"expected 2 fields, got {len(row)}")
            score_text, label_text = row[0].strip(), row[1].strip()
            label = _LABELS.get(label_text.lower())
            try:
                value = scores[score_text] if score_text in scores else score(score_text)
            except (ValueError, ZeroDivisionError):
                if first_data_row and label is None:
                    first_data_row = False  # header line
                    continue
                raise ParseError(line, f"cannot read score {score_text!r}") from None
            if label is None:
                raise ParseError(line, f"cannot read label {label_text!r}")
            tally = positives if label else negatives
            tally[row[0]] = tally.get(row[0], 0) + 1
            scores[row[0]] = scores[score_text] = value
            tallies[row[1]] = tally
            first_data_row = False
    except csv.Error as e:  # e.g. a field past csv.field_size_limit()
        raise ParseError(reader.line_num, str(e)) from None
    counted = (Tally(tuple(map(scores.get, t)), tuple(t.values())) for t in (positives, negatives))
    return Dataset(*counted)


def run_report(d: Dataset) -> RocReport:
    """Compute the full report; constructing it asserts the exact identities."""
    return RocReport(**vars(_evaluate(d)))


def _frac(num: int | Rational, den: int = 1) -> str:
    """num / den in lowest terms, as text; num is a count or an exact value, den > 0."""
    g = gcd(num.numerator, den)  # num's own terms are already coprime
    num, den = num.numerator, num.denominator * den
    try:
        return f"{num // g}/{den // g}"
    except ValueError:  # past the interpreter's int-to-str digit limit; Decimal has none
        return f"{Decimal(num // g)}/{Decimal(den // g)}"


def _dec17(q: Rational) -> str:
    """Decimal rendering, exact up to 17 significant digits (advisory only)."""
    with localcontext() as ctx:
        ctx.prec = 17
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def emit_report(r: RocReport, mode: Literal["json", "text"] = "json") -> str:
    """Serialize a report; fraction strings are the primary representation.

    Both modes render the same fields in the same order; text gives one per line.
    """
    if mode not in ("json", "text"):
        raise ValueError(f"mode must be 'json' or 'text', not {mode!r}")
    return "".join(_report_pieces(r, mode))


def _report_pieces(r: RocReport, mode: Literal["json", "text"]) -> Iterator[str]:
    """emit_report's text in pieces, in order; JSON laid out exactly as json.dumps(indent=2).

    Its strings all come from _frac or _dec17, whose characters ([0-9+-./E]) need no escaping.
    """
    exact = {
        "auc": r.auc,
        "pair_probability": r.pair_probability,
        "tie_correction": r.tie.correction,
        "tie_bound": r.tie.bound,
    }
    shared = ((_frac(s), _frac(p, r.n_pos), _frac(n, r.n_neg)) for s, p, n in r.tie.shared_scores)
    f, t = r.curve.neg_ge, r.curve.pos_ge  # each vertex's two counts over the class sizes
    curve = ((_frac(a, f[0]), _frac(b, t[0])) for a, b in zip(f, t))
    holds = str(r.hypothesis_holds).lower()
    if mode == "json":
        yield f'{{\n  "n_pos": {r.n_pos},\n  "n_neg": {r.n_neg},\n  "hypothesis_holds": {holds},\n'
        for name, q in exact.items():
            yield f'  "{name}": "{_frac(q)}",\n  "{name}_decimal": "{_dec17(q)}",\n'
        item = '{{\n      "score": "{}",\n      "pos_mass": "{}",\n      "neg_mass": "{}"\n    }}'
        yield from _json_array('  "shared_scores": ', item, shared)
        yield from _json_array(',\n  "curve": ', '[\n      "{}",\n      "{}"\n    ]', curve)
        yield "\n}\n"
        return
    yield f"{'observations':<18}{r.n_pos + r.n_neg} ({r.n_pos} positive, {r.n_neg} negative)\n"
    yield f"{'hypothesis_holds':<18}{holds}\n"
    for name, q in exact.items():
        yield f"{name:<18}{_frac(q)} = {_dec17(q)}\n"
    for s, p, n in shared:
        yield f"{'shared_score':<18}{s} (pos_mass {p}, neg_mass {n})\n"
    yield f"{'curve':<17}"  # each point brings the space before it, completing the 18 columns
    yield from (f" ({x}, {y})" for x, y in curve)
    yield "\n"


def _json_array(head: str, item: str, rows: Iterable[tuple[str, ...]]) -> Iterator[str]:
    """`head`, then the rows as an array at depth 1 of json.dumps(indent=2), each as `item`."""
    opening = f"{head}["
    for row in rows:
        yield f"{opening}\n    " + item.format(*row)
        opening = ","
    yield "\n  ]" if opening == "," else f"{opening}]"


def emit_curve_svg(c: RocCurve, width_px: int = 480) -> str:
    """Standalone SVG: the curve polyline, the chance diagonal, ticks at 0, 1/2, 1."""
    if width_px < _MIN_WIDTH_PX:
        raise ValueError(f"width must be at least {_MIN_WIDTH_PX} px")
    w = width_px
    margin = max(10, w // 8)
    span = w - 2 * margin

    def fx(v: float) -> float:
        return margin + v * span

    def fy(v: float) -> float:
        return w - margin - v * span

    ticks = [(0.0, "0"), (0.5, "0.5"), (1.0, "1")]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{w}" viewBox="0 0 {w} {w}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for t, label in ticks:
        parts.append(
            f'<line x1="{fx(t):.2f}" y1="{fy(0):.2f}" x2="{fx(t):.2f}" '
            f'y2="{fy(0) + 6:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{fx(0):.2f}" y1="{fy(t):.2f}" x2="{fx(0) - 6:.2f}" '
            f'y2="{fy(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{fx(t):.2f}" y="{fy(0) + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
        parts.append(
            f'<text x="{fx(0) - 9:.2f}" y="{fy(t) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<line x1="{fx(0):.2f}" y1="{fy(0):.2f}" x2="{fx(1):.2f}" y2="{fy(1):.2f}" '
        f'stroke="gray" stroke-dasharray="4 3"/>'
    )
    f, t = c.neg_ge, c.pos_ge  # a / n of two ints is the exact rate, rounded once to a float
    coords = " ".join(f"{fx(a / f[0]):.2f},{fy(b / t[0]):.2f}" for a, b in zip(f, t))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="crimson" stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def identity_suite(d: Dataset) -> list[tuple[str, bool, str]]:
    """Run every exact identity on one dataset; (name, passed, detail) rows.

    The last row, built first, certifies the count table against the class tallies.
    If a stage's validator refuses what it read from a table that row rejects, the
    other rows have no value to compare and fail with the validator's message; a
    certified table that a validator refuses is a bug in that stage, and raises.
    """
    table_row = _count_table_row(d)
    try:
        e = _evaluate(d)
    except ValueError as error:
        if table_row[1]:
            raise
        failed = f"not evaluated: {error}"
        rows = [(name, False, failed) for name in _IDENTITIES]
        rows.insert(2, (_MERGE_ROW, False, failed))
    else:
        rows = _identities(e)
        rows.insert(2, _equal(_MERGE_ROW, e.pair_probability, pair_probability_sorted(d)))
    return [*rows, table_row]


def _count_table_row(d: Dataset) -> tuple[str, bool, str]:
    """The count table against a tally of each class by integer ratio, column by column.

    It shares no code with `Dataset.counts`: d-1 exact comparisons check the order,
    and its own sums check the running counts. Its detail names each wrong column.
    """
    t = d.counts
    wrong = [] if all(a < b for a, b in zip(t.scores, t.scores[1:])) else ["scores"]
    classes = ("pos", d.pos_tally, t.pos, t.pos_ge), ("neg", d.neg_tally, t.neg, t.neg_ge)
    for name, (scores, mult), per, ge in classes:
        tally: dict[tuple[int, int], int] = {}  # no Fraction is hashed
        for ratio, c in zip(map(Fraction.as_integer_ratio, scores), mult):
            tally[ratio] = tally.get(ratio, 0) + c
        if tuple(tally.pop(s.as_integer_ratio(), 0) for s in t.scores) != per or tally:
            wrong.append(name)
        if ge[:1] != (sum(mult),) or tuple(a - b for a, b in zip(ge, ge[1:])) != per:
            wrong.append(f"{name}_ge")
    detail = f"distinct scores {len(t.scores)}" + "".join(f", {c} disagrees" for c in wrong)
    return "count table = tally of the raw columns", not wrong, detail


def _load(args: argparse.Namespace) -> Dataset:
    # utf-8-sig drops a byte order mark, which would otherwise glue onto the first score.
    binary = sys.stdin.buffer if args.input == "-" else open(args.input, "rb")
    with io.TextIOWrapper(binary, encoding="utf-8-sig") as fh:
        return parse_input(fh, args.format)


def _cmd_report(args: argparse.Namespace) -> int:
    report = run_report(_load(args))  # every identity is checked before the first byte
    sys.stdout.writelines(_report_pieces(report, args.output))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    svg = emit_curve_svg(roc_curve(_load(args)), args.width)  # argparse checked the width
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _contlab_lines(model: LaplaceTieModel, drawn: Dataset) -> list[str]:
    """One epsilon's 10 lines: the model's floats, then the sample's exact values."""
    cert = jump_certificate(model)
    r = run_report(drawn)  # every identity row is checked on the sample; a failure exits 3
    floats = dict(
        epsilon=model.epsilon, beta_star=model.beta_star, fpr_below_jump=cert.x_minus_approx,
        fpr_above_jump=cert.x_plus_approx, model_area=model.area,
        model_pair_prob=model.pair_probability, model_gap=model.gap)
    exact = dict(auc=r.auc, pair_probability=r.pair_probability, tie_correction=r.tie.correction)
    return [*(f"{name:<17}{x:.17g}\n" for name, x in floats.items()),
            *(f"{name:<17}{_frac(q)} = {_dec17(q)}\n" for name, q in exact.items())]


def _cmd_contlab(args: argparse.Namespace) -> int:
    try:  # every epsilon, and with the first draw --samples and --seed, before any output
        models = [LaplaceTieModel(eps) for eps in args.epsilon]
        drawn = sample(models[0], args.samples, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for i, model in enumerate(models):
        if i:
            drawn = sample(model, args.samples, args.seed)
        sys.stdout.writelines(_contlab_lines(model, drawn))
        del drawn  # so only one sample is held while the next is drawn
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    failures = 0
    for name, ok, detail in identity_suite(_load(args)):
        print(f"{'ok  ' if ok else 'FAIL'}  {name} ({detail})")
        failures += not ok
    if failures:
        print(f"{failures} identity check(s) failed", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as do its subparsers: 2 means a one-class file."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _width(text: str) -> int:
    """argparse type of `curve --width`, so a bad width is a usage error before any input."""
    width = int(text)  # argparse reports a non-integer as an invalid _width value
    if width < _MIN_WIDTH_PX:
        raise argparse.ArgumentTypeError(f"width must be at least {_MIN_WIDTH_PX} px")
    return width


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV/TSV of score,label records; - is stdin")
    p.add_argument("--format", choices=["csv", "tsv"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactroc",
        description="Exact ROC/AUC and ranking-probability reports with tie accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full exact report for a prediction file")
    _add_input_args(p_report)
    p_report.add_argument("--output", choices=["json", "text"], default="json")
    p_report.set_defaults(func=_cmd_report)

    p_curve = sub.add_parser("curve", help="render the ROC polyline as SVG")
    _add_input_args(p_curve)
    p_curve.add_argument("--svg", required=True, help="output SVG path")
    p_curve.add_argument(
        "--width", type=_width, default=480, help=f"canvas width in px (>= {_MIN_WIDTH_PX})"
    )
    p_curve.set_defaults(func=_cmd_curve)

    p_cont = sub.add_parser(
        "contlab", help="continuous Laplace example: ROC jump certificate and area check"
    )
    p_cont.add_argument("--epsilon", type=float, nargs="+", default=[0.25])
    p_cont.add_argument("--samples", type=int, default=20_000)
    p_cont.add_argument("--seed", type=int, default=0)
    p_cont.set_defaults(func=_cmd_contlab)

    p_check = sub.add_parser("check", help="run every exact identity on a prediction file")
    _add_input_args(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    try:
        return handler(args)
    except BrokenPipeError:  # the reader stopped early: not an input error, and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the final flush
        return 141
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DegenerateClassesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IdentityError, ValueError) as e:  # input ValueErrors are all caught above
        print(f"internal error: {e}", file=sys.stderr)
        return 3
