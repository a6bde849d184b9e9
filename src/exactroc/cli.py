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
import gc
import io
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice, repeat, starmap, tee
from math import gcd
from operator import floordiv
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal, NoReturn, Sequence

from .core import Dataset, DegenerateClassesError, Rational, Score, _Frozen, sorted_exact
from .pairwise import TieReport, hypothesis_holds, pair_probability_fast, tie_report
from .parse import _DELIMITERS, ParseError, parse_input
from .roc import RocCurve, auc_trapezoid, roc_curve
from .stieltjes import integrate, negative_differential, rate_step_function

if TYPE_CHECKING:
    from .contlab import LaplaceTieModel

_MIN_WIDTH_PX = 64  # the narrowest SVG canvas, for emit_curve_svg and `curve --width`
_WRITE_PIECES = 256  # report pieces joined into one write: few writes, yet no large string


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


def run_report(d: Dataset) -> RocReport:
    """Compute the full report; constructing it asserts the exact identities."""
    return RocReport(**vars(_evaluate(d)))


def _frac(q: Score) -> str:
    """An exact value in lowest terms, as num/den text."""
    num, den = q.as_integer_ratio()  # coprime already
    try:
        return f"{num}/{den}"
    except ValueError:  # past the interpreter's int-to-str digit limit; Decimal has none
        return f"{Decimal(num)}/{Decimal(den)}"


def _fracs(nums: Sequence[int], den: int) -> Iterator[str]:
    """Each count in nums over den > 0 in lowest terms, as num/den text, in C-level maps.

    A count is at most its class size den, whose digits `str` already prints, so the
    text needs no Decimal fallback.
    """
    g, g_again = tee(map(gcd, nums, repeat(den)))
    return map("{}/{}".format, map(floordiv, nums, g), map(floordiv, repeat(den), g_again))


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

    Its strings all come from _frac, _fracs or _dec17, whose characters ([0-9+-./E]) need no
    escaping.
    """
    exact = {
        "auc": r.auc,
        "pair_probability": r.pair_probability,
        "tie_correction": r.tie.correction,
        "tie_bound": r.tie.bound,
    }
    scores, pos, neg = tuple(zip(*r.tie.shared_scores)) or ((), (), ())  # its columns
    shared = zip(map(_frac, scores), _fracs(pos, r.n_pos), _fracs(neg, r.n_neg))
    f, t = r.curve.neg_ge, r.curve.pos_ge  # each vertex's two counts over the class sizes
    curve = zip(_fracs(f, f[0]), _fracs(t, t[0]))
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
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        yield f"{head}[]"
        return
    yield f"{head}[\n    " + item.format(*first)
    yield from starmap((",\n    " + item).format, rows)
    yield "\n  ]"


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
        parts += [
            f'<line x1="{fx(t):.2f}" y1="{fy(0):.2f}" x2="{fx(t):.2f}" '
            f'y2="{fy(0) + 6:.2f}" stroke="black"/>',
            f'<line x1="{fx(0):.2f}" y1="{fy(t):.2f}" x2="{fx(0) - 6:.2f}" '
            f'y2="{fy(t):.2f}" stroke="black"/>',
            f'<text x="{fx(t):.2f}" y="{fy(0) + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{label}</text>',
            f'<text x="{fx(0) - 9:.2f}" y="{fy(t) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{label}</text>',
        ]
    parts.append(
        f'<line x1="{fx(0):.2f}" y1="{fy(0):.2f}" x2="{fx(1):.2f}" y2="{fy(1):.2f}" '
        f'stroke="gray" stroke-dasharray="4 3"/>'
    )
    f, t = c.neg_ge, c.pos_ge  # a / n of two ints is the exact rate, rounded once to a float
    coords = " ".join(f"{fx(a / f[0]):.2f},{fy(b / t[0]):.2f}" for a, b in zip(f, t))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="crimson" stroke-width="2"/>')
    return "\n".join(parts) + "\n</svg>\n"


def identity_suite(d: Dataset) -> list[tuple[str, bool, str]]:
    """Run every exact identity on one dataset; (name, passed, detail) rows.

    The third row and the last, the count table's certificate, come first, from the class
    tallies alone (`_tally_side`). If a stage's validator refuses what it read from a table
    the last row rejects, the other rows have no value to compare and fail with the
    validator's message. A certified table that a validator refuses is a stage bug: it raises.
    """
    table_row, wins = _tally_side(d)
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
        rows.insert(2, _equal(_MERGE_ROW, e.pair_probability, Fraction(wins, d.n_pos * d.n_neg)))
    return [*rows, table_row]


def _tally_side(d: Dataset) -> tuple[tuple[str, bool, str], int]:
    """`check`'s side apart from the count table: the table's certificate row, and the wins W.

    Each class tally is sorted on its own and each run of equal neighbours summed by ==, so
    one value on two raw lines, or a Decimal and an equal Fraction, is one run. The row wants
    increasing scores (its own d-1 comparisons), each class's runs equal to its column's
    non-zero pairs in score order (so a swapped score names only the classes it moves), and
    running counts from the column and the class size. W, the pairs with the positive strictly
    above, is one two-pointer pass over the runs.
    """
    t = d.counts
    wrong = [] if all(a < b for a, b in zip(t.scores, t.scores[1:])) else ["scores"]
    order = sorted_exact if wrong else list  # increasing scores leave each column sorted
    runs: list[list[tuple]] = []  # each class's [(score, count)], ascending
    classes = ("pos", d.pos_tally, t.pos, t.pos_ge), ("neg", d.neg_tally, t.neg, t.neg_ge)
    for name, tally, per, ge in classes:
        merged: list[tuple] = []
        for s, c in sorted_exact(zip(*tally)):
            if merged and merged[-1][0] == s:
                merged[-1] = (s, merged[-1][1] + c)
            else:
                merged.append((s, c))
        column = order((s, c) for s, c in zip(t.scores, per) if c)
        if len(per) != len(t.scores) or merged != column:
            wrong.append(name)
        if ge[:1] != (sum(tally.mult),) or tuple(a - b for a, b in zip(ge, ge[1:])) != per:
            wrong.append(f"{name}_ge")
        runs.append(merged)
    (positives, negatives), wins, below, i = runs, 0, 0, 0
    for p, a in positives:
        while i < len(negatives) and negatives[i][0] < p:
            below += negatives[i][1]
            i += 1
        wins += a * below
    detail = f"distinct scores {len(t.scores)}" + "".join(f", {c} disagrees" for c in wrong)
    return ("count table = tally of the raw columns", not wrong, detail), wins


def _load(args: argparse.Namespace) -> Dataset:
    binary = sys.stdin.buffer if args.input == "-" else open(args.input, "rb")
    with io.TextIOWrapper(binary, encoding="utf-8") as fh:
        return parse_input(fh, args.format)


def _cmd_report(args: argparse.Namespace) -> int:
    report = run_report(_load(args))  # every identity is checked before the first byte
    pieces = _report_pieces(report, args.output)
    while chunk := list(islice(pieces, _WRITE_PIECES)):  # one write each, unbuffered or not
        sys.stdout.write("".join(chunk))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    svg = emit_curve_svg(roc_curve(_load(args)), args.width)  # argparse checked the width
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _contlab_lines(model: LaplaceTieModel, drawn: Dataset) -> list[str]:
    """One epsilon's 10 lines: the model's floats, then the sample's exact values."""
    from .contlab import jump_certificate
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
    from .contlab import LaplaceTieModel, sample  # only this command loads the lab
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
    p.add_argument("--format", choices=list(_DELIMITERS), default="csv")


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
    # A command leaves the same few cycles, argparse's, whatever its input: collecting
    # would find nothing more, so the collector is off until it returns.
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()
