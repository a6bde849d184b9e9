"""The evaluation of one dataset, the exact identities it satisfies, and the report's bytes.

`report` and `check` share one evaluation and one table of exact identities (trapezoid
area = balanced Stieltjes integral, strict pair probability = right-limit integral, area -
probability = tie correction in [0, 1/2], no shared score iff area = probability). Each
evaluated row carries its exact sides, and its detail text is rendered only where printed:
a RocReport renders the first that fails, in the IdentityError it raises before anything is
emitted; `identity_suite` renders every row.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat, starmap, tee
from math import gcd
from operator import floordiv
from types import SimpleNamespace
from typing import Iterable, Iterator, Literal, Sequence

from .core import Dataset, Rational, Score, _Frozen, sorted_exact
from .pairwise import TieReport, hypothesis_holds, pair_probability_fast, tie_report
from .roc import RocCurve, auc_trapezoid, roc_curve
from .stieltjes import integrate, negative_differential, rate_step_function

_MIN_WIDTH_PX = 64  # the narrowest SVG canvas, for emit_curve_svg and `curve --width`


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
        for (name, layout), ok, sides in _identities(self):
            if not ok:
                raise IdentityError(f"RocReport: {name}: {_detail(layout, sides)}")


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


# `check`'s rows in output order: each identity's name and the layout of its detail
_ROWS = (
    ("trapezoid area = balanced Stieltjes integral", "{} vs {}"),
    ("strict pair probability = right-limit Stieltjes integral", "{} vs {}"),
    ("fast pair count = sorted-merge pair count", "{} vs {}"),
    ("area - pair probability = tie correction", "{} vs {}"),
    ("0 <= correction <= bound <= 1/2", "correction {}, bound {}"),
    ("no cross-class tie iff area = pair probability",
     "hypothesis {}, shared {}, auc {}, pair {}"),
    ("count table = tally of the raw columns", "distinct scores {}{}"),
)
_AREA, _STRICT, _MERGE, _GAP, _CHAIN, _NO_TIE, _TABLE = _ROWS


def _detail(layout: str, sides: tuple) -> str:
    """A row's detail: its layout filled in with its sides, each Fraction as `_frac` writes it."""
    return layout.format(*(_frac(v) if isinstance(v, Fraction) else v for v in sides))


def _identities(r: RocReport | SimpleNamespace, merged: Rational | None = None) -> Iterator:
    """Each exact identity of an evaluation, in `_ROWS` order: ((name, layout), passed, sides).

    The sorted-merge row comes only with `merged`, the pair probability of `check`'s own side.
    """
    auc, pair, tie = r.auc, r.pair_probability, r.tie
    yield _AREA, auc == r.balanced_integral, (auc, r.balanced_integral)
    yield _STRICT, pair == r.right_integral, (pair, r.right_integral)
    if merged is not None:
        yield _MERGE, pair == merged, (pair, merged)
    yield _GAP, auc - pair == tie.correction, (auc - pair, tie.correction)
    yield _CHAIN, 0 <= tie.correction <= tie.bound <= Fraction(1, 2), (tie.correction, tie.bound)
    no_tie = r.hypothesis_holds == (not tie.shared_scores) == (auc == pair)
    yield _NO_TIE, no_tie, (r.hypothesis_holds, len(tie.shared_scores), auc, pair)


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
        rows = [((name, "not evaluated: {}"), False, (error,)) for name, _ in _ROWS[:-1]]
    else:
        rows = _identities(e, Fraction(wins, d.n_pos * d.n_neg))
    return [(name, ok, _detail(layout, sides)) for (name, layout), ok, sides in (*rows, table_row)]


def _tally_side(d: Dataset) -> tuple[tuple, int]:
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
    return (_TABLE, not wrong, (len(t.scores), "".join(f", {c} disagrees" for c in wrong))), wins
