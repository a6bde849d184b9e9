"""Exact arithmetic and the dataset model.

Scores are `fractions.Fraction`s, or finite `decimal.Decimal`s, which `read_score`
makes of a file's decimal text and which are read, hashed and compared in C. Only their
order and exact equality matter, and the two types compare exactly with each other.
Counts are ints: every quantity downstream (rates, areas, pair probabilities, tie terms)
is a ratio of integer counts. `Dataset` is the one place outside values become exact
scores: decimal text and ints are read exactly, and binary floating point is
deliberately kept out of the data path because ties are decided by exact score equality.

A dataset is its two classes, each a counting measure on exact scores (its
distinct scores with their multiplicities): every quantity is a function of the
two measures, never of how the rows were ordered or interleaved.
"""

from __future__ import annotations

import numbers
import re
import sys
from decimal import Context, Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from operator import index, itemgetter, sub
from typing import Iterable, NamedTuple

# Exact reduced fraction with positive denominator; equality is decidable.
Rational = Fraction

# Classifier output. Only the total order on scores and exact equality matter; values
# are not restricted to [0, 1]. Arithmetic mixing the two types needs Fraction(s).
Score = Fraction | Decimal

# Largest decimal exponent magnitude a score may have. Fraction("1e-20000") takes
# 0.5 ms; Fraction("1e-99999999999") would build 10**99999999999 and never finish.
MAX_EXPONENT = 20_000

# Largest place of a Decimal score's leading digit, in magnitude, which bounds its integer
# ratio: the exponent cap plus the default int-to-str limit of 4,300 digits, as read_score's.
_MAX_PLACE = MAX_EXPONENT + 4_300

# Reads decimal text exactly: Decimal() ignores the precision, and malformed text raises.
_EXACT = Context(traps=[InvalidOperation])

# The interpreter's int-to-str digit limit, which int() and so Fraction apply to text.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)  # added in 3.10.7


class DegenerateClassesError(ValueError):
    """The observations do not contain both a positive and a negative."""


def score(value: Score | int | str) -> Score:
    """Convert decimal text (or an exact number) to an exact score.

    Accepts Fraction, Decimal, int, or strings such as "0.35", "-2", "1e-3", "7/20",
    which it reads as a Fraction; any other value (a numpy integer) is read through its
    text. A Fraction or a Decimal is kept as the same object. A Decimal must be finite,
    with the place of its leading digit within 24,300 of the point (`_MAX_PLACE`), or it
    raises ValueError before any arithmetic. Binary floating point is rejected with
    TypeError: a float, or any real number type that is not rational (numpy.float32),
    has already been rounded to binary and can silently create or destroy ties. Text
    with an exponent beyond MAX_EXPONENT in magnitude is rejected with ValueError
    before any arithmetic.
    """
    if isinstance(value, Decimal):  # first: isinstance of a Decimal with Fraction, an ABC, is slow
        return _bounded(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value
    elif isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        raise TypeError(
            f"{type(value).__name__} scores are not accepted; pass the decimal text instead "
            f"(e.g. {value!s:.17} as a string)"
        )
    else:
        text = str(value)
    return Fraction(_plain(text))


def _bounded(value: Decimal) -> Decimal:
    """`value` if it is finite with its leading digit's place within `_MAX_PLACE`."""
    if value.is_finite() and -_MAX_PLACE <= value.adjusted() <= _MAX_PLACE:
        return value
    raise ValueError(f"{value!r} is not finite with its leading digit within 10**{_MAX_PLACE}")


def read_score(text: str) -> Score:
    """Read score text exactly: decimal text as a Decimal, `a/b` text as a Fraction.

    It accepts the text `score` accepts, with an equal value, and raises ValueError or
    ZeroDivisionError where `score` does, so Decimal's extras are refused: misplaced digit
    separators, "NaN" and "Infinity", and more digits before or after the point than the
    int-to-str limit (raised past 4,300, also a value past `score`'s Decimal bound).
    A Decimal is read in C, where a Fraction's text goes through a regular expression.
    """
    if "/" in text:
        return score(text)
    text = _plain(text)
    try:
        value = Decimal(text, _EXACT)
    except InvalidOperation:
        raise ValueError(f"cannot read {text!r} as an exact score") from None
    limit = _max_str_digits()
    if limit and len(text) > limit:  # Decimal has no digit limit; int(), so Fraction, has
        mantissa, _, _ = text.strip().lower().partition("e")
        if max(map(len, mantissa.lstrip("+-").split("."))) > limit:
            raise ValueError(f"{text[:20]!r}... has more than {limit} digits in one part")
    return _bounded(value)


def _plain(text: str) -> str:
    """Score text without its digit separators, or ValueError before any arithmetic.

    A separator must sit between two digits, as Fraction wants it from Python 3.11 on;
    Decimal would drop it anywhere. An exponent must be an int within MAX_EXPONENT in
    magnitude.
    """
    plain = text
    if "_" in text:
        if re.search(r"(?<!\d)_|_(?!\d)", text):
            raise ValueError(f"misplaced digit separator in {text!r}")
        plain = text.replace("_", "")
    if "e" in plain or "E" in plain:
        _, _, exponent = plain.replace("E", "e").rpartition("e")
        try:
            magnitude = abs(int(exponent))  # int() reads any Unicode digits
        except ValueError:
            raise ValueError(f"cannot read the exponent of {text!r}") from None
        if magnitude > MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
    return plain


class _Frozen:
    """Base of the read-only value classes: a class's annotated names are its `_fields`.

    Each class stores them in `__slots__`. Construction binds them by position or keyword
    (TypeError on a missing, extra or repeated one) and runs the class's `_check`. Fields
    are read-only (AttributeError); ==, hash and repr are field-wise.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        rest = names[len(args):]
        if kwargs and kwargs.keys() == set(rest):  # the fields after the positional ones
            args, kwargs = (*args, *map(kwargs.get, rest)), {}
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through the constructor
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Frozen):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()  # the classes are compared too

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class CountTable(NamedTuple):
    """Distinct scores ascending; pos[k] positives and neg[k] negatives attain scores[k].

    pos_ge[k] positives and neg_ge[k] negatives score >= scores[k]; these two columns
    are one entry longer, ending in 0 past the maximum: the ROC curve's counts.
    """

    scores: tuple[Score, ...]
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    pos_ge: tuple[int, ...]
    neg_ge: tuple[int, ...]


class Tally(NamedTuple):
    """One class as a counting measure: mult[k] of its observations score scores[k].

    Every multiplicity is a positive int. The entries need not have distinct values:
    `parse_input` keeps one per distinct raw line, so equal values written differently
    are separate entries, and `Dataset` keeps one per value of each score type, so a
    Decimal and an equal Fraction are two. The count table merges them. `parse_input`'s
    scores are Decimals, and Fractions for `a/b` text; a row class's are Fractions
    unless it was given Decimals.
    """

    scores: tuple[Score, ...]
    mult: tuple[int, ...]


class Dataset(_Frozen):
    """Finite observation set: each class is a counting measure on exact scores.

    The constructor takes each class as any iterable of Fractions, Decimals, ints or
    score text, one element per observation, and reads it in one pass into a `Tally`
    of its distinct values with their multiplicities (`_count`), so memory follows the
    values, not the rows. Every element goes through `score()`, which keeps a Fraction
    or a Decimal as the same object, reads ints and text exactly as Fractions and raises
    TypeError on binary floating point. A class that is itself text (str or bytes)
    raises TypeError: iterating it would read each character as a score. A class may
    also be given already counted, as a `Tally`, as `parse_input` and
    `dataset_from_pairs` give it. Both classes must be non-empty.

    A dataset is read only as its two measures, `pos_tally` and `neg_tally`, through
    `n_pos`, `n_neg` and `counts`. Two datasets are equal when their count tables are.
    """

    pos_tally: Tally
    neg_tally: Tally
    __slots__ = (*__annotations__, "__dict__")  # the dict holds the cached properties

    def __init__(self, positives: Iterable[Score | int | str] | Tally,
                 negatives: Iterable[Score | int | str] | Tally) -> None:
        for name, column in (("positives", positives), ("negatives", negatives)):
            if isinstance(column, Tally):
                scores, mult = tuple(map(score, column.scores)), tuple(map(index, column.mult))
                if len(scores) != len(mult) or min(mult, default=1) < 1:
                    raise ValueError(f"{name} must pair each score with a positive multiplicity")
            elif isinstance(column, (str, bytes)):
                kind = type(column).__name__
                raise TypeError(f"{name} must be an iterable of scores, not {kind}")
            else:
                counted: dict[object, list] = {}
                for s in map(score, column):
                    _count(counted, s)
                scores, mult = tuple(zip(*counted.values())) or ((), ())
            object.__setattr__(self, name[:3] + "_tally", Tally(scores, mult))
        if not self.pos_tally.scores and not self.neg_tally.scores:
            raise DegenerateClassesError("dataset is empty")
        if not self.pos_tally.scores:
            raise DegenerateClassesError("dataset has no positive observation")
        if not self.neg_tally.scores:
            raise DegenerateClassesError("dataset has no negative observation")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild from the tallies, not the rows
        return type(self), (self.pos_tally, self.neg_tally)

    def __repr__(self) -> str:  # the tallies, not the rows, which may be far more numerous
        pos, neg = self.pos_tally, self.neg_tally
        return f"{type(self).__qualname__}(positives={pos!r}, negatives={neg!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.counts[:3] == other.counts[:3]

    def __hash__(self) -> int:
        return hash(self.counts[:3])

    @cached_property
    def n_pos(self) -> int:
        return sum(self.pos_tally.mult)

    @cached_property
    def n_neg(self) -> int:
        return sum(self.neg_tally.mult)

    def __len__(self) -> int:
        return self.n_pos + self.n_neg

    @cached_property
    def counts(self) -> CountTable:
        """The per-score class counts every exact quantity is computed from.

        Every entry of the two tallies is sorted once, and each run of equal neighbours
        is summed into one row, so entries merge by value with no score hashed: a
        Decimal and an equal Fraction, or one value on several raw lines. O(d log d) for
        d tally entries, whatever the number of rows.
        """
        rows = sorted_exact(chain(
            ([s, c, 0] for s, c in zip(*self.pos_tally)),
            ([s, 0, c] for s, c in zip(*self.neg_tally)),
        ))
        scores, pos, neg = zip(*_merge_equal(rows))
        del rows  # freed first, so the running counts reuse its memory
        pos_ge = tuple(accumulate(pos, sub, initial=self.n_pos))
        neg_ge = tuple(accumulate(neg, sub, initial=self.n_neg))
        return CountTable(scores, pos, neg, pos_ge, neg_ge)


def sorted_exact(pairs: Iterable[tuple]) -> list:
    """`pairs` as a list sorted by their first elements, each an exact score."""
    pairs = list(pairs)
    try:  # a cheap presort by float leaves the exact sort little to reorder
        pairs.sort(key=lambda pair: float(pair[0]))
    except OverflowError:
        pass
    pairs.sort(key=itemgetter(0))
    return pairs


def _merge_equal(rows: list[list]) -> list[list]:
    """Sorted [score, pos, neg] rows with each run of equal scores summed into its first."""
    kept = rows[:1]
    for row in rows[1:]:
        if row[0] == kept[-1][0]:
            kept[-1][1] += row[1]
            kept[-1][2] += row[2]
        else:
            kept.append(row)
    return kept


def _count(counted: dict[object, list], s: Score) -> None:
    """Count one observation of `s` in `counted`, {key: [first score seen, count]}: a
    Decimal is its own key and a Fraction's is its integer ratio, so none is hashed."""
    key = s if isinstance(s, Decimal) else s.as_integer_ratio()
    counted.setdefault(key, [s, 0])[1] += 1


def dataset_from_pairs(pairs: Iterable[tuple[Score | int | str, bool]]) -> Dataset:
    """Build a Dataset from (score, is_positive) pairs, counting each pair as it is read.

    Each score is read once through `score()`, so a float raises TypeError, and counted
    by value (`_count`), so no row is held. The first bad negative's error is raised only
    if no positive fails, so a bad positive is named even when a bad negative comes first.
    Raises DegenerateClassesError unless both classes are represented.
    """
    counted: tuple[dict, dict] = {}, {}  # positives, negatives
    held = None
    for s, pos in pairs:
        try:
            _count(counted[not pos], score(s))
        except Exception as exc:
            if pos:
                raise
            held = held or exc
    if held:
        raise held
    return Dataset(*(Tally(*(tuple(zip(*c.values())) or ((), ()))) for c in counted))
