"""Exact arithmetic and the dataset model.

Scores are `fractions.Fraction`s and counts are ints: every quantity
downstream (rates, areas, pair probabilities, tie terms) is a ratio of integer
counts. `Dataset` is the one place outside values become exact scores: decimal
text and ints are read exactly, and binary floating point is deliberately kept
out of the data path because ties are decided by exact score equality.

A dataset is its two classes, each a counting measure on exact scores (its
distinct scores with their multiplicities): every quantity is a function of the
two measures, never of how the rows were ordered or interleaved.
"""

from __future__ import annotations

import numbers
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import index, itemgetter, sub
from typing import Iterable, NamedTuple

# Exact reduced fraction with positive denominator; equality is decidable.
Rational = Fraction

# Classifier output. Only the total order on scores matters; values are not
# restricted to [0, 1].
Score = Fraction

# Largest decimal exponent magnitude a score may have. Fraction("1e-20000") takes
# 0.5 ms; Fraction("1e-99999999999") would build 10**99999999999 and never finish.
MAX_EXPONENT = 20_000


class DegenerateClassesError(ValueError):
    """The observations do not contain both a positive and a negative."""


def score(value: Score | int | str) -> Score:
    """Convert decimal text (or an exact number) to an exact score.

    Accepts Fraction, int, or strings such as "0.35", "-2", "1e-3", "7/20"; any
    other value (a Decimal, a numpy integer) is read through its text. Binary
    floating point is rejected with TypeError: a float, or any real number type
    that is not rational (numpy.float32), has already been rounded to binary and
    can silently create or destroy ties. Text with an exponent beyond
    MAX_EXPONENT in magnitude is rejected with ValueError before any arithmetic.
    """
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
    if "_" in text and not re.search(r"(?<!\d)_|_(?!\d)", text):
        text = text.replace("_", "")  # digit separators, which Fraction reads only from 3.11 on
    _, e, exponent = text.replace("E", "e").rpartition("e")
    if e:
        try:
            magnitude = abs(int(exponent))  # int() reads any Unicode digits
        except ValueError:
            magnitude = 0  # not an exponent: Fraction rejects the whole text below
        if magnitude > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
    return Fraction(text)


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
    `Dataset` keeps one per score object and `parse_input` one per raw score text, so
    equal values spelled differently are separate entries, which the count table merges.
    """

    scores: tuple[Score, ...]
    mult: tuple[int, ...]


class Dataset(_Frozen):
    """Finite observation set: each class is a counting measure on exact scores.

    The constructor takes each class as any iterable of Fractions, ints or score
    text, one element per observation, and stores it as a `Tally` of its distinct
    score objects with their multiplicities: every element goes through `score()`,
    which keeps a Fraction as the same object, reads ints and text exactly and raises
    TypeError on binary floating point. A class that is itself text (str or bytes)
    raises TypeError: iterating it would read each character as a score. A class may
    also be given already counted, as a `Tally`; `parse_input` builds its classes so,
    and never holds one entry per row. Both classes must be non-empty.

    `positives` and `negatives` are views of the classes as rows, each score repeated
    by its multiplicity in the tally's order; they are built on each read, so the repr
    shows the tallies instead. Two datasets are equal when their classes are equal
    measures: the same count table.
    """

    pos_tally: Tally
    neg_tally: Tally
    _fields = ("positives", "negatives")  # the constructor's arguments, read back as rows
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
            else:  # every pass over the rows runs in C: map, zip, dict and Counter
                column = tuple(map(score, column))
                scores = tuple(dict(zip(map(id, column), column)).values())
                mult = tuple(Counter(map(id, column)).values())  # the same first-seen order
            object.__setattr__(self, name[:3] + "_tally", Tally(scores, mult))
        if not self.pos_tally.scores and not self.neg_tally.scores:
            raise DegenerateClassesError("dataset is empty")
        if not self.pos_tally.scores:
            raise DegenerateClassesError("dataset has no positive observation")
        if not self.neg_tally.scores:
            raise DegenerateClassesError("dataset has no negative observation")

    @property
    def positives(self) -> tuple[Score, ...]:
        return tuple(chain.from_iterable(map(repeat, *self.pos_tally)))

    @property
    def negatives(self) -> tuple[Score, ...]:
        return tuple(chain.from_iterable(map(repeat, *self.neg_tally)))

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

        The two tallies merge by integer ratio: a Fraction is reduced, so equal values
        have equal ratios. O(d log d) for d tally entries, whatever the number of rows.
        """
        merged: dict[tuple[int, int], list] = {}
        for (scores, mult), k in ((self.pos_tally, 1), (self.neg_tally, 2)):
            for s, c in zip(scores, mult):
                merged.setdefault(s.as_integer_ratio(), [s, 0, 0])[k] += c
        scores, pos, neg = zip(*sorted_exact(merged.values()))
        del merged  # freed first, so the running counts reuse its memory
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


def dataset_from_pairs(pairs: Iterable[tuple[Score | int | str, bool]]) -> Dataset:
    """Build a Dataset from (score, is_positive) pairs, split into the two columns.

    `Dataset` reads the scores, so each is read once and a float raises TypeError.
    Errors are reported column by column: every positive score is read before any
    negative, so a bad positive is named even when a bad negative comes first.
    Raises DegenerateClassesError unless both classes are represented.
    """
    positives: list[Score | int | str] = []
    negatives: list[Score | int | str] = []
    for s, pos in pairs:
        (positives if pos else negatives).append(s)
    return Dataset(positives, negatives)
