"""Exact arithmetic and the dataset model.

Scores are `fractions.Fraction`s and counts are ints: every quantity
downstream (rates, areas, pair probabilities, tie terms) is a ratio of integer
counts. `Dataset` is the one place outside values become exact scores: decimal
text and ints are read exactly, and binary floating point is deliberately kept
out of the data path because ties are decided by exact score equality.

A dataset is its two class columns, positive scores and negative scores:
every quantity is a function of the two samples, never of how they interleave.
"""

from __future__ import annotations

import numbers
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter, sub
from typing import Callable, Iterable, NamedTuple

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


class Dataset(_Frozen):
    """Finite observation set: the positive class's scores and the negative class's.

    The constructor takes each column as any iterable of Fractions, ints or score
    text, and `_check` stores it as the tuple of exact scores the fields are
    typed as: every element goes through `score()`, which keeps a Fraction as the
    same object, reads ints and text exactly and raises TypeError on binary floating
    point. A column that is itself text (str or bytes) raises TypeError: iterating it
    would read each character as a score.
    Duplicate scores are allowed and counted with multiplicity (the underlying
    measure is counting measure). Both classes must be non-empty.
    """

    positives: tuple[Score, ...]
    negatives: tuple[Score, ...]
    _fields = tuple(__annotations__)
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached properties

    def _check(self) -> None:
        for name in ("positives", "negatives"):  # tuples hash, and no caller can grow them
            column = getattr(self, name)
            if isinstance(column, (str, bytes)):
                kind = type(column).__name__
                raise TypeError(f"{name} must be an iterable of scores, not {kind}")
            object.__setattr__(self, name, tuple(map(score, column)))
        if not self.positives and not self.negatives:
            raise DegenerateClassesError("dataset is empty")
        if not self.positives:
            raise DegenerateClassesError("dataset has no positive observation")
        if not self.negatives:
            raise DegenerateClassesError("dataset has no negative observation")

    @cached_property
    def n_pos(self) -> int:
        return len(self.positives)

    @cached_property
    def n_neg(self) -> int:
        return len(self.negatives)

    def __len__(self) -> int:
        return self.n_pos + self.n_neg

    @cached_property
    def counts(self) -> CountTable:
        """The per-score class counts every exact quantity is computed from.

        Each column is tallied per score object first, then the distinct objects merge
        by integer ratio: a Fraction is reduced, so equal values have equal ratios.
        """
        merged: dict[tuple[int, int], list] = {}
        for column, k in ((self.positives, 1), (self.negatives, 2)):
            objects = dict(zip(map(id, column), column))
            for i, c in Counter(map(id, column)).items():
                s = objects[i]
                merged.setdefault(s.as_integer_ratio(), [s, 0, 0])[k] += c
        scores, pos, neg = zip(*sorted_exact(merged.values(), key=itemgetter(0)))
        del merged, objects  # freed first, so the running counts reuse their memory
        pos_ge = tuple(accumulate(pos, sub, initial=self.n_pos))
        neg_ge = tuple(accumulate(neg, sub, initial=self.n_neg))
        return CountTable(scores, pos, neg, pos_ge, neg_ge)


def sorted_exact(items: Iterable, key: Callable | None = None) -> list:
    """`sorted(items, key=key)`, where `key` of an item (or the item) is an exact score."""
    items = list(items)
    try:  # a cheap presort by float leaves the exact sort little to reorder
        items.sort(key=float if key is None else lambda item: float(key(item)))
    except OverflowError:
        pass
    items.sort(key=key)
    return items


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
