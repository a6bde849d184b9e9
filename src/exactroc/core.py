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

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
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

    Accepts Fraction, int, or strings such as "0.35", "-2", "1e-3", "7/20".
    Floats are rejected: a float has already been rounded to binary and can
    silently create or destroy ties. Text with an exponent beyond MAX_EXPONENT
    in magnitude is rejected with ValueError before any arithmetic.
    """
    if isinstance(value, float):
        raise TypeError(
            "float scores are not accepted; pass the decimal text instead "
            f"(e.g. {value!r:.17} as a string)"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
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


class CountTable(NamedTuple):
    """Distinct scores ascending; pos[k] positives and neg[k] negatives attain scores[k]."""

    scores: tuple[Score, ...]
    pos: tuple[int, ...]
    neg: tuple[int, ...]


@dataclass(frozen=True)
class Dataset:
    """Finite observation set: the positive class's scores and the negative class's.

    The constructor takes each column as any iterable of Fractions, ints or score
    text, and `__post_init__` stores it as the tuple of exact scores the fields are
    typed as: every element goes through `score()`, which keeps a Fraction as the
    same object, reads ints and text exactly and raises TypeError on a float.
    Duplicate scores are allowed and counted with multiplicity (the underlying
    measure is counting measure). Both classes must be non-empty.
    """

    positives: tuple[Score, ...]
    negatives: tuple[Score, ...]

    def __post_init__(self) -> None:
        for name in ("positives", "negatives"):  # tuples hash, and no caller can grow them
            object.__setattr__(self, name, tuple(map(score, getattr(self, name))))
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
        return CountTable(*zip(*sorted_exact(merged.values(), key=itemgetter(0))))


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
