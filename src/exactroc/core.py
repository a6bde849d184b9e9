"""Exact arithmetic and the dataset model.

Every quantity downstream (rates, areas, pair probabilities, tie terms) is a
ratio of integer counts, so everything is carried as `fractions.Fraction`.
Scores enter as decimal text and are converted to exact rationals; binary
floating point is deliberately kept out of the data path because ties are
decided by exact score equality.

A dataset is its two class columns, positive scores and negative scores:
every quantity is a function of the two samples, never of how they interleave.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple

# Exact reduced fraction with positive denominator; equality is decidable.
Rational = Fraction

# Classifier output. Only the total order on scores matters; values are not
# restricted to [0, 1].
Score = Fraction


class DegenerateClassesError(ValueError):
    """The observations do not contain both a positive and a negative."""


def score(value: Score | int | str) -> Score:
    """Convert decimal text (or an exact number) to an exact score.

    Accepts Fraction, int, or strings such as "0.35", "-2", "1e-3", "7/20".
    Floats are rejected: a float has already been rounded to binary and can
    silently create or destroy ties.
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
    return Fraction(str(value))


class CountTable(NamedTuple):
    """Distinct scores ascending; pos[k] positives and neg[k] negatives attain scores[k]."""

    scores: tuple[Score, ...]
    pos: tuple[int, ...]
    neg: tuple[int, ...]


@dataclass(frozen=True)
class Dataset:
    """Finite observation set: the positive class's scores and the negative class's.

    Duplicate scores are allowed and counted with multiplicity (the
    underlying measure is counting measure). Both classes must be non-empty.
    """

    positives: tuple[Score, ...]
    negatives: tuple[Score, ...]

    def __post_init__(self) -> None:
        if not self.positives and not self.negatives:
            raise DegenerateClassesError("dataset is empty")
        if not self.positives:
            raise DegenerateClassesError("dataset has no positive observation")
        if not self.negatives:
            raise DegenerateClassesError("dataset has no negative observation")

    @cached_property  # read once per curve point and per shared score
    def n_pos(self) -> int:
        return len(self.positives)

    @cached_property
    def n_neg(self) -> int:
        return len(self.negatives)

    def __len__(self) -> int:
        return self.n_pos + self.n_neg

    @property
    def distinct_scores(self) -> tuple[Score, ...]:
        """All attained scores, deduplicated, ascending."""
        return self.counts.scores

    @cached_property
    def counts(self) -> CountTable:
        """The per-score class counts every exact quantity is computed from.

        Each column is tallied per score object first, hashing ints where
        hashing a Fraction is slow; then the distinct objects merge by value.
        """
        merged: dict[Score, list] = {}
        for column, k in ((self.positives, 1), (self.negatives, 2)):
            objects = dict(zip(map(id, column), column))
            for i, c in Counter(map(id, column)).items():
                s = objects[i]
                merged.setdefault(s, [s, 0, 0])[k] += c
        rows = list(merged.values())
        try:  # a cheap presort by float leaves the exact sort little to reorder
            rows.sort(key=lambda row: float(row[0]))
        except OverflowError:
            pass
        rows.sort(key=itemgetter(0))
        return CountTable(*zip(*rows))


def dataset_from_pairs(pairs: Iterable[tuple[Score | int | str, bool]]) -> Dataset:
    """Build a Dataset from (score, is_positive) pairs.

    Scores go through `score()` (exact text or exact numbers only). Raises
    DegenerateClassesError unless both classes are represented.
    """
    positives: list[Score] = []
    negatives: list[Score] = []
    for s, pos in pairs:
        (positives if pos else negatives).append(score(s))
    return Dataset(tuple(positives), tuple(negatives))


def dataset_from_classes(
    positives: Iterable[Score | int | str], negatives: Iterable[Score | int | str]
) -> Dataset:
    """Convenience constructor from two score collections."""
    return Dataset(tuple(map(score, positives)), tuple(map(score, negatives)))
