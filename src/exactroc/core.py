"""Exact arithmetic and the dataset model.

Every quantity downstream (rates, areas, pair probabilities, tie terms) is a
ratio of integer counts, so everything is carried as `fractions.Fraction`.
Scores enter as decimal text and are converted to exact rationals; binary
floating point is deliberately kept out of the data path because ties are
decided by exact score equality.
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


def rational(num: int, den: int = 1) -> Rational:
    """Reduced rational num/den with the sign carried by the numerator.

    Raises ZeroDivisionError for den == 0.
    """
    return Fraction(num, den)


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
    """Finite observation set: scores plus positive/negative labels.

    Duplicate observations are allowed and counted with multiplicity (the
    underlying measure is counting measure). Both classes must be non-empty.
    """

    observations: tuple[tuple[Score, bool], ...]

    def __post_init__(self) -> None:
        if not self.observations:
            raise DegenerateClassesError("dataset is empty")
        if not self.n_pos:
            raise DegenerateClassesError("dataset has no positive observation")
        if not self.n_neg:
            raise DegenerateClassesError("dataset has no negative observation")

    @cached_property
    def positives(self) -> tuple[Score, ...]:
        return tuple(s for s, pos in self.observations if pos)

    @cached_property
    def negatives(self) -> tuple[Score, ...]:
        return tuple(s for s, pos in self.observations if not pos)

    @cached_property
    def n_pos(self) -> int:
        return sum(self.counts.pos)

    @cached_property
    def n_neg(self) -> int:
        return sum(self.counts.neg)

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def distinct_scores(self) -> tuple[Score, ...]:
        """All attained scores, deduplicated, ascending."""
        return self.counts.scores

    @cached_property
    def counts(self) -> CountTable:
        """The per-score class counts every exact quantity is computed from.

        Observations are tallied per score object first, hashing ints where
        hashing a Fraction is slow; then the distinct objects merge by value.
        """
        scores, labels = zip(*self.observations)
        objects = dict(zip(map(id, scores), scores))
        merged: dict[Score, list] = {}
        for (i, is_pos), c in Counter(zip(map(id, scores), labels)).items():
            s = objects[i]
            merged.setdefault(s, [s, 0, 0])[1 if is_pos else 2] += c
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
    return Dataset(tuple((score(s), bool(pos)) for s, pos in pairs))


def dataset_from_classes(
    positives: Iterable[Score | int | str], negatives: Iterable[Score | int | str]
) -> Dataset:
    """Convenience constructor from two score collections."""
    pairs = [(s, True) for s in positives] + [(s, False) for s in negatives]
    return dataset_from_pairs(pairs)


def class_measures(d: Dataset) -> tuple[Rational, Rational]:
    """(|P|/|Omega|, |P^c|/|Omega|) under the uniform measure; sums to 1."""
    n = len(d)
    return Fraction(d.n_pos, n), Fraction(d.n_neg, n)
