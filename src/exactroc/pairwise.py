"""Exact pair probability and the tie accounting.

The pair probability is the chance that a uniformly random positive outranks
(strictly) a uniformly random negative. Ties are never half-counted here: the
gap between the trapezoidal area and this probability is exactly the half-sum
of cross-class tie mass products, and both that correction and its bound are
reported as first-class values. A shared score keeps its two integer counts.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .core import Dataset, Rational, Score


class SharedScore(NamedTuple):
    score: Score
    pos: int  # positives at the score; its mass among positives is pos / n_pos
    neg: int  # negatives at the score; ... neg / n_neg


class TieReport(NamedTuple):
    """Cross-class tie inventory with the exact area/probability gap.

    correction = (1/2) * sum over shared scores of (pos / n_pos) * (neg / n_neg)
    bound      = (1/4) * sum over shared scores of (pos / n_pos + neg / n_neg)

    The chain 0 <= correction <= bound <= 1/2 is an arithmetic consequence
    (ab <= (a^2+b^2)/2 <= (a+b)/2 termwise), and every report checks it as
    one of its identity rows.
    """

    shared_scores: tuple[SharedScore, ...]
    correction: Rational
    bound: Rational


def pair_probability_bruteforce(d: Dataset) -> Rational:
    """Count strictly concordant pairs by explicit double loop over the two class tallies.

    Deliberately naive: the test suite's oracle for the count-table path. Each pair of
    tally entries counts the product of their multiplicities. `check` never runs it,
    since it makes one comparison per pair of entries; its pair count walks the two class
    tallies, each sorted and merged by value (`report._tally_side`).
    """
    (ps, pm), (ns, nm) = d.pos_tally, d.neg_tally
    wins = sum(a * b for p, a in zip(ps, pm) for q, b in zip(ns, nm) if p > q)
    return Fraction(wins, d.n_pos * d.n_neg)


def pair_probability_fast(d: Dataset) -> Rational:
    """Same value as the brute-force count, from one pass over the count table.

    The negatives at each score lose to the positives at or above the next
    score; ties add zero. O(d log d) for d distinct scores (the table), whatever the rows.
    """
    return Fraction(sum(map(mul, d.counts.neg, d.counts.pos_ge[1:])), d.n_pos * d.n_neg)


def hypothesis_holds(d: Dataset) -> bool:
    """True iff no score is attained by both classes."""
    return not any(p and n for p, n in zip(d.counts.pos, d.counts.neg))


def tie_report(d: Dataset) -> TieReport:
    t, n_pos, n_neg = d.counts, d.n_pos, d.n_neg
    shared = tuple(SharedScore(s, p, n) for s, p, n in zip(t.scores, t.pos, t.neg) if p and n)
    tied_pos, tied_neg = sum(s.pos for s in shared), sum(s.neg for s in shared)
    return TieReport(
        shared_scores=shared,
        correction=Fraction(sum(s.pos * s.neg for s in shared), 2 * n_pos * n_neg),
        bound=Fraction(tied_pos * n_neg + tied_neg * n_pos, 4 * n_pos * n_neg),
    )
