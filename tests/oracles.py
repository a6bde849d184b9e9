"""Pointwise oracles the tests check the fast paths against; no CLI path runs them.

`tpr_at` and `fpr_at` scan a class tally, not the count table; `likelihood_ratio` is the
Laplace lab's density ratio, whose order `contlab.exact_score` reproduces exactly.
"""

import math
from fractions import Fraction

from exactroc.contlab import LaplaceTieModel
from exactroc.core import Dataset, Rational, Score


def tpr_at(d: Dataset, tau: Score) -> Rational:
    """Fraction of positives with score >= tau; scans the positive tally, not the count table."""
    return Fraction(sum(c for s, c in zip(*d.pos_tally) if s >= tau), d.n_pos)


def fpr_at(d: Dataset, tau: Score) -> Rational:
    """Fraction of negatives with score >= tau; scans the negative tally, not the count table."""
    return Fraction(sum(c for s, c in zip(*d.neg_tally) if s >= tau), d.n_neg)


def likelihood_ratio(m: LaplaceTieModel, t: float) -> float:
    """Positive-to-negative density ratio at t."""
    if abs(t) < m.epsilon:
        return 2.0 * math.exp(abs(t))
    return m.beta_star
