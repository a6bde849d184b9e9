"""Pointwise oracles the tests check the fast paths against; no CLI path runs them.

`tpr_at` and `fpr_at` scan a class tally, not the count table; `likelihood_ratio` is the
Laplace lab's density ratio, whose order `contlab.exact_score` reproduces exactly.
`left_limit`, `right_limit` and `balanced` read a step function at one point, by
bisection, where `stieltjes.integrate` walks every atom at once.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from exactroc.contlab import LaplaceTieModel
from exactroc.core import Dataset, Rational, Score
from exactroc.stieltjes import StepFunction


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


def left_limit(g: StepFunction, x: Score) -> Rational:
    """Also the stored (left-continuous) value at x, hence `value_at`."""
    return g.values[bisect_left(g.breakpoints, x)]


value_at = left_limit


def right_limit(g: StepFunction, x: Score) -> Rational:
    return g.values[bisect_right(g.breakpoints, x)]


def balanced(g: StepFunction, x: Score) -> Rational:
    """(left + right)/2; differs from the stored value only on jumps."""
    return (left_limit(g, x) + right_limit(g, x)) / 2
