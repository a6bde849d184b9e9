"""Rate functions, the finite ROC point set, and the trapezoidal area.

A threshold tau accepts every observation with score >= tau. The true and
false positive rates are therefore non-increasing, left-continuous step
functions of tau, and the ROC sweep visits only finitely many points: one per
distinct observed score, plus (0, 0) from a sentinel above the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import sub
from typing import NamedTuple

from .core import Dataset, Rational, Score


class RocPoint(NamedTuple):
    fpr: Rational
    tpr: Rational


@dataclass(frozen=True)
class RocCurve:
    """Distinct ROC points in sweep order, (1,1) first, (0,0) last.

    `thresholds` is the evaluation grid that produced the points: the
    distinct observed scores ascending, then one sentinel strictly above the
    maximum, one point per threshold.
    """

    points: tuple[RocPoint, ...]
    thresholds: tuple[Score, ...]

    def __post_init__(self) -> None:
        pts = self.points
        if pts[0] != (1, 1) or pts[-1] != (0, 0):
            raise ValueError("curve must run from (1,1) to (0,0)")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive curve points must be distinct")
            if b.fpr > a.fpr or b.tpr > a.tpr:
                raise ValueError("rates must be non-increasing along the sweep")


def tpr_at(d: Dataset, tau: Score) -> Rational:
    """Fraction of positives with score >= tau; scans the raw observations."""
    return Fraction(sum(1 for s in d.positives if s >= tau), len(d.positives))


def fpr_at(d: Dataset, tau: Score) -> Rational:
    """Fraction of negatives with score >= tau; scans the raw observations."""
    return Fraction(sum(1 for s in d.negatives if s >= tau), len(d.negatives))


def roc_curve(d: Dataset) -> RocCurve:
    """Sweep thresholds over the distinct scores plus a sentinel.

    Evaluating at the minimum score gives (1,1); the sentinel gives (0,0).
    Counts at or above each threshold are running differences down the count
    table; every distinct score is attained, so consecutive points differ.
    """
    t = d.counts
    pos_ge = accumulate(t.pos, sub, initial=d.n_pos)
    neg_ge = accumulate(t.neg, sub, initial=d.n_neg)
    points = tuple(
        RocPoint(Fraction(f, d.n_neg), Fraction(r, d.n_pos)) for f, r in zip(neg_ge, pos_ge)
    )
    return RocCurve(points=points, thresholds=t.scores + (t.scores[-1] + 1,))


def auc_trapezoid(c: RocCurve) -> Rational:
    """Trapezoid sum sum_k (T_k + T_{k+1})/2 * (F_k - F_{k+1}), exact.

    Summed in integers over each axis's common denominator (a class size, from roc_curve).
    """
    f_den = lcm(*(p.fpr.denominator for p in c.points))
    t_den = lcm(*(p.tpr.denominator for p in c.points))
    f = [p.fpr.numerator * (f_den // p.fpr.denominator) for p in c.points]
    t = [p.tpr.numerator * (t_den // p.tpr.denominator) for p in c.points]
    twice = sum((t0 + t1) * (f0 - f1) for t0, t1, f0, f1 in zip(t, t[1:], f, f[1:]))
    return Fraction(twice, 2 * f_den * t_den)
