"""Rate functions, the finite ROC point set, and the trapezoidal area.

A threshold tau accepts every observation with score >= tau. The true and
false positive rates are therefore non-increasing, left-continuous step
functions of tau. The ROC sweep has one vertex per distinct observed score, plus
(0, 0) from a sentinel above the maximum; `RocCurve` keeps each vertex as its two
integer counts, and `points` is the one view of them as exact rates.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Dataset, Rational, Score, _Frozen


class RocCurve(_Frozen):
    """Negatives and positives scoring >= each threshold: class sizes first, zeros last."""

    neg_ge: tuple[int, ...]
    pos_ge: tuple[int, ...]
    __slots__ = _fields = tuple(__annotations__)

    def _check(self) -> None:
        f, t = self.neg_ge, self.pos_ge
        if len(f) != len(t) or not f or min(f[0], t[0]) <= 0 or (f[-1], t[-1]) != (0, 0):
            raise ValueError("count columns must be equally long, from (1,1) to (0,0)")
        for f0, f1, t0, t1 in zip(f, f[1:], t, t[1:]):
            if f0 == f1 and t0 == t1:
                raise ValueError("consecutive curve points must be distinct")
            if f1 > f0 or t1 > t0:
                raise ValueError("counts must be non-increasing along the sweep")

    @property
    def points(self) -> tuple[tuple[Rational, Rational], ...]:
        """The vertices as exact (fpr, tpr) rates, built afresh on each read."""
        f, t = self.neg_ge, self.pos_ge
        return tuple((Fraction(a, f[0]), Fraction(b, t[0])) for a, b in zip(f, t))


def tpr_at(d: Dataset, tau: Score) -> Rational:
    """Fraction of positives with score >= tau; scans the raw observations."""
    return Fraction(sum(1 for s in d.positives if s >= tau), len(d.positives))


def fpr_at(d: Dataset, tau: Score) -> Rational:
    """Fraction of negatives with score >= tau; scans the raw observations."""
    return Fraction(sum(1 for s in d.negatives if s >= tau), len(d.negatives))


def roc_curve(d: Dataset) -> RocCurve:
    """Sweep thresholds over the distinct scores plus a sentinel: (1,1) down to (0,0).

    The counts are the count table's at-or-above columns; every distinct score
    is attained, so consecutive points differ.
    """
    return RocCurve(d.counts.neg_ge, d.counts.pos_ge)


def auc_trapezoid(c: RocCurve) -> Rational:
    """Trapezoid sum sum_k (T_k + T_{k+1})/2 * (F_k - F_{k+1}), exact.

    Summed in the integer counts, then divided once by 2 * n_neg * n_pos.
    """
    f, t = c.neg_ge, c.pos_ge
    twice = sum((t0 + t1) * (f0 - f1) for t0, t1, f0, f1 in zip(t, t[1:], f, f[1:]))
    return Fraction(twice, 2 * f[0] * t[0])
