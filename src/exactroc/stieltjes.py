"""Step-function calculus for the rate functions.

A non-increasing, left-continuous step function is stored as its breakpoints
plus the value on each open interval between them, so one-sided limits are
exact table lookups (no epsilon probing). Differentiating such a function
(with a sign flip) yields a finite atomic measure, and integrating a step
function against an atomic measure is a finite sum. Which value of the
integrand is used at the atoms is an explicit parameter with two choices:
the balanced (midpoint) value reproduces the trapezoidal area, the right
limit reproduces the strict pair probability, and the two agree whenever no
atom sits on a jump of the integrand. The left limit stays available
pointwise, as `StepFunction.left_limit`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress
from typing import Literal

from .core import Dataset, Rational, Score, _Frozen

LimitVariant = Literal["right", "balanced"]


class StepFunction(_Frozen):
    """Left-continuous, non-increasing piecewise-constant function.

    values[i] is the value on the open interval between breakpoints[i-1] and
    breakpoints[i] (values[0] to the left of everything, values[-1] to the
    right), and the stored value AT a breakpoint is the left interval's value.
    Values strictly decrease, so every breakpoint carries a strictly positive
    downward jump; construction rejects a breakpoint with no jump.
    """

    breakpoints: tuple[Score, ...]
    values: tuple[Rational, ...]
    __slots__ = _fields = tuple(__annotations__)

    def _check(self) -> None:
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one value per interval")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a <= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must strictly decrease")

    def left_limit(self, x: Score) -> Rational:
        """Also the stored (left-continuous) value at x, hence `__call__`."""
        return self.values[bisect_left(self.breakpoints, x)]

    __call__ = left_limit

    def right_limit(self, x: Score) -> Rational:
        return self.values[bisect_right(self.breakpoints, x)]

    def balanced(self, x: Score) -> Rational:
        """(left + right)/2; differs from the stored value only on jumps."""
        return (self.left_limit(x) + self.right_limit(x)) / 2


class AtomicMeasure(_Frozen):
    """Finite positive measure: point masses at strictly increasing locations."""

    atoms: tuple[tuple[Score, Rational], ...]
    __slots__ = _fields = tuple(__annotations__)

    def _check(self) -> None:
        locs = [a for a, _ in self.atoms]
        if any(x >= y for x, y in zip(locs, locs[1:])):
            raise ValueError("atom locations must be strictly increasing")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("atom weights must be positive")


def rate_step_function(d: Dataset, side: Literal["positive", "negative"]) -> StepFunction:
    """The map tau -> fraction of the chosen class with score >= tau.

    Breakpoints are exactly the scores attained by that class; the function
    is 1 left of all of them and 0 right of all of them, and agrees pointwise
    with tpr_at / fpr_at.
    """
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', not {side!r}")
    t = d.counts
    counts, ge = (t.pos, t.pos_ge) if side == "positive" else (t.neg, t.neg_ge)
    return StepFunction(
        breakpoints=tuple(compress(t.scores, counts)),
        values=tuple(Fraction(r, ge[0]) for r in (ge[0], *compress(ge[1:], counts))),
    )


def negative_differential(g: StepFunction) -> AtomicMeasure:
    """Atomic measure of -g: one atom per jump, weight = jump height.

    Total mass equals g's leftmost value minus its rightmost value (1 for a
    rate function).
    """
    atoms = tuple(
        (b, g.values[i] - g.values[i + 1]) for i, b in enumerate(g.breakpoints)
    )
    return AtomicMeasure(atoms=atoms)


def integrate(variant: LimitVariant, g: StepFunction, m: AtomicMeasure) -> Rational:
    """sum over atoms (a, w) of w * g_variant(a), exact.

    Atoms and breakpoints both ascend, so one forward walk finds each atom's
    place among the breakpoints: `i` is where `bisect_left` would put the
    atom, and the atom sits on a jump iff breakpoints[i] equals it. The terms
    are those of the pointwise `right_limit` and `balanced`.
    """
    if variant not in ("right", "balanced"):
        raise ValueError(f"variant must be 'right' or 'balanced', not {variant!r}")
    balanced = variant == "balanced"
    bps, values = g.breakpoints, g.values
    left = right = Fraction(0)
    i = 0
    for a, w in m.atoms:
        while i < len(bps) and bps[i] < a:
            i += 1
        if balanced:
            left += w * values[i]
        right += w * values[i + 1 if i < len(bps) and bps[i] == a else i]
    return (left + right) / 2 if balanced else right
