"""Continuous-score laboratory: a likelihood-ratio ROC with a genuine jump.

Negatives are standard Laplace; positives are uniform on (-eps, eps) with matched
exponential tails outside. The likelihood ratio is then 2*e^|t| on the center and
constant at beta_star = (1-2*eps)*e^eps on the tails, so the tails form a tie region of
positive mass: the false positive rate as a function of the decision threshold jumps
from 1 down to 1 - e^-eps at beta_star even though both class distributions have
densities. This is the continuous analog of a cross-class score tie, and the
area/pair-probability gap it produces is the discrete tie correction of that one atom.

The model's rates, area, pair probability and gap are closed-form floats. `sample`
draws a finite sample whose exact scores rank the draws as the likelihood ratio does,
so the exact engine counts all of its pairs. Only the standard library is used.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .core import Dataset, _Frozen, dataset_from_pairs

MAX_SAMPLES = 200_000  # draws per class; `contlab` at eps = 0.49 then takes about 10 s and 140 MB
_TAIL = Fraction(0)  # the one score of every tail draw, below each center draw's 1 + |t|


class LaplaceTieModel(_Frozen):
    """Model parameter: half-width of the uniform center, in (0, 1/2)."""

    epsilon: float
    __slots__ = _fields = tuple(__annotations__)

    def _check(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")

    @property
    def beta_star(self) -> float:
        """Flat likelihood-ratio value on the tails; the ROC jump location."""
        return (1.0 - 2.0 * self.epsilon) * math.exp(self.epsilon)

    @property
    def beta_max(self) -> float:
        """Supremum of the likelihood ratio (approached at |t| -> eps)."""
        return 2.0 * math.exp(self.epsilon)

    @property
    def area(self) -> float:
        """Area under the ROC: the smooth sweep plus the jump's balanced (midpoint) atom."""
        eps = self.epsilon
        return 2.0 * (eps - 1.0 + math.exp(-eps)) + 0.5 * (1.0 + 2.0 * eps) * math.exp(-eps)

    @property
    def pair_probability(self) -> float:
        """P(ratio of a negative draw < ratio of a positive draw): tail pairs tie, never win."""
        eps = self.epsilon
        return 2.0 * (eps - 1.0 + math.exp(-eps)) + 2.0 * eps * math.exp(-eps)

    @property
    def gap(self) -> float:
        """area - pair_probability: the tie term of the tail atom, (1/2)(1-2eps)e^-eps."""
        return 0.5 * (1.0 - 2.0 * self.epsilon) * math.exp(-self.epsilon)


class JumpCertificate(NamedTuple):
    x_minus_approx: float
    x_plus_approx: float


def exact_score(m: LaplaceTieModel, t: float) -> Fraction:
    """An exact score in the order of the likelihood ratio at t, ties included.

    A tail draw (|t| >= eps) scores 0 and a center draw 1 + |t|, exact from the float:
    the ratio is beta_star on the tails, and above that, 2*e^|t| on the center.
    """
    return _TAIL if abs(t) >= m.epsilon else 1 + Fraction(abs(t))


def rates_of_threshold(m: LaplaceTieModel, beta: float) -> tuple[float, float]:
    """(fpr, tpr): each class's mass of the strict acceptance region {ratio > beta}.

    The region is {|t| < eps, 2e^|t| > beta}, unioned with the whole tail
    {|t| >= eps} when beta < beta_star. One ladder over beta_max, 2 and
    beta_star picks the branch, and each branch gives both rates in closed
    form: a Laplace integral for the negatives, and for the positives the
    region's length inside the center, where their density is 1. Both rates
    are non-increasing in beta, 1 below beta_star and 0 at and above 2e^eps.
    """
    if beta <= 0.0:
        raise ValueError("decision threshold must be positive")
    eps = m.epsilon
    if beta >= m.beta_max:
        return 0.0, 0.0
    if beta >= 2.0:
        # center annulus ln(beta/2) < |t| < eps
        return 2.0 / beta - math.exp(-eps), 2.0 * (eps - math.log(beta / 2.0))
    if beta >= m.beta_star:
        # exactly the center; its Laplace mass is (1/2) * int_{-eps}^{eps} e^-|t| dt
        return 1.0 - math.exp(-eps), 2.0 * eps
    return 1.0, 1.0


def jump_certificate(m: LaplaceTieModel) -> JumpCertificate:
    """False positive rate at the two floats next to the jump threshold beta_star.

    Below it the rate is exactly 1; above it, exactly 1 - e^-eps, for every
    eps in (0, 1/2): beta_star is at most 1, so the next feature of the curve,
    beta = 2, is far above it.
    """
    return JumpCertificate(
        x_minus_approx=rates_of_threshold(m, math.nextafter(m.beta_star, 0.0))[0],
        x_plus_approx=rates_of_threshold(m, math.nextafter(m.beta_star, math.inf))[0],
    )


def sample(m: LaplaceTieModel, samples: int, seed: int) -> Dataset:
    """`samples` draws of each class as a Dataset whose exact scores rank like the ratio.

    Draws come from one `random.Random(seed)` in a fixed order, so the sample is
    reproducible bit-for-bit for a given seed. The ratio is even in t, so each
    draw is of |t| alone: positives are uniform on [0, eps) with probability
    2*eps and eps + Exp(1) otherwise; negatives are Exp(1). Each draw becomes its
    `exact_score`. At most MAX_SAMPLES draws of each class are allowed. The seed must
    be non-negative: `random.Random` would silently treat -s as s.
    """
    if not 0 < samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in [1, {MAX_SAMPLES}], got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    eps = m.epsilon
    rng = random.Random(seed)
    def draws():  # in the order the seed fixes: each positive, then its negative
        for _ in range(samples):
            r = rng.uniform(0.0, eps) if rng.random() < 2.0 * eps else eps + rng.expovariate(1.0)
            yield exact_score(m, r), True
            yield exact_score(m, rng.expovariate(1.0)), False
    return dataset_from_pairs(draws())
