"""Continuous-score laboratory: a likelihood-ratio ROC with a genuine jump.

Negatives are standard Laplace; positives are uniform on (-eps, eps) with
matched exponential tails outside. The likelihood ratio is then 2*e^|t| on
the center and constant at beta_star = (1-2*eps)*e^eps on the tails, so the
tails form a tie region of positive mass: the false positive rate as a
function of the decision threshold jumps from 1 down to 1 - e^-eps at
beta_star even though both class distributions have densities. This is the
continuous analog of a cross-class score tie, and the area/pair-probability
gap it produces mirrors the discrete tie correction.

Everything here is floating point with explicit tolerances, in contrast to
the exact discrete modules: closed-form Laplace integrals where possible, a
Simpson rule only inside the area consistency check. Only the standard
library is used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

SIMPSON_PANELS = 1024  # even; worst error vs the closed form 6.4e-14 for eps in [0.01, 0.499]
MAX_SAMPLES = 10**7  # Monte-Carlo draw cap: roughly 10-20 s of pure-Python draws


@dataclass(frozen=True)
class LaplaceTieModel:
    """Model parameter: half-width of the uniform center, in (0, 1/2)."""

    epsilon: float

    def __post_init__(self) -> None:
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


class JumpCertificate(NamedTuple):
    x_minus_approx: float
    x_plus_approx: float


class AreaConsistency(NamedTuple):
    area_quadrature: float
    pair_prob_mc: float
    gap: float


def likelihood_ratio(m: LaplaceTieModel, t: float) -> float:
    """Positive-to-negative density ratio at t."""
    if abs(t) < m.epsilon:
        return 2.0 * math.exp(abs(t))
    return m.beta_star


def rates_of_threshold(m: LaplaceTieModel, beta: float) -> tuple[float, float]:
    """(fpr, tpr): each class's mass of the strict acceptance region {ratio > beta}.

    The region is {|t| < eps, 2e^|t| > beta}, unioned with the whole tail
    {|t| >= eps} when beta < beta_star. One ladder over beta_max, 2 and
    beta_star picks the branch, and each branch gives both rates in closed
    form: a Laplace integral for the negatives, and for the positives the
    region's length inside the center, where their density is 1. Both rates
    are non-increasing in beta, 1 below beta_star and 0 at and above 2e^eps.
    `jump_certificate` reads the first, the area's Simpson rule the second.
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


def area_consistency_check(
    m: LaplaceTieModel, samples: int, seed: int
) -> AreaConsistency:
    """Area under the jumping ROC vs a Monte-Carlo pair probability.

    The area is the Stieltjes integral of the true positive rate against the
    decreasing false positive rate: quadrature over the smooth sweep segment
    (thresholds in [2, 2e^eps]) plus the jump atom at beta_star, where the
    integrand takes its balanced (midpoint) value. The pair probability uses
    the strict event {ratio(negative draw) < ratio(positive draw)}, so the
    tie region's mass is excluded and a strictly positive gap is expected,
    exactly as in the discrete tied case.

    Draws come from one `random.Random(seed)` in a fixed order, so the
    Monte-Carlo value is reproducible bit-for-bit for a given seed. The ratio
    is even in t, so each draw is of |t| alone: positives are uniform on
    [0, eps) with probability 2*eps and eps + Exp(1) otherwise; negatives are
    Exp(1). At most MAX_SAMPLES draws are allowed. The seed must be
    non-negative: `random.Random` would silently treat -s as s.
    """
    if not 0 < samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in [1, {MAX_SAMPLES}], got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    eps = m.epsilon

    # composite Simpson rule of d(-fpr) = 2/b^2 db weighted by tpr, on [2, 2e^eps]
    h = (m.beta_max - 2.0) / SIMPSON_PANELS
    b = [2.0 + k * h for k in range(SIMPSON_PANELS)]
    f = [rates_of_threshold(m, x)[1] * 2.0 / (x * x) for x in b]
    smooth = h / 3.0 * (f[0] + 4.0 * sum(f[1::2]) + 2.0 * sum(f[2::2]))  # f(beta_max) = 0
    # jump atom: balanced tpr times the fpr drop 1 - (1 - e^-eps)
    jump = 0.5 * (1.0 + 2.0 * eps) * math.exp(-eps)
    area = smooth + jump

    rng = random.Random(seed)
    wins = 0
    for _ in range(samples):
        r = rng.uniform(0.0, eps) if rng.random() < 2.0 * eps else eps + rng.expovariate(1.0)
        s = rng.expovariate(1.0)
        wins += likelihood_ratio(m, s) < likelihood_ratio(m, r)
    pair = wins / samples

    return AreaConsistency(area_quadrature=area, pair_prob_mc=pair, gap=area - pair)
