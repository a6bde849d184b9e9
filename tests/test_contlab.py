import math

import pytest

from exactroc.contlab import (
    LaplaceTieModel,
    area_consistency_check,
    fpr_of_threshold,
    jump_certificate,
    likelihood_ratio,
    tpr_of_threshold,
)

EPSILONS = [0.1, 0.25, 0.4]
# the Simpson rule's error vs the closed form is largest at the ends of (0, 1/2)
QUADRATURE_EPSILONS = [0.01, *EPSILONS, 0.49]


def analytic_area(eps: float) -> float:
    return 2.0 * (eps - 1.0 + math.exp(-eps)) + 0.5 * (1.0 + 2.0 * eps) * math.exp(-eps)


def analytic_pair(eps: float) -> float:
    return 2.0 * eps * math.exp(-eps) + 2.0 * (eps - 1.0 + math.exp(-eps))


def analytic_gap(eps: float) -> float:
    return 0.5 * (1.0 - 2.0 * eps) * math.exp(-eps)


@pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, 1.0])
def test_model_rejects_bad_epsilon(eps):
    with pytest.raises(ValueError):
        LaplaceTieModel(epsilon=eps)


def test_model_derived_thresholds():
    m = LaplaceTieModel(epsilon=0.25)
    assert m.beta_star == pytest.approx(0.5 * math.exp(0.25), abs=0, rel=1e-15)
    assert m.beta_max == pytest.approx(2.0 * math.exp(0.25), abs=0, rel=1e-15)
    assert 0 < m.beta_star < 2 < m.beta_max


def test_likelihood_ratio_center_and_tails():
    m = LaplaceTieModel(epsilon=0.25)
    assert likelihood_ratio(m, 0.0) == 2.0
    assert likelihood_ratio(m, 0.2) == 2.0 * math.exp(0.2)
    assert likelihood_ratio(m, 1.0) == m.beta_star
    assert likelihood_ratio(m, -1.0) == m.beta_star


@pytest.mark.parametrize("eps", EPSILONS)
def test_likelihood_ratio_is_even(eps):
    m = LaplaceTieModel(epsilon=eps)
    for t in (0.01, eps / 2, eps, 2 * eps, 5.0):
        assert likelihood_ratio(m, t) == likelihood_ratio(m, -t)


def test_fpr_branches():
    m = LaplaceTieModel(epsilon=0.25)
    e = math.exp(-0.25)
    assert fpr_of_threshold(m, m.beta_star / 2) == 1.0
    assert fpr_of_threshold(m, 1.0) == 1.0 - e
    assert fpr_of_threshold(m, 2.0) == pytest.approx(1.0 - e, abs=1e-15)
    b = 2.0 * math.exp(0.125)
    assert fpr_of_threshold(m, b) == pytest.approx(math.exp(-0.125) - e, rel=1e-14)
    assert fpr_of_threshold(m, m.beta_max) == 0.0
    assert fpr_of_threshold(m, 10.0) == 0.0


def test_tpr_branches():
    m = LaplaceTieModel(epsilon=0.25)
    assert tpr_of_threshold(m, m.beta_star / 2) == 1.0
    assert tpr_of_threshold(m, 1.0) == 0.5
    b = 2.0 * math.exp(0.125)
    assert tpr_of_threshold(m, b) == pytest.approx(0.25, rel=1e-14)
    assert tpr_of_threshold(m, m.beta_max) == 0.0


@pytest.mark.parametrize("eps", EPSILONS)
def test_rates_non_increasing_in_threshold(eps):
    m = LaplaceTieModel(epsilon=eps)
    grid = [m.beta_max * k / 400 for k in range(1, 401)]
    for b1, b2 in zip(grid, grid[1:]):
        assert fpr_of_threshold(m, b1) >= fpr_of_threshold(m, b2)
        assert tpr_of_threshold(m, b1) >= tpr_of_threshold(m, b2)


def test_rate_functions_reject_nonpositive_threshold():
    m = LaplaceTieModel(epsilon=0.25)
    for b in (0.0, -1.0):
        with pytest.raises(ValueError):
            fpr_of_threshold(m, b)
        with pytest.raises(ValueError):
            tpr_of_threshold(m, b)


@pytest.mark.parametrize("eps", EPSILONS)
def test_jump_certificate_brackets_the_discontinuity(eps):
    m = LaplaceTieModel(epsilon=eps)
    cert = jump_certificate(m, delta=1e-9)
    assert cert.x_minus_approx == 1.0
    assert cert.x_plus_approx == pytest.approx(1.0 - math.exp(-eps), abs=1e-15)
    assert cert.x_minus_approx - cert.x_plus_approx == pytest.approx(
        math.exp(-eps), abs=1e-12
    )


def test_jump_certificate_rejects_out_of_range_delta():
    m = LaplaceTieModel(epsilon=0.25)
    for delta in (0.0, -1e-9, 0.5, m.beta_star):
        with pytest.raises(ValueError):
            jump_certificate(m, delta)


@pytest.mark.parametrize("eps", QUADRATURE_EPSILONS)
def test_area_quadrature_matches_closed_form(eps):
    m = LaplaceTieModel(epsilon=eps)
    out = area_consistency_check(m, samples=1000, seed=0)
    assert out.area_quadrature == pytest.approx(analytic_area(eps), abs=1e-9)


@pytest.mark.parametrize("eps", EPSILONS)
def test_pair_probability_mc_matches_closed_form(eps):
    m = LaplaceTieModel(epsilon=eps)
    samples = 200_000
    out = area_consistency_check(m, samples=samples, seed=7)
    assert out.pair_prob_mc == pytest.approx(
        analytic_pair(eps), abs=3.0 / math.sqrt(samples)
    )
    assert out.gap == out.area_quadrature - out.pair_prob_mc


def test_gap_is_strictly_positive_and_near_analytic():
    m = LaplaceTieModel(epsilon=0.25)
    out = area_consistency_check(m, samples=200_000, seed=11)
    assert out.gap > 0
    assert out.gap == pytest.approx(analytic_gap(0.25), abs=0.01)


def test_small_center_makes_ranking_nearly_uninformative():
    # as the center shrinks, almost all mass is tied and the pair probability
    # collapses toward 0 while the area stays near 1/2
    out = area_consistency_check(LaplaceTieModel(epsilon=0.01), samples=50_000, seed=3)
    assert out.pair_prob_mc < 0.1
    assert abs(out.area_quadrature - 0.5) < 0.05


def test_area_check_is_deterministic_per_seed():
    m = LaplaceTieModel(epsilon=0.25)
    a = area_consistency_check(m, samples=10_000, seed=42)
    b = area_consistency_check(m, samples=10_000, seed=42)
    assert a == b
    c = area_consistency_check(m, samples=10_000, seed=43)
    assert c.pair_prob_mc != a.pair_prob_mc


def test_area_check_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        area_consistency_check(LaplaceTieModel(epsilon=0.25), samples=0, seed=0)
