import math
from functools import cache

import pytest

from exactroc import run_report
from exactroc.cli import main
from exactroc.contlab import (
    LaplaceTieModel,
    exact_score,
    jump_certificate,
    likelihood_ratio,
    rates_of_threshold,
    sample,
)

EPSILONS = [0.1, 0.25, 0.4]
# the ends of (0, 1/2): almost every pair tied, and almost none
SAMPLE_EPSILONS = [0.01, *EPSILONS, 0.49]
SAMPLES = 20_000  # draws of each class; a sample value lies within 3/sqrt(SAMPLES) of the model's


def analytic_area(eps: float) -> float:
    return 2.0 * (eps - 1.0 + math.exp(-eps)) + 0.5 * (1.0 + 2.0 * eps) * math.exp(-eps)


def analytic_pair(eps: float) -> float:
    return 2.0 * eps * math.exp(-eps) + 2.0 * (eps - 1.0 + math.exp(-eps))


def analytic_gap(eps: float) -> float:
    return 0.5 * (1.0 - 2.0 * eps) * math.exp(-eps)


@cache
def sample_report(eps: float):
    return run_report(sample(LaplaceTieModel(epsilon=eps), SAMPLES, seed=7))


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


def fpr(m, beta):
    return rates_of_threshold(m, beta)[0]


def tpr(m, beta):
    return rates_of_threshold(m, beta)[1]


def test_fpr_branches():
    m = LaplaceTieModel(epsilon=0.25)
    e = math.exp(-0.25)
    assert fpr(m, m.beta_star / 2) == 1.0
    assert fpr(m, 1.0) == 1.0 - e
    assert fpr(m, 2.0) == pytest.approx(1.0 - e, abs=1e-15)
    b = 2.0 * math.exp(0.125)
    assert fpr(m, b) == pytest.approx(math.exp(-0.125) - e, rel=1e-14)
    assert fpr(m, m.beta_max) == 0.0
    assert fpr(m, 10.0) == 0.0


def test_tpr_branches():
    m = LaplaceTieModel(epsilon=0.25)
    assert tpr(m, m.beta_star / 2) == 1.0
    assert tpr(m, 1.0) == 0.5
    b = 2.0 * math.exp(0.125)
    assert tpr(m, b) == pytest.approx(0.25, rel=1e-14)
    assert tpr(m, m.beta_max) == 0.0


@pytest.mark.parametrize("eps", EPSILONS)
def test_rates_non_increasing_in_threshold(eps):
    m = LaplaceTieModel(epsilon=eps)
    grid = [m.beta_max * k / 400 for k in range(1, 401)]
    for b1, b2 in zip(grid, grid[1:]):
        assert fpr(m, b1) >= fpr(m, b2)
        assert tpr(m, b1) >= tpr(m, b2)


def test_rate_functions_reject_nonpositive_threshold():
    m = LaplaceTieModel(epsilon=0.25)
    for b in (0.0, -1.0):
        with pytest.raises(ValueError):
            rates_of_threshold(m, b)


@pytest.mark.parametrize("eps", [*EPSILONS, 0.4999999999, math.nextafter(0.5, 0.0)])
def test_jump_certificate_brackets_the_discontinuity(eps):
    # exact at the floats next to beta_star, which is ~3e-10 and ~2e-16 at the last two
    cert = jump_certificate(LaplaceTieModel(epsilon=eps))
    assert cert == (1.0, 1.0 - math.exp(-eps))
    assert cert.x_minus_approx - cert.x_plus_approx == pytest.approx(
        math.exp(-eps), abs=1e-12
    )


def test_sweep_script_runs_next_to_the_upper_end_of_epsilon(capsys):
    # the sweep is `exactroc contlab --epsilon E [E ...]`; beta_star is ~3.3e-10 here
    assert main(["contlab", "--epsilon", "0.4999999999", "--samples", "1000"]) == 0
    value = {row[0]: float(row[-1]) for row in map(str.split, capsys.readouterr().out.splitlines())}
    assert value["epsilon"] == 0.4999999999  # printed to 17 digits, so it reads back exactly
    jump = value["fpr_below_jump"] - value["fpr_above_jump"]
    assert jump == pytest.approx(math.exp(-0.4999999999), abs=1e-12)


@pytest.mark.parametrize("eps", SAMPLE_EPSILONS)
def test_closed_forms_match_the_reference(eps):
    m = LaplaceTieModel(epsilon=eps)
    assert m.area == pytest.approx(analytic_area(eps), abs=1e-15)
    assert m.pair_probability == pytest.approx(analytic_pair(eps), abs=1e-15)
    assert m.gap == pytest.approx(analytic_gap(eps), abs=1e-15)
    assert m.area - m.pair_probability == pytest.approx(m.gap, abs=1e-15)


@pytest.mark.parametrize("eps", SAMPLE_EPSILONS)
def test_exact_score_orders_draws_as_the_likelihood_ratio(eps):
    m = LaplaceTieModel(epsilon=eps)
    below, above = math.nextafter(eps, 0.0), math.nextafter(eps, math.inf)
    draws = [0.0, eps / 3, -eps / 3, eps / 2, below, -below, eps, -eps, above, 2 * eps, 5.0, -40.0]
    for a in draws:
        for b in draws:
            ra, rb = likelihood_ratio(m, a), likelihood_ratio(m, b)
            sa, sb = exact_score(m, a), exact_score(m, b)
            assert (sa < sb) == (ra < rb), (a, b)
            assert (sa == sb) == (ra == rb), (a, b)


@pytest.mark.parametrize("eps", SAMPLE_EPSILONS)
def test_sample_auc_matches_closed_form(eps):
    r = sample_report(eps)
    assert r.auc == pytest.approx(analytic_area(eps), abs=3.0 / math.sqrt(SAMPLES))


@pytest.mark.parametrize("eps", SAMPLE_EPSILONS)
def test_pair_probability_mc_matches_closed_form(eps):
    # the sample is drawn at random; its pair probability is counted exactly over all pairs
    r = sample_report(eps)
    assert r.pair_probability == pytest.approx(analytic_pair(eps), abs=3.0 / math.sqrt(SAMPLES))


@pytest.mark.parametrize("eps", SAMPLE_EPSILONS)
def test_sample_tie_correction_matches_closed_form(eps):
    r = sample_report(eps)
    assert r.tie.correction == pytest.approx(analytic_gap(eps), abs=3.0 / math.sqrt(SAMPLES))
    assert r.auc - r.pair_probability == r.tie.correction


def test_gap_is_strictly_positive_and_near_analytic():
    r = sample_report(0.25)
    # every tail draw shares one score, so the only shared score is the tail's
    (tail,) = r.tie.shared_scores
    assert tail.score == 0
    assert r.tie.correction > 0
    assert r.tie.correction == pytest.approx(analytic_gap(0.25), abs=0.01)


def test_small_center_makes_ranking_nearly_uninformative():
    # as the center shrinks, almost all mass is tied and the pair probability
    # collapses toward 0 while the area stays near 1/2
    r = sample_report(0.01)
    assert r.pair_probability < 0.1
    assert abs(r.auc - 0.5) < 0.05


def test_area_check_is_deterministic_per_seed():
    m = LaplaceTieModel(epsilon=0.25)
    a = sample(m, samples=10_000, seed=42)
    assert a == sample(m, samples=10_000, seed=42)
    assert a != sample(m, samples=10_000, seed=43)


def test_area_check_rejects_nonpositive_samples():
    with pytest.raises(ValueError, match="samples must lie in"):
        sample(LaplaceTieModel(epsilon=0.25), samples=0, seed=0)
