import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import Dataset, auc_trapezoid, roc_curve
from exactroc.roc import RocCurve
from cases import C
from datagen import random_dataset
from oracles import fpr_at, rows, tpr_at


def test_tpr_at_counterexample(counterexample):
    assert tpr_at(counterexample, C) == 1


def test_tpr_below_min_is_one(mixed):
    assert tpr_at(mixed, Fraction(-10)) == 1


def test_tpr_at_direct_count(mixed):
    # 1 of 2 positives has score >= 0.9
    assert tpr_at(mixed, Fraction(9, 10)) == Fraction(1, 2)


def test_fpr_at_counterexample(counterexample):
    assert fpr_at(counterexample, C) == 1


def test_fpr_above_max_is_zero(mixed):
    assert fpr_at(mixed, Fraction(10)) == 0


def test_fpr_at_direct_count(mixed):
    # 1 of 2 negatives has score >= 0.5
    assert fpr_at(mixed, Fraction(1, 2)) == Fraction(1, 2)


def test_curve_counterexample(counterexample):
    c = roc_curve(counterexample)
    assert c.points == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)))


def test_curve_perfectly_separated():
    c = roc_curve(Dataset(["0.9"], ["0.1"]))
    assert c.points == (
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(0)),
    )


def test_curve_mixed(mixed):
    # thresholds 0.1, 0.5, 0.9, sentinel; rates counted by hand
    c = roc_curve(mixed)
    assert c.points == (
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(0), Fraction(0)),
    )


def test_auc_counterexample(counterexample):
    assert auc_trapezoid(roc_curve(counterexample)) == Fraction(1, 2)


def test_auc_perfect():
    assert auc_trapezoid(roc_curve(Dataset(["0.9"], ["0.1"]))) == 1


def test_auc_mixed(mixed):
    # trapezoids: 1*(1/2) + (3/4)*(1/2) + 0 = 7/8
    assert auc_trapezoid(roc_curve(mixed)) == Fraction(7, 8)


def test_auc_of_a_curve_with_unrelated_denominators():
    # points (1,1), (2/3,1/2), (1/5,1/7), (0,0) as counts over 15 negatives and 14 positives
    c = RocCurve(neg_ge=(15, 10, 3, 0), pos_ge=(14, 7, 2, 0))
    assert c.points == (
        (Fraction(1), Fraction(1)),
        (Fraction(2, 3), Fraction(1, 2)),
        (Fraction(1, 5), Fraction(1, 7)),
        (Fraction(0), Fraction(0)),
    )
    # twice the area: (3/2)(1/3) + (9/14)(7/15) + (1/7)(1/5) = 1/2 + 3/10 + 1/35
    assert auc_trapezoid(c) == Fraction(29, 70)


def test_curve_rejects_bad_endpoints():
    # from (1,1) to (0,1/2) over one negative and two positives
    with pytest.raises(ValueError, match=r"from \(1,1\) to \(0,0\)"):
        RocCurve(neg_ge=(1, 0), pos_ge=(2, 1))


def test_curve_rejects_duplicate_points():
    with pytest.raises(ValueError, match="distinct"):
        RocCurve(neg_ge=(1, 1, 0), pos_ge=(1, 1, 0))


@pytest.mark.parametrize(
    ("neg_ge", "pos_ge", "message"),
    [
        ((2, 1, 0), (1, 0), "equally long"),
        ((0, 0), (1, 0), r"from \(1,1\)"),  # no negatives: the first entry is a class size
        ((2, 1, 2, 0), (1, 1, 0, 0), "non-increasing"),
        ((2, 1, 1, 0), (2, 1, 2, 0), "non-increasing"),
    ],
    ids=["unequal-lengths", "zero-class-size", "negatives-increase", "positives-increase"],
)
def test_curve_rejects_malformed_count_columns(neg_ge, pos_ge, message):
    with pytest.raises(ValueError, match=message):
        RocCurve(neg_ge=neg_ge, pos_ge=pos_ge)


@given(st.integers(0, 10**6))
def test_rates_non_increasing_in_threshold(seed):
    rng = random.Random(seed)
    d = random_dataset(rng)
    taus = sorted(rng.choice(d.counts.scores) + Fraction(k, 3) for k in range(-3, 4))
    for t1, t2 in zip(taus, taus[1:]):
        assert tpr_at(d, t1) >= tpr_at(d, t2)
        assert fpr_at(d, t1) >= fpr_at(d, t2)


@given(st.integers(0, 10**6))
def test_jumps_only_at_class_scores(seed):
    d = random_dataset(random.Random(seed), max_size=30)
    distinct = d.counts.scores
    pos_scores, neg_scores = set(d.pos_tally.scores), set(d.neg_tally.scores)
    for i, tau in enumerate(distinct):
        # probe strictly between tau and the next distinct score
        probe = (tau + distinct[i + 1]) / 2 if i + 1 < len(distinct) else tau + 1
        assert (tpr_at(d, tau) != tpr_at(d, probe)) == (tau in pos_scores)
        assert (fpr_at(d, tau) != fpr_at(d, probe)) == (tau in neg_scores)


def _increasing_map(s: Fraction) -> Fraction:
    return s**3 + 2 * s  # strictly increasing: derivative 3s^2 + 2 > 0


@given(st.integers(0, 10**6))
def test_auc_invariant_under_increasing_transform(seed):
    d = random_dataset(random.Random(seed), max_size=40)
    mapped = Dataset(
        map(_increasing_map, rows(d.pos_tally)), map(_increasing_map, rows(d.neg_tally))
    )
    assert auc_trapezoid(roc_curve(mapped)) == auc_trapezoid(roc_curve(d))


@given(st.integers(0, 10**6))
@settings(max_examples=200)
def test_auc_bounds_and_perfect_separation(seed):
    d = random_dataset(random.Random(seed), max_size=30)
    a = auc_trapezoid(roc_curve(d))
    assert 0 <= a <= 1
    assert (a == 1) == (min(d.pos_tally.scores) > max(d.neg_tally.scores))


@given(st.integers(0, 10**6))
def test_curve_points_are_the_rate_pairs_at_thresholds(seed):
    d = random_dataset(random.Random(seed), max_size=30)
    c = roc_curve(d)
    swept = []
    # the distinct scores ascending, then a sentinel strictly above the maximum
    for t in d.counts.scores + (d.counts.scores[-1] + 1,):
        pt = (fpr_at(d, t), tpr_at(d, t))
        if not swept or swept[-1] != pt:
            swept.append(pt)
    assert tuple(swept) == c.points
