import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import (
    Dataset,
    auc_trapezoid,
    pair_probability_fast,
    roc_curve,
    tie_report,
)
from exactroc.pairwise import (
    SharedScore,
    TieReport,
    hypothesis_holds,
    pair_probability_bruteforce,
)
from cases import C
from datagen import random_dataset
from oracles import rows


def test_bruteforce_tied_pair_is_zero(counterexample):
    assert pair_probability_bruteforce(counterexample) == 0


def test_bruteforce_separated_pair_is_one():
    d = Dataset(["0.9"], ["0.1"])
    assert pair_probability_bruteforce(d) == 1


def test_bruteforce_mixed(mixed):
    # pairs: (0.5,0.5) loses, (0.5,0.1), (0.9,0.5), (0.9,0.1) win
    assert pair_probability_bruteforce(mixed) == Fraction(3, 4)


def test_fast_matches_on_examples(counterexample, mixed):
    for d in (counterexample, mixed, Dataset(["0.8", "0.4"], ["0.6", "0.2"])):
        assert pair_probability_fast(d) == pair_probability_bruteforce(d)


def test_tie_report_counterexample(counterexample):
    r = tie_report(counterexample)
    assert r.shared_scores == (SharedScore(C, 1, 1),)
    assert r.correction == Fraction(1, 2)
    assert r.bound == Fraction(1, 2)


def test_tie_report_disjoint_is_trivial():
    # the three fields, and nothing more
    assert tie_report(Dataset(["0.8", "0.4"], ["0.6", "0.2"])) == TieReport((), 0, 0)


def test_tie_report_mixed(mixed):
    r = tie_report(mixed)
    assert r.shared_scores == (SharedScore(Fraction(1, 2), 1, 1),)
    assert r.correction == Fraction(1, 8)
    assert r.bound == Fraction(1, 4)


def test_hypothesis_holds(counterexample, mixed):
    assert not hypothesis_holds(counterexample)
    assert not hypothesis_holds(mixed)
    assert hypothesis_holds(Dataset(["0.8", "0.4"], ["0.6", "0.2"]))


@given(st.integers(0, 10**6))
@settings(max_examples=300)
def test_fast_equals_bruteforce(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, force_tie=rng.random() < 0.5)
    assert pair_probability_fast(d) == pair_probability_bruteforce(d)


@given(st.integers(0, 10**6))
def test_auc_equals_pair_probability_when_disjoint(seed):
    d = random_dataset(random.Random(seed), disjoint=True)
    assert hypothesis_holds(d)
    assert auc_trapezoid(roc_curve(d)) == pair_probability_fast(d)


@given(st.integers(0, 10**6))
def test_correction_closes_the_gap(seed):
    d = random_dataset(random.Random(seed), force_tie=True)
    r = tie_report(d)
    gap = auc_trapezoid(roc_curve(d)) - pair_probability_fast(d)
    assert gap == r.correction
    assert 0 <= r.correction <= r.bound <= Fraction(1, 2)


@given(st.integers(0, 10**6))
def test_gap_zero_iff_no_shared_scores(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, force_tie=rng.random() < 0.5)
    gap = auc_trapezoid(roc_curve(d)) - pair_probability_fast(d)
    assert (gap == 0) == hypothesis_holds(d)


def _increasing_map(s: Fraction) -> Fraction:
    return Fraction(7) * s - Fraction(3, 5)


@given(st.integers(0, 10**6))
def test_pair_quantities_invariant_under_increasing_transform(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, max_size=40, force_tie=rng.random() < 0.5)
    mapped = Dataset(
        map(_increasing_map, rows(d.pos_tally)), map(_increasing_map, rows(d.neg_tally))
    )
    assert pair_probability_fast(mapped) == pair_probability_fast(d)
    assert tie_report(mapped).correction == tie_report(d).correction
    assert tie_report(mapped).bound == tie_report(d).bound
