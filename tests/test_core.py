import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactroc import Dataset, DegenerateClassesError, dataset_from_classes, dataset_from_pairs
from exactroc.core import score
from datagen import random_dataset


def test_score_parses_decimal_text_exactly():
    assert score("0.35") == Fraction(7, 20)
    assert score("-2") == Fraction(-2)
    assert score("1e-3") == Fraction(1, 1000)
    assert score(3) == Fraction(3)
    assert score(Fraction(7, 20)) == Fraction(7, 20)


def test_score_rejects_floats():
    with pytest.raises(TypeError):
        score(0.35)


def test_counterexample_dataset_is_valid():
    c = score("0.35")
    d = dataset_from_pairs([(c, True), (c, False)])
    assert len(d) == 2
    assert d.positives == (c,)
    assert d.negatives == (c,)


def test_single_class_is_degenerate():
    with pytest.raises(DegenerateClassesError):
        dataset_from_pairs([("0.5", True)])
    with pytest.raises(DegenerateClassesError):
        dataset_from_pairs([("0.5", False), ("0.2", False)])
    with pytest.raises(DegenerateClassesError):
        dataset_from_pairs([])


@pytest.mark.parametrize(
    ("observations", "message"),
    [
        (((), ()), "dataset is empty"),
        (((), (Fraction(1, 2),)), "dataset has no positive observation"),
        (((Fraction(1, 2), Fraction(1, 3)), ()), "dataset has no negative observation"),
    ],
)
def test_dataset_checks_both_classes_itself(observations, message):
    positives, negatives = observations
    with pytest.raises(DegenerateClassesError, match=f"^{message}$"):
        Dataset(positives, negatives)


def test_four_element_construction():
    d = dataset_from_pairs(
        [("0.9", True), ("0.4", True), ("0.6", False), ("0.2", False)]
    )
    assert len(d) == 4
    assert d.n_pos == 2 and d.n_neg == 2


def test_duplicates_count_with_multiplicity():
    d = dataset_from_classes(["0.5", "0.5", "0.5"], ["0.1"])
    assert d.n_pos == 3
    assert (d.n_neg, len(d)) == (1, 4)


@given(st.integers(0, 10**6))
def test_score_order_trichotomy(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, max_size=12)
    scores = d.positives + d.negatives
    a, b = rng.choice(scores), rng.choice(scores)
    assert sum([a < b, a == b, a > b]) == 1
