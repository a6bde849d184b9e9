import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactroc import Dataset, DegenerateClassesError, dataset_from_classes, dataset_from_pairs
from exactroc.core import class_measures, rational, score
from datagen import random_dataset


@pytest.mark.parametrize(
    ("num", "den", "expected"),
    [
        (2, 4, Fraction(1, 2)),
        (0, 7, Fraction(0, 1)),
        (-3, -6, Fraction(1, 2)),
    ],
)
def test_rational_normalization(num, den, expected):
    q = rational(num, den)
    assert q == expected
    assert q.denominator > 0
    # stored reduced
    import math

    assert math.gcd(abs(q.numerator), q.denominator) == 1


def test_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


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
        ((), "dataset is empty"),
        (((Fraction(1, 2), False),), "dataset has no positive observation"),
        (((Fraction(1, 2), True), (Fraction(1, 3), True)), "dataset has no negative observation"),
    ],
)
def test_dataset_checks_both_classes_itself(observations, message):
    with pytest.raises(DegenerateClassesError, match=f"^{message}$"):
        Dataset(observations)


def test_four_element_construction():
    d = dataset_from_pairs(
        [("0.9", True), ("0.4", True), ("0.6", False), ("0.2", False)]
    )
    assert len(d) == 4
    assert d.n_pos == 2 and d.n_neg == 2


def test_duplicates_count_with_multiplicity():
    d = dataset_from_classes(["0.5", "0.5", "0.5"], ["0.1"])
    assert d.n_pos == 3
    assert class_measures(d) == (Fraction(3, 4), Fraction(1, 4))


@pytest.mark.parametrize(
    ("pos", "neg", "expected"),
    [
        (["0.35"], ["0.35"], (Fraction(1, 2), Fraction(1, 2))),
        (["0.5", "0.9"], ["0.5", "0.1"], (Fraction(1, 2), Fraction(1, 2))),
        (["0.8"], ["0.1", "0.2", "0.3"], (Fraction(1, 4), Fraction(3, 4))),
    ],
)
def test_class_measures(pos, neg, expected):
    assert class_measures(dataset_from_classes(pos, neg)) == expected


@given(st.integers(0, 10**6))
def test_class_measures_sum_to_one(seed):
    d = random_dataset(random.Random(seed))
    mu_p, mu_n = class_measures(d)
    assert mu_p + mu_n == 1
    assert mu_p > 0 and mu_n > 0


@given(st.integers(), st.integers(), st.integers(min_value=1), st.integers(min_value=1))
def test_rational_arithmetic_matches_integer_identities(a, b, c, d):
    # a/c + b/d == (ad + bc)/(cd), a/c * b/d == ab/cd, by cross multiplication
    x, y = Fraction(a, c), Fraction(b, d)
    assert x + y == Fraction(a * d + b * c, c * d)
    assert x * y == Fraction(a * b, c * d)
    assert x + y == y + x
    assert x * y == y * x


@given(st.integers(0, 10**6))
def test_score_order_trichotomy(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, max_size=12)
    scores = [s for s, _ in d.observations]
    a, b = rng.choice(scores), rng.choice(scores)
    assert sum([a < b, a == b, a > b]) == 1
