import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactroc import Dataset, DegenerateClassesError, dataset_from_pairs, run_report
from exactroc.core import MAX_EXPONENT, score
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


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_score_exponent_magnitude_is_capped(sign):
    assert MAX_EXPONENT == 20_000
    assert score(f"1e{sign}20000") == Fraction(10) ** int(f"{sign}20000")
    assert score(f"2.5E{sign}2_0000") == Fraction(5, 2) * Fraction(10) ** int(f"{sign}20000")
    # one past the cap, spelled plainly, with underscores, and in Arabic-Indic digits
    for exponent in ("20001", "2_0001", "٢٠٠٠١", "99999999999"):
        with pytest.raises(ValueError, match="exceeds 20000 in magnitude"):
            score(f"1e{sign}{exponent}")


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
    for columns in ((positives, negatives), (iter(positives), iter(negatives))):
        with pytest.raises(DegenerateClassesError, match=f"^{message}$"):
            Dataset(*columns)


def test_dataset_keeps_its_own_tuple_of_each_column():
    positives = [Fraction(1)]
    d = Dataset(positives, [Fraction(0)])
    assert d.n_pos == 1
    positives.append(Fraction(2))
    assert d.n_pos == len(d.positives) == 1
    assert (d.positives, d.negatives) == ((Fraction(1),), (Fraction(0),))
    assert hash(d) == hash(Dataset((Fraction(1),), (Fraction(0),)))


def test_dataset_reads_its_columns_through_score():
    def from_pairs(positives, negatives):
        return dataset_from_pairs([(s, True) for s in positives] + [(s, False) for s in negatives])

    # a float was rounded to binary before it got here, so it is refused, as by score()
    floats = [(((0.1, 0.5), (0.5, 0.2)), "0.1"), (((Fraction(1),), (0.25,)), "0.25")]
    for build in (Dataset, from_pairs):
        for columns, shown in floats:
            with pytest.raises(TypeError) as exc:
                build(*columns)
            assert str(exc.value) == (
                "float scores are not accepted; pass the decimal text instead "
                f"(e.g. {shown} as a string)"
            )
    with pytest.raises(TypeError, match=r"e\.g\. 0\.2 as"):  # the columns are read in turn
        dataset_from_pairs([(0.1, False), (0.2, True)])
    d = Dataset(["0.5", "0.9"], ["1/2", "0.1"])
    assert d == Dataset((Fraction(1, 2), Fraction(9, 10)), (Fraction(1, 2), Fraction(1, 10)))
    r = run_report(d)
    assert (r.auc, r.pair_probability) == (Fraction(7, 8), Fraction(3, 4))
    ints = Dataset([1, 2], (0,))
    assert (ints.positives, ints.negatives) == ((Fraction(1), Fraction(2)), (Fraction(0),))
    assert {type(s) for s in ints.positives + ints.negatives} == {Fraction}
    with pytest.raises(ValueError, match="exceeds 20000 in magnitude"):
        Dataset(["1e-99999"], ["0"])
    half = Fraction(1, 2)
    assert Dataset([half], [half]).negatives[0] is half  # a column of Fractions keeps its objects


def test_four_element_construction():
    d = dataset_from_pairs(
        [("0.9", True), ("0.4", True), ("0.6", False), ("0.2", False)]
    )
    assert len(d) == 4
    assert d.n_pos == 2 and d.n_neg == 2


def test_duplicates_count_with_multiplicity():
    d = Dataset(["0.5", "0.5", "0.5"], ["0.1"])
    assert d.n_pos == 3
    assert (d.n_neg, len(d)) == (1, 4)


@given(st.integers(0, 10**6))
def test_score_order_trichotomy(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, max_size=12)
    scores = d.positives + d.negatives
    a, b = rng.choice(scores), rng.choice(scores)
    assert sum([a < b, a == b, a > b]) == 1
