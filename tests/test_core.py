import numbers
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactroc import Dataset, DegenerateClassesError, dataset_from_pairs, run_report
from exactroc.core import MAX_EXPONENT, Tally, score, sorted_exact
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


class BinaryReal:
    """Stands in for a binary floating-point type such as numpy.float32: a real number
    whose text ("0.1") is not its value."""

    def __str__(self):
        return "0.1"


numbers.Real.register(BinaryReal)


def test_score_rejects_every_binary_floating_point_type():
    with pytest.raises(TypeError, match=r"^BinaryReal scores are not accepted; .*\(e\.g\. 0\.1 as"):
        score(BinaryReal())
    with pytest.raises(TypeError, match="^BinaryReal scores"):
        Dataset([BinaryReal()], ["0.5"])
    # a Decimal is exact, so it is read through its text
    assert score(Decimal("0.1")) == Fraction(1, 10)


def test_score_rejects_numpy_floats_and_reads_numpy_integers():
    numpy = pytest.importorskip("numpy")
    with pytest.raises(TypeError, match="^float32 scores are not accepted"):
        score(numpy.float32(0.1))  # its value is 13421773/134217728, not 1/10
    assert score(numpy.int64(-3)) == Fraction(-3)


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


@pytest.mark.parametrize("text", ["12", b"12"], ids=["str", "bytes"])
def test_dataset_rejects_a_column_that_is_text(text):
    # iterated, "12" would be the scores 1 and 2, and b"12" the scores 49 and 50
    kind = type(text).__name__
    with pytest.raises(TypeError, match=f"^positives must be an iterable of scores, not {kind}$"):
        Dataset(text, ["3"])
    with pytest.raises(TypeError, match=f"^negatives must be an iterable of scores, not {kind}$"):
        Dataset(["1", "2"], text)


def test_dataset_keeps_its_own_tuple_of_each_column():
    positives = [Fraction(1)]
    d = Dataset(positives, [Fraction(0)])
    assert d.n_pos == 1
    positives.append(Fraction(2))
    assert d.n_pos == len(d.positives) == 1
    assert (d.positives, d.negatives) == ((Fraction(1),), (Fraction(0),))
    assert hash(d) == hash(Dataset((Fraction(1),), (Fraction(0),)))


def test_sorted_exact_orders_pairs_by_their_first_element_exactly():
    # 1 + 2**-60 and 1 round to the same float; 10**400 overflows one, so only the exact
    # sort runs; equal first elements keep their order, and the second never decides
    near, big = 1 + Fraction(1, 2**60), Fraction(10**400)
    pairs = [(near, "a"), (Fraction(1), "z"), (big, 0), (Fraction(1), "b")]
    assert sorted_exact(iter(pairs)) == [pairs[1], pairs[3], pairs[0], pairs[2]]
    assert sorted_exact(pairs[:2]) == [pairs[1], pairs[0]]


def test_dataset_repr_shows_the_tallies_not_the_rows():
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    d = Dataset(Tally((half, tenth), (10**5, 1)), Tally((tenth,), (10**5,)))
    text = repr(d)
    assert len(text) < 200
    assert eval(text, {"Dataset": Dataset, "Tally": Tally, "Fraction": Fraction}) == d


def test_dataset_stores_each_class_as_a_tally_of_its_score_objects():
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    d = Dataset([half, Fraction(9, 10), half, half], [tenth, "1/2"])
    assert d.pos_tally == Tally((half, Fraction(9, 10)), (3, 1))
    assert d.pos_tally.scores[0] is half
    assert (d.n_pos, d.n_neg) == (4, 2)
    assert d.positives == (half, half, half, Fraction(9, 10))  # grouped in first-seen order
    # a class may be given counted; equal measures make equal datasets, in any row order
    counted = Dataset(Tally((Fraction(9, 10), half), (1, 3)), Tally(("0.1", half), (1, 1)))
    assert counted == d and hash(counted) == hash(d)
    assert pickle.loads(pickle.dumps(counted)).neg_tally == Tally((tenth, half), (1, 1))
    assert counted == Dataset(["0.9", "0.5", "1/2", "0.50"], ["1/2", "0.1"])
    assert counted != Dataset(["0.9", "0.5", "1/2"], ["1/2", "0.1"])
    for bad in (Tally((half,), (1, 1)), Tally((half,), (0,)), Tally((half, tenth), (2, -1))):
        with pytest.raises(ValueError, match="^negatives must pair each score with a positive"):
            Dataset([half], bad)
    with pytest.raises(TypeError):
        Dataset([half], Tally((half,), (1.0,)))
    with pytest.raises(DegenerateClassesError, match="^dataset has no positive observation$"):
        Dataset(Tally((), ()), [half])


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
