import contextlib
import numbers
import pickle
import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactroc import Dataset, DegenerateClassesError, dataset_from_pairs, run_report
from exactroc.core import MAX_EXPONENT, Tally, read_score, score, sorted_exact
from datagen import random_dataset
from oracles import rows


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
    assert rows(d.pos_tally) == (c,)
    assert rows(d.neg_tally) == (c,)


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
    assert d.n_pos == len(rows(d.pos_tally)) == 1
    assert (rows(d.pos_tally), rows(d.neg_tally)) == ((Fraction(1),), (Fraction(0),))
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


def test_dataset_stores_each_class_as_a_tally_of_its_values():
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    d = Dataset([half, Fraction(9, 10), half, half], [tenth, "1/2"])
    assert d.pos_tally == Tally((half, Fraction(9, 10)), (3, 1))
    assert d.pos_tally.scores[0] is half
    assert (d.n_pos, d.n_neg) == (4, 2)
    assert rows(d.pos_tally) == (half, half, half, Fraction(9, 10))  # grouped in first-seen order
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


def test_rows_given_as_text_are_one_tally_entry_per_value():
    d = dataset_from_pairs([("0.5", True)] * 1000 + [("0.1", False)])
    assert d.pos_tally == Tally((Fraction(1, 2),), (1000,))
    # a Decimal is tallied by itself, a Fraction by its ratio; the count table merges them
    d = Dataset(["0.5", Fraction(1, 2), Decimal("0.50")], ["0.1"])
    assert d.pos_tally == Tally((Fraction(1, 2), Decimal("0.50")), (2, 1))
    assert [type(s) for s in d.pos_tally.scores] == [Fraction, Decimal]
    assert d.counts[:3] == ((Fraction(1, 10), Fraction(1, 2)), (0, 3), (1, 0))


def _grid_texts(n, seed):
    """n scores on the 3-decimal grid 0.000..1.000, each a fresh str."""
    rng = random.Random(seed)
    for _ in range(n):
        k = rng.randint(0, 1000)
        yield f"{k // 1000}.{k % 1000:03d}"


def test_dataset_memory_follows_the_values_not_the_rows():
    # The rows come from generators, so nothing holds them: what either builder holds is
    # one tally entry per grid value, whatever the rows.
    builders = {
        "Dataset": lambda n: Dataset(_grid_texts(n // 2, 1), _grid_texts(n // 2, 2)),
        "dataset_from_pairs": lambda n: dataset_from_pairs(
            (text, k % 2 == 0) for k, text in enumerate(_grid_texts(n, 3))
        ),
    }
    for name, build in builders.items():
        build(5_000)  # leaves out one-time allocations
        peaks = []
        for n in (10_000, 40_000):
            tracemalloc.start()
            try:
                assert len(build(n)) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2**20 and max(peaks) <= 1.1 * min(peaks), (name, peaks)


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
    with pytest.raises(TypeError, match=r"e\.g\. 0\.2 as"):  # a bad positive is named first
        dataset_from_pairs([(0.1, False), (0.2, True)])
    with pytest.raises(TypeError, match=r"e\.g\. 0\.3 as"):  # else the first bad negative
        dataset_from_pairs([("1", True), (0.3, False), ("1/0", False), ("2", True)])
    d = Dataset(["0.5", "0.9"], ["1/2", "0.1"])
    assert d == Dataset((Fraction(1, 2), Fraction(9, 10)), (Fraction(1, 2), Fraction(1, 10)))
    r = run_report(d)
    assert (r.auc, r.pair_probability) == (Fraction(7, 8), Fraction(3, 4))
    ints = Dataset([1, 2], (0,))
    assert rows(ints.pos_tally) == (Fraction(1), Fraction(2))
    assert rows(ints.neg_tally) == (Fraction(0),)
    assert {type(s) for s in ints.pos_tally.scores + ints.neg_tally.scores} == {Fraction}
    with pytest.raises(ValueError, match="exceeds 20000 in magnitude"):
        Dataset(["1e-99999"], ["0"])
    half = Fraction(1, 2)
    # a column of Fractions keeps its objects
    assert Dataset([half], [half]).neg_tally.scores[0] is half


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
    scores = rows(d.pos_tally) + rows(d.neg_tally)
    a, b = rng.choice(scores), rng.choice(scores)
    assert sum([a < b, a == b, a > b]) == 1


@contextlib.contextmanager
def int_digit_limit(limit):
    """The interpreter's int-to-str digit limit set to `limit` inside; absent before 3.10.7."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    before = get()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


LIMIT = 640  # the lowest digit limit the interpreter takes, so long runs stay cheap
DIGITS = st.sampled_from("0123456789") | st.sampled_from("\u0663\u0667\u09eb\uff10")  # Unicode Nd
LONG_RUNS = [
    run for n in (LIMIT - 1, LIMIT, LIMIT + 1) for run in ("1" * n, "0" * (n - 1) + "7")
]
RUNS = st.text(DIGITS, max_size=5) | st.sampled_from(LONG_RUNS)
EXPONENTS = st.integers(0, 30).map(str) | st.sampled_from(
    ["19999", "20000", "20001", "020000", "99999999999", "\u0662\u0660\u0660\u0660\u0661",
     "0" * LIMIT + "5", "0" * (LIMIT - 2) + "5"]
)
NON_FINITE = ["NaN", "nan", "sNaN", "snan", "NaN12", "inf", "Inf", "-inf", "Infinity", "infinity"]
SPACE = st.sampled_from(["", " ", "\t", "\n", "\u2003", "\xa0"])


@st.composite
def score_texts(draw):
    """Score text as written in files, good and bad: decimals, ratios and what neither is."""
    kind = draw(st.sampled_from(["decimal", "ratio", "non-finite", "junk"]))
    if kind == "non-finite":
        body = draw(st.sampled_from(NON_FINITE))
    elif kind == "junk":
        body = draw(st.text(st.sampled_from("0123456789._eE+-/ nNaIif\u0663"), max_size=10))
    elif kind == "ratio":
        body = draw(RUNS) + "/" + draw(RUNS)
    else:
        body = draw(RUNS)
        if draw(st.booleans()):
            body += "." + draw(RUNS)
        if draw(st.booleans()):
            body += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
            body += draw(EXPONENTS)
    text = draw(st.sampled_from(["", "+", "-"])) + body
    for place in draw(st.lists(st.integers(0, len(text)), max_size=3)):  # separators anywhere
        text = text[:place] + "_" + text[place:]
    return draw(SPACE) + text + draw(SPACE)


def _outcome(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


TRAPS = [  # Decimal reads each of these, unlike Fraction, or reads it differently
    "1__0", "_1", "1_", "1_000", " 2.5e+1_0 ", "inf", "NaN", "sNaN", "-Infinity",
    "1" * (LIMIT + 1), "0." + "0" * LIMIT + "1", "1e" + "0" * LIMIT + "1",
    f"1e-{MAX_EXPONENT}", f"1e-{MAX_EXPONENT + 1}", "7/20", "1/0", "-0", "0e-20000",
    "\u0663.\u0667e\u0663",
]


def _with_traps(test):
    for text in TRAPS:
        test = example(text)(test)
    return test


@given(score_texts())
@settings(max_examples=600)
@_with_traps
def test_read_score_agrees_with_the_fraction_reader(text):
    with int_digit_limit(LIMIT):
        want, got = _outcome(score, text), _outcome(read_score, text)
        if isinstance(want, type):  # refused, with the same exception
            assert got is want
        else:
            assert got == want and type(got) is (Fraction if "/" in text else Decimal)
        if sys.version_info >= (3, 11):  # Fraction reads digit separators itself: score is it
            if not isinstance(want, type):
                assert Fraction(text) == want
            elif "e" not in text.lower():  # past the cap, Fraction(text) might never finish
                assert _outcome(Fraction, text) is want


def test_score_keeps_every_decimal_read_score_returns():
    # a written exponent up to MAX_EXPONENT, and 4,300 digits before and after the point
    texts = [
        f"{'9' * 4300}.{'9' * 4300}e{MAX_EXPONENT}",
        f"-0.{'0' * 4299}1e-{MAX_EXPONENT}",
        f"{'0' * 4299}1.{'0' * 4300}e-{MAX_EXPONENT}",
        f"0.{'0' * 4300}e-{MAX_EXPONENT}",
    ]
    with int_digit_limit(4300):
        for text in texts:
            value = read_score(text)
            assert isinstance(value, Decimal) and score(value) is value
            assert Dataset([value], ["0"]).pos_tally.scores[0] is value


class NoRatio(Decimal):
    """A Decimal whose integer ratio must never be asked for."""

    def as_integer_ratio(self):
        raise AssertionError("as_integer_ratio ran")


@pytest.mark.parametrize(
    "text", ["1e-999999999", "1e999999999", f"1e-{MAX_EXPONENT + 4301}", "NaN", "sNaN", "-Infinity"]
)
def test_score_refuses_a_decimal_past_its_bound_before_any_ratio(text):
    with pytest.raises(ValueError, match="is not finite with its leading digit within 10"):
        score(NoRatio(text))
    with pytest.raises(ValueError):
        Dataset([Decimal(text)], ["0"])
