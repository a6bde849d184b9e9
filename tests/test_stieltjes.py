import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import Dataset, auc_trapezoid, roc_curve
from exactroc.pairwise import pair_probability_bruteforce
from exactroc.stieltjes import (
    AtomicMeasure,
    StepFunction,
    integrate,
    negative_differential,
    rate_step_function,
)
from cases import C
from datagen import random_dataset
from oracles import balanced, fpr_at, left_limit, right_limit, tpr_at, value_at


def test_positive_rate_function_table(mixed):
    g = rate_step_function(mixed, "positive")
    assert g.breakpoints == (Fraction(1, 2), Fraction(9, 10))
    assert g.values == (Fraction(1), Fraction(1, 2), Fraction(0))


def test_negative_rate_function_table(mixed):
    g = rate_step_function(mixed, "negative")
    assert g.breakpoints == (Fraction(1, 10), Fraction(1, 2))
    assert g.values == (Fraction(1), Fraction(1, 2), Fraction(0))


def test_limits_at_single_jump(counterexample):
    g = rate_step_function(counterexample, "positive")
    assert left_limit(g, C) == 1
    assert value_at(g, C) == 1
    assert right_limit(g, C) == 0
    assert balanced(g, C) == Fraction(1, 2)


def test_limits_away_from_jumps(mixed):
    g = rate_step_function(mixed, "positive")
    x = Fraction(7, 10)  # strictly between the two breakpoints
    assert (
        left_limit(g, x) == value_at(g, x) == right_limit(g, x) == balanced(g, x) == Fraction(1, 2)
    )


def test_negative_differential_single_atom(counterexample):
    m = negative_differential(rate_step_function(counterexample, "negative"))
    assert m.atoms == ((C, Fraction(1)),)
    assert sum(w for _, w in m.atoms) == 1


def test_negative_differential_two_atoms(mixed):
    m = negative_differential(rate_step_function(mixed, "negative"))
    assert m.atoms == ((Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))


def test_equal_jumps_share_one_weight_object():
    # 50 distinct positive scores: every jump of the positive rate is 1/50
    d = Dataset([str(k) for k in range(50)], ["0.5", "1.5"])
    m = negative_differential(rate_step_function(d, "positive"))
    assert len(m.atoms) == 50 and {w for _, w in m.atoms} == {Fraction(1, 50)}
    assert len({id(w) for _, w in m.atoms}) == 1


def test_negative_differential_of_constant_is_empty():
    g = StepFunction(breakpoints=(), values=(Fraction(3, 4),))
    m = negative_differential(g)
    assert m.atoms == ()
    assert sum(w for _, w in m.atoms) == 0


def test_integrate_balanced_counterexample(counterexample):
    t = rate_step_function(counterexample, "positive")
    m = negative_differential(rate_step_function(counterexample, "negative"))
    assert integrate("balanced", t, m) == Fraction(1, 2)
    assert integrate("right", t, m) == 0


def test_integrate_balanced_mixed(mixed):
    t = rate_step_function(mixed, "positive")
    m = negative_differential(rate_step_function(mixed, "negative"))
    assert integrate("balanced", t, m) == Fraction(7, 8)
    assert integrate("right", t, m) == Fraction(3, 4)


@pytest.mark.parametrize("side", ["pos", "Positive", "", None])
def test_rate_step_function_rejects_an_unknown_side(mixed, side):
    with pytest.raises(ValueError) as exc:
        rate_step_function(mixed, side)
    assert str(exc.value) == f"side must be 'positive' or 'negative', not {side!r}"


@pytest.mark.parametrize("variant", ["left", "middle", "Right", "", None])
def test_integrate_rejects_an_unknown_variant(mixed, variant):
    t = rate_step_function(mixed, "positive")
    m = negative_differential(rate_step_function(mixed, "negative"))
    with pytest.raises(ValueError) as exc:
        integrate(variant, t, m)
    assert str(exc.value) == (
        f"variant must be 'right' or 'balanced', not {variant!r}"
    )


def test_step_function_rejects_silent_breakpoints():
    with pytest.raises(ValueError):
        StepFunction(
            breakpoints=(Fraction(1), Fraction(2), Fraction(3)),
            values=(Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)),
        )


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(breakpoints=(Fraction(1),), values=(Fraction(1),))
    with pytest.raises(ValueError):
        StepFunction(breakpoints=(Fraction(2), Fraction(1)), values=(1, 1, 1))
    with pytest.raises(ValueError):
        StepFunction(breakpoints=(Fraction(1),), values=(Fraction(0), Fraction(1)))


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((Fraction(1), Fraction(0)),))


@given(st.integers(0, 10**6))
@settings(max_examples=300)
def test_balanced_integral_equals_trapezoidal_area(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, force_tie=rng.random() < 0.5)
    t = rate_step_function(d, "positive")
    m = negative_differential(rate_step_function(d, "negative"))
    assert integrate("balanced", t, m) == auc_trapezoid(roc_curve(d))
    for variant, pointwise in (("right", right_limit), ("balanced", balanced)):
        assert integrate(variant, t, m) == sum(w * pointwise(t, a) for a, w in m.atoms)


@st.composite
def step_function_and_measure(draw):
    """Any step function and atomic measure, not a rate function and its own differential.

    Breakpoints sit on the half grid of [-4, 4] and atoms on the quarter grid of [-5, 5],
    so an atom falls left of, on, between or right of the breakpoints. Values and weights
    are drawn apart from each other and from the grid; atoms may be Decimals.
    """
    bps = [Fraction(k, 2) for k in sorted(draw(st.sets(st.integers(-8, 8), max_size=6)))]
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=40)
    values = draw(st.sets(rational, min_size=len(bps) + 1, max_size=len(bps) + 1))
    locs = sorted(draw(st.sets(st.integers(-20, 20), max_size=12)))
    as_decimal = draw(st.booleans())
    weight = st.fractions(min_value=Fraction(1, 97), max_value=3, max_denominator=97)
    atoms = [(Decimal(j) / 4 if as_decimal else Fraction(j, 4), draw(weight)) for j in locs]
    return (
        StepFunction(breakpoints=tuple(bps), values=tuple(sorted(values, reverse=True))),
        AtomicMeasure(atoms=tuple(atoms)),
    )


@given(step_function_and_measure())
@settings(max_examples=300)
def test_integrate_is_the_pointwise_sum_for_any_step_function_and_measure(gm):
    g, m = gm
    for variant, pointwise in (("right", right_limit), ("balanced", balanced)):
        assert integrate(variant, g, m) == sum(w * pointwise(g, a) for a, w in m.atoms)


@given(st.integers(0, 10**6))
@settings(max_examples=300)
def test_right_integral_equals_pair_probability(seed):
    rng = random.Random(seed)
    d = random_dataset(rng, max_size=40, force_tie=rng.random() < 0.5)
    t = rate_step_function(d, "positive")
    m = negative_differential(rate_step_function(d, "negative"))
    assert integrate("right", t, m) == pair_probability_bruteforce(d)


@given(st.integers(0, 10**6))
def test_variants_agree_on_disjoint_classes(seed):
    d = random_dataset(random.Random(seed), disjoint=True)
    t = rate_step_function(d, "positive")
    m = negative_differential(rate_step_function(d, "negative"))
    assert integrate("balanced", t, m) == integrate("right", t, m)


@given(st.integers(0, 10**6))
def test_rate_measure_has_unit_mass(seed):
    d = random_dataset(random.Random(seed))
    for side in ("positive", "negative"):
        m = negative_differential(rate_step_function(d, side))
        assert sum(w for _, w in m.atoms) == 1


@given(st.integers(0, 10**6))
def test_rate_functions_agree_with_rate_counts(seed):
    d = random_dataset(random.Random(seed), max_size=30)
    t = rate_step_function(d, "positive")
    f = rate_step_function(d, "negative")
    probes = list(d.counts.scores)
    probes += [a + Fraction(1, 999) for a in probes] + [probes[0] - 1, probes[-1] + 1]
    for x in probes:
        assert value_at(t, x) == tpr_at(d, x)
        assert value_at(f, x) == fpr_at(d, x)


@given(st.integers(0, 10**6))
def test_one_sided_limits_ordering(seed):
    d = random_dataset(random.Random(seed), max_size=30)
    g = rate_step_function(d, "positive")
    for x in g.breakpoints:
        assert left_limit(g, x) == value_at(g, x)
        assert left_limit(g, x) > right_limit(g, x)
        assert right_limit(g, x) < balanced(g, x) < left_limit(g, x)
