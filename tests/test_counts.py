"""The per-score count table against oracles that read the raw observations.

Scores are written in several spellings of one value ("0.5", "0.50", "1/2",
"50e-2", "10/20"), so the table must group observations by exact value, not
by text or by object.
"""

from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import (
    auc_trapezoid,
    pair_probability_fast,
    parse_input,
    roc_curve,
    tie_report,
)
from exactroc.pairwise import (
    hypothesis_holds,
    pair_probability_bruteforce,
    pair_probability_sorted,
)
from exactroc.roc import fpr_at, tpr_at
from exactroc.stieltjes import rate_step_function

DEN = 20  # every value k/20 has a terminating decimal expansion


def spellings(k: int) -> list[str]:
    """Distinct texts that all parse to exactly k/20."""
    decimal = str(Decimal(k) / DEN)
    return [
        decimal,
        decimal + "0" if "." in decimal else decimal + ".0",
        str(Fraction(k, DEN)),
        f"{k}/{DEN}",
        f"{5 * k}e-2",
    ]


rows = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 4), st.booleans()), min_size=2, max_size=40
).filter(lambda rs: len({pos for _, _, pos in rs}) == 2)


def _dedupe(points):
    return [p for i, p in enumerate(points) if i == 0 or points[i - 1] != p]


@given(rows)
@settings(max_examples=300)
def test_table_views_match_raw_observation_oracles(rs):
    d = parse_input("".join(f"{spellings(k)[i]},{int(pos)}\n" for k, i, pos in rs))
    pos_scores = [Fraction(k, DEN) for k, _, pos in rs if pos]
    neg_scores = [Fraction(k, DEN) for k, _, pos in rs if not pos]
    n_pos, n_neg = len(pos_scores), len(neg_scores)

    t = d.counts
    assert t.scores == d.distinct_scores == tuple(sorted(set(pos_scores + neg_scores)))
    assert t.pos == tuple(pos_scores.count(s) for s in t.scores)
    assert t.neg == tuple(neg_scores.count(s) for s in t.scores)
    assert (d.n_pos, d.n_neg) == (n_pos, n_neg)

    curve = roc_curve(d)
    assert list(curve.points) == _dedupe(
        [(fpr_at(d, tau), tpr_at(d, tau)) for tau in curve.thresholds]
    )

    assert pair_probability_fast(d) == pair_probability_bruteforce(d)
    assert pair_probability_sorted(d) == pair_probability_bruteforce(d)

    shared = sorted(set(pos_scores) & set(neg_scores))
    r = tie_report(d)
    assert [(s.score, s.pos_mass, s.neg_mass) for s in r.shared_scores] == [
        (s, Fraction(pos_scores.count(s), n_pos), Fraction(neg_scores.count(s), n_neg))
        for s in shared
    ]
    ties = sum(pos_scores.count(s) * neg_scores.count(s) for s in shared)
    assert r.correction == Fraction(ties, 2 * n_pos * n_neg)
    # Mann-Whitney with mid-rank ties
    wins = sum(p > q for p in pos_scores for q in neg_scores)
    assert auc_trapezoid(curve) == Fraction(2 * wins + ties, 2 * n_pos * n_neg)
    assert hypothesis_holds(d) == (not shared)

    probes = [s + Fraction(dx, 2 * DEN) for s in t.scores for dx in (-1, 0, 1)]
    for side, scores, rate_at in (
        ("positive", pos_scores, tpr_at),
        ("negative", neg_scores, fpr_at),
    ):
        g = rate_step_function(d, side)
        for x in probes:
            assert g.left_limit(x) == rate_at(d, x)
            assert g.right_limit(x) == Fraction(sum(s > x for s in scores), len(scores))
