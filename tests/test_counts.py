"""The per-score count table against oracles that read the raw observations.

Scores are written in several spellings of one value ("0.5", "0.50", "1/2",
"50e-2", "10/20"), so the table must group observations by exact value, not
by text or by object.
"""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import (
    Dataset,
    auc_trapezoid,
    dataset_from_pairs,
    pair_probability_fast,
    parse_input,
    roc_curve,
    tie_report,
)
from exactroc.cli import main
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
    assert (d.positives, d.negatives) == (tuple(pos_scores), tuple(neg_scores))
    assert dataset_from_pairs((spellings(k)[i], pos) for k, i, pos in rs) == d

    t = d.counts
    assert t.scores == tuple(sorted(set(pos_scores + neg_scores)))
    assert t.pos == tuple(pos_scores.count(s) for s in t.scores)
    assert t.neg == tuple(neg_scores.count(s) for s in t.scores)
    assert (d.n_pos, d.n_neg) == (n_pos, n_neg)

    curve = roc_curve(d)
    assert list(curve.points) == _dedupe(
        [(fpr_at(d, tau), tpr_at(d, tau)) for tau in t.scores + (t.scores[-1] + 1,)]
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


def test_scores_past_the_float_range_keep_their_exact_order(tmp_path, capsys):
    # float() overflows on +-1e400, so the table skips its float presort and
    # relies on the exact sort alone
    pos = ["1e400", "0.5", "-1e400", "0.5"]
    neg = ["-1e400", "0.5", "1e-400", "2"]
    text = "".join(f"{s},1\n" for s in pos) + "".join(f"{s},0\n" for s in neg)
    scores = parse_input(text).counts.scores
    assert all(a < b for a, b in zip(scores, scores[1:]))
    assert scores == tuple(sorted(set(map(Fraction, pos + neg))))

    path = tmp_path / "huge.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    # 8 strict wins and 3 ties (-1e400 once, 0.5 twice) over 16 pairs
    assert (report["auc"], report["pair_probability"], report["tie_correction"]) == (
        "19/32",
        "1/2",
        "3/32",
    )
    assert [s["score"] for s in report["shared_scores"]] == ["-1" + "0" * 400 + "/1", "1/2"]
    assert main(["check", "--input", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 7 and all(row.startswith("ok    ") for row in rows)


@pytest.mark.parametrize(
    ("pos", "neg"),
    [
        # equal as floats, not exactly: only the exact sort after the float presort orders them
        (["0.10000000000000000001", "0.1", "0.3"], ["0.10000000000000000001", "0.1", "0"]),
        # float() overflows: the presort is skipped and the exact sort alone orders them
        (["1e400", "0.5", "-1e400"], ["1e400", "-1e400", "0.5", "2", "-1e400"]),
    ],
)
def test_sorted_merge_oracle_where_float_order_is_not_exact_order(pos, neg):
    d = Dataset(pos, neg)
    assert pair_probability_sorted(d) == pair_probability_bruteforce(d)
