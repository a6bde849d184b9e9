"""The per-score count table against oracles that read the class tallies or the rows.

Scores are written in several spellings of one value ("0.5", "0.50", "1/2",
"50e-2", "10/20"), so the table must group observations by exact value, not
by text or by object.
"""

import json
import random
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
from exactroc.report import _tally_side, emit_report, identity_suite, run_report
from exactroc.pairwise import hypothesis_holds, pair_probability_bruteforce
from exactroc.stieltjes import rate_step_function
from oracles import fpr_at, left_limit, right_limit, rows, tpr_at

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


text_rows = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 4), st.booleans()), min_size=2, max_size=40
).filter(lambda rs: len({pos for _, _, pos in rs}) == 2)


def merged_pair_probability(d):
    """W / (n_pos * n_neg), with the wins W that `check` counts from the two sorted class
    tallies, apart from the count table."""
    return Fraction(_tally_side(d)[1], d.n_pos * d.n_neg)


def _dedupe(points):
    return [p for i, p in enumerate(points) if i == 0 or points[i - 1] != p]


@given(text_rows)
@settings(max_examples=300)
def test_table_views_match_raw_observation_oracles(rs):
    d = parse_input("".join(f"{spellings(k)[i]},{int(pos)}\n" for k, i, pos in rs))
    pos_scores = [Fraction(k, DEN) for k, _, pos in rs if pos]
    neg_scores = [Fraction(k, DEN) for k, _, pos in rs if not pos]
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    # a tally groups equal texts, so only the multisets of rows are pinned
    assert sorted(rows(d.pos_tally)) == sorted(pos_scores)
    assert sorted(rows(d.neg_tally)) == sorted(neg_scores)
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
    assert merged_pair_probability(d) == pair_probability_bruteforce(d)

    shared = sorted(set(pos_scores) & set(neg_scores))
    r = tie_report(d)
    assert r.shared_scores == tuple((s, pos_scores.count(s), neg_scores.count(s)) for s in shared)
    ties = sum(pos_scores.count(s) * neg_scores.count(s) for s in shared)
    assert r.correction == Fraction(ties, 2 * n_pos * n_neg)
    # Mann-Whitney with mid-rank ties
    wins = sum(p > q for p in pos_scores for q in neg_scores)
    assert auc_trapezoid(curve) == Fraction(2 * wins + ties, 2 * n_pos * n_neg)
    assert hypothesis_holds(d) == (not shared)
    assert all(ok for _, ok, _ in identity_suite(d))

    probes = [Fraction(s) + Fraction(dx, 2 * DEN) for s in t.scores for dx in (-1, 0, 1)]
    for side, scores, rate_at in (
        ("positive", pos_scores, tpr_at),
        ("negative", neg_scores, fpr_at),
    ):
        g = rate_step_function(d, side)
        for x in probes:
            assert left_limit(g, x) == rate_at(d, x)
            assert right_limit(g, x) == Fraction(sum(s > x for s in scores), len(scores))


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
    assert merged_pair_probability(d) == pair_probability_bruteforce(d)


# One value under several spellings, next to a few others, so rows tie within a class,
# across the classes, and across spellings of one value.
TALLY_TEXTS = ("0.5", "1/2", "50e-2", "0", "1", "0.25", "-3/4")
tally_rows = st.lists(
    st.tuples(st.sampled_from(TALLY_TEXTS), st.booleans()), min_size=2, max_size=40
).filter(lambda rs: len({pos for _, pos in rs}) == 2)


def _outputs(d):
    """Everything `report` and `check` print for d, as text."""
    r = run_report(d)
    rows = "".join(f"{ok} {name} ({detail})\n" for name, ok, detail in identity_suite(d))
    return emit_report(r, "json"), emit_report(r, "text"), rows


@given(tally_rows, st.integers(0, 2**32))
@settings(max_examples=200)
def test_the_tally_is_the_rows(rs, seed):
    shuffled = rs[:]
    random.Random(seed).shuffle(shuffled)
    shared = {s: Fraction(s) for s in TALLY_TEXTS}  # one object per text: the tally groups them
    built = [
        Dataset([shared[s] for s, pos in rs if pos], [shared[s] for s, pos in rs if not pos]),
        dataset_from_pairs(shuffled),
        parse_input("".join(f"{s},{int(pos)}\n" for s, pos in rs)),
    ]
    assert _outputs(built[0]) == _outputs(built[1]) == _outputs(built[2])
    assert built[0] == built[1] == built[2]

    # the references expand every row and never read a tally
    pos = [Fraction(s) for s, p in rs if p]
    neg = [Fraction(s) for s, p in rs if not p]
    wins = Fraction(sum(p > q for p in pos for q in neg), len(pos) * len(neg))
    for d in built:
        assert (d.n_pos, d.n_neg) == (len(pos), len(neg))
        assert sum(d.pos_tally.mult) == len(pos) and sum(d.neg_tally.mult) == len(neg)
        assert (sorted(rows(d.pos_tally)), sorted(rows(d.neg_tally))) == (sorted(pos), sorted(neg))
        assert pair_probability_bruteforce(d) == merged_pair_probability(d) == wins
        for tau in map(Fraction, ("-1", "-3/4", "0", "1/8", "1/4", "1/2", "3/4", "1", "2")):
            assert tpr_at(d, tau) == Fraction(sum(s >= tau for s in pos), len(pos))
            assert fpr_at(d, tau) == Fraction(sum(s >= tau for s in neg), len(neg))


# Mixed spellings of one value (0.35, 7/20), both zeros, exponents near the cap, and
# +-1e400, which overflow a float: the library path's presort then falls back.
PATH_TEXTS = (
    "0.35", "7/20", "0.350", "-0", "0", "0/5", "1/3", "2", "1e400", "-1e400", "1E-400",
    "9.99e20000", "-1e-20000", "1e-19999", "1/2", "0.5",
)
path_rows = st.lists(
    st.tuples(st.sampled_from(PATH_TEXTS), st.booleans()), min_size=2, max_size=30
).filter(lambda rs: len({pos for _, pos in rs}) == 2)


@given(path_rows)
@settings(max_examples=150, deadline=None)
def test_the_file_path_and_the_library_path_agree(rs):
    from_file = parse_input("".join(f"{s},{int(pos)}\n" for s, pos in rs))  # Decimals
    from_rows = dataset_from_pairs(rs)  # Fractions
    assert {type(s) for s in from_rows.counts.scores} == {Fraction}
    if any("/" not in s for s, _ in rs):
        assert Decimal in {type(s) for s in from_file.pos_tally.scores + from_file.neg_tally.scores}
    assert from_file == from_rows and hash(from_file) == hash(from_rows)
    assert _outputs(from_file) == _outputs(from_rows)
