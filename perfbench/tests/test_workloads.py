"""Tests of the benchmark's input generators and oracle.

Run: python3 -m pytest perfbench/tests
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads as w  # noqa: E402
from refloop import REF_SECONDS  # noqa: E402
from run import Speed, parse_importtime  # noqa: E402


def test_same_seed_same_bytes_other_seed_other_bytes():
    for make in (w.lowtie_rows, w.hightie_rows):
        assert w.csv_text(make(7, 500)) == w.csv_text(make(7, 500))
        assert w.csv_text(make(7, 500)) != w.csv_text(make(8, 500))
    assert w.sweep_pool(7, 20) == w.sweep_pool(7, 20)
    assert w.sweep_pool(7, 20) != w.sweep_pool(8, 20)


def test_lowtie_scores_nearly_all_distinct():
    rows = w.lowtie_rows(1, 20_000)
    e = w.oracle(rows)
    assert e.distinct_scores >= 0.99 * len(rows)
    assert e.n_pos == round(w.POS_SHARE * len(rows))


def test_hightie_scores_on_grid_and_shared():
    e = w.oracle(w.hightie_rows(1, 100_000))
    assert e.distinct_scores <= 1001
    assert e.shared_scores > 0
    assert e.ties > 0


def test_keys_order_like_the_exact_score_text():
    for rows in (w.lowtie_rows(2, 300), w.hightie_rows(2, 300), *w.sweep_pool(2, 5)):
        by_key = sorted(rows, key=lambda r: r[0])
        exact = [Fraction(t) for _, t, _ in by_key]
        assert exact == sorted(exact)
        for (k1, t1, _), (k2, t2, _) in zip(by_key, by_key[1:]):
            assert (k1 == k2) == (Fraction(t1) == Fraction(t2))


def test_sweep_datasets_match_the_suite_distribution():
    for rows in w.sweep_pool(3, 50):
        assert w.SWEEP_MIN_SIZE <= len(rows) <= w.SWEEP_MAX_SIZE
        e = w.oracle(rows)
        assert e.n_pos >= 1 and e.n_neg >= 1
        assert e.shared_scores >= 1  # the planted tie


def _rows(positives, negatives):
    return [(Fraction(s), s, True) for s in positives] + [(Fraction(s), s, False) for s in negatives]


def test_oracle_on_the_readme_example():
    e = w.oracle(_rows(["0.5", "0.9"], ["0.5", "0.1"]))
    assert (e.auc, e.pair_probability, e.tie_correction) == (
        Fraction(7, 8),
        Fraction(3, 4),
        Fraction(1, 8),
    )
    assert (e.n_pos, e.n_neg, e.distinct_scores, e.shared_scores) == (2, 2, 3, 1)


def test_oracle_matches_pair_counting_by_hand():
    rng = random.Random(5)
    for _ in range(200):
        pos = [rng.randint(0, 6) for _ in range(rng.randint(1, 12))]
        neg = [rng.randint(0, 6) for _ in range(rng.randint(1, 12))]
        e = w.oracle([(k, str(k), True) for k in pos] + [(k, str(k), False) for k in neg])
        assert e.wins == sum(p > q for p in pos for q in neg)
        assert e.ties == sum(p == q for p in pos for q in neg)
        assert e.shared_scores == len(set(pos) & set(neg))
        assert e.distinct_scores == len(set(pos) | set(neg))


def test_mismatch_checks_flag_a_wrong_report():
    rows = _rows(["0.5", "0.9"], ["0.5", "0.1"])
    e = w.oracle(rows)
    good = {
        "n_pos": 2,
        "n_neg": 2,
        "hypothesis_holds": False,
        "auc": "7/8",
        "pair_probability": "3/4",
        "tie_correction": "1/8",
        "shared_scores": 1,
        "curve": 4,
    }
    assert w.report_mismatches(good, e) == []
    assert w.report_mismatches({**good, "auc": "3/4"}, e) != []
    assert w.check_mismatches(["ok x (7/8 vs 7/8)", "ok y (3/4 vs 3/4)", "ok z (1/8 vs 1/8)"], e) != []
    lines = ["ok x (7/8 vs 7/8)", "ok y (3/4 vs 3/4)", "ok z (1/8 vs 1/8)"] + ["ok w"] * 4
    assert w.check_mismatches(lines, e) == []
    assert w.check_mismatches(lines[:-1] + ["FAIL w"], e) != []


def test_import_breakdown_counts_only_what_import_exactroc_loads():
    text = """import time: self [us] | cumulative | imported package
import time:       500 |        500 | site
import time:       100 |        100 |       numpy.core
import time:       200 |        300 |     numpy
import time:       400 |        400 |     scipy.integrate
import time:        50 |         50 |     fractions
import time:        30 |        780 |   exactroc.contlab
import time:        20 |        800 | exactroc
"""
    assert parse_importtime(text) == pytest.approx({
        "import.total.ms": 0.8,
        "import.numpy.ms": 0.3,
        "import.scipy.ms": 0.4,
        "import.exactroc.ms": 0.05,
        "import.other.ms": 0.05,
    })


def test_rescale_removes_the_loop_and_the_slowdown():
    # Loop samples at twice the reference CPU time: the CPU ran at half speed.
    # The one at t=1.0 shared the CPU with the measured code for 2*d of wall
    # time and took d of it.
    d = 2 * REF_SECONDS
    speed = Speed([[0.5 - d, 0.5, d], [1.0, 1.0 + 2 * d, d], [2.0, 2.0 + d, d]])
    assert speed.rescale(0.5, 2.0) == pytest.approx((1.5 - d) / 2)
    assert speed.raw_speed() == pytest.approx(2.0)
    # Far from every sample, the nearest one sets the speed.
    assert Speed([[0.0, 0.01, REF_SECONDS]]).rescale(5.0, 6.0) == pytest.approx(1.0)
