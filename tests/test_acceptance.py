"""End-to-end acceptance gate.

Each test covers one exit criterion and prints exactly one
"[acceptance] criterion N PASS/FAIL" line, emitted outside pytest's capture
so the lines appear even in non-verbose runs. Pools of generated datasets
are module-scoped fixtures because later criteria quantify over "all
datasets" from the earlier ones; generation time is counted against the
stated budgets.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from exactroc import (
    auc_trapezoid,
    dataset_from_classes,
    dataset_from_pairs,
    pair_probability_fast,
    roc_curve,
    tie_report,
)
from exactroc.cli import main
from exactroc.contlab import LaplaceTieModel, jump_certificate
from exactroc.pairwise import pair_probability_bruteforce
from exactroc.stieltjes import integrate, negative_differential, rate_step_function
from datagen import random_dataset

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(n: int, desc: str, capsys):
    def emit(verdict: str) -> None:
        with capsys.disabled():
            print(f"\n[acceptance] criterion {n} {verdict} - {desc}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


@pytest.fixture(scope="module")
def disjoint_pool():
    rng = random.Random(20260819)
    t0 = time.perf_counter()
    pool = [
        random_dataset(rng, min_size=2, max_size=500, disjoint=True) for _ in range(1000)
    ]
    return pool, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tied_pool():
    rng = random.Random(20260820)
    t0 = time.perf_counter()
    pool = [
        random_dataset(rng, min_size=2, max_size=500, force_tie=True) for _ in range(1000)
    ]
    return pool, time.perf_counter() - t0


def test_criterion_1_single_shared_score_report(capsys):
    with criterion(1, "single shared score: auc 1/2, pair 0, correction = bound = 1/2, < 1 ms", capsys):
        c = Fraction(7, 20)

        def evaluate():
            d = dataset_from_classes([c], [c])
            return auc_trapezoid(roc_curve(d)), pair_probability_fast(d), tie_report(d)

        evaluate()  # warm-up
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            auc, pair, tie = evaluate()
            runs.append(time.perf_counter() - t0)

        assert auc == Fraction(1, 2)
        assert pair == Fraction(0)
        assert tie.correction == Fraction(1, 2)
        assert tie.bound == Fraction(1, 2)
        # the shared-score pre-image is the whole sample space
        assert tie.b_given_p == 1
        assert tie.b_given_n == 1
        assert min(runs) < 1e-3


def test_criterion_2_area_equals_pair_probability_without_ties(disjoint_pool, capsys):
    pool, gen_seconds = disjoint_pool
    with criterion(2, "1000 tie-free datasets (sizes 2-500): auc == pair probability, < 10 s", capsys):
        assert len(pool) >= 1000
        assert all(2 <= len(d) <= 500 for d in pool)
        t0 = time.perf_counter()
        for d in pool:
            assert auc_trapezoid(roc_curve(d)) == pair_probability_fast(d)
        elapsed = time.perf_counter() - t0
        # generator sanity: the classes really never share a score
        assert all(not set(d.positives) & set(d.negatives) for d in pool)
        assert gen_seconds + elapsed < 10.0


def test_criterion_3_gap_equals_tie_correction_with_ties(tied_pool, capsys):
    pool, gen_seconds = tied_pool
    with criterion(3, "1000 tied datasets: auc - pair == correction, 0 <= corr <= bound <= 1/2, < 10 s", capsys):
        assert len(pool) >= 1000
        t0 = time.perf_counter()
        for d in pool:
            r = tie_report(d)
            gap = auc_trapezoid(roc_curve(d)) - pair_probability_fast(d)
            assert gap == r.correction
            assert 0 <= r.correction <= r.bound <= Fraction(1, 2)
        elapsed = time.perf_counter() - t0
        # generator sanity: every dataset really has a cross-class tie
        assert all(set(d.positives) & set(d.negatives) for d in pool)
        assert gen_seconds + elapsed < 10.0


def test_criterion_4_balanced_integral_equals_trapezoid_area(disjoint_pool, tied_pool, capsys):
    with criterion(4, "balanced Stieltjes integral == trapezoid area on all 2000 pool datasets", capsys):
        for d in disjoint_pool[0] + tied_pool[0]:
            t = rate_step_function(d, "positive")
            m = negative_differential(rate_step_function(d, "negative"))
            assert integrate("balanced", t, m) == auc_trapezoid(roc_curve(d))


def test_criterion_5_right_integral_equals_bruteforce_pair_probability(disjoint_pool, tied_pool, capsys):
    with criterion(5, "right-limit Stieltjes integral == brute-force pair probability on all 2000", capsys):
        for d in disjoint_pool[0] + tied_pool[0]:
            t = rate_step_function(d, "positive")
            m = negative_differential(rate_step_function(d, "negative"))
            assert integrate("right", t, m) == pair_probability_bruteforce(d)


def test_criterion_6_fast_pair_count_matches_bruteforce(capsys):
    with criterion(6, "fast == brute-force pair probability on 500 datasets of size <= 200", capsys):
        rng = random.Random(20260821)
        for i in range(500):
            d = random_dataset(rng, max_size=200, force_tie=(i % 2 == 0))
            assert len(d) <= 200
            assert pair_probability_fast(d) == pair_probability_bruteforce(d)


def test_criterion_7_continuous_roc_jump_certificate(capsys):
    with criterion(7, "Laplace-model fpr jumps from 1 to 1 - e^-eps at beta_star, < 1 s", capsys):
        t0 = time.perf_counter()
        for eps in (0.1, 0.25, 0.4):
            cert = jump_certificate(LaplaceTieModel(epsilon=eps), delta=1e-9)
            assert abs(cert.x_minus_approx - 1.0) < 1e-6
            assert abs(cert.x_plus_approx - (1.0 - math.exp(-eps))) < 1e-6
        assert time.perf_counter() - t0 < 1.0


def test_criterion_8_invariance_under_increasing_score_map(capsys):
    with criterion(8, "auc, pair probability, correction invariant under x -> x^3 + 2x on 100 datasets", capsys):
        rng = random.Random(20260822)
        for i in range(100):
            d = random_dataset(rng, max_size=120, force_tie=(i % 2 == 0))
            mapped = dataset_from_pairs(
                (s**3 + 2 * s, pos) for s, pos in d.observations
            )
            assert auc_trapezoid(roc_curve(mapped)) == auc_trapezoid(roc_curve(d))
            assert pair_probability_fast(mapped) == pair_probability_fast(d)
            assert tie_report(mapped).correction == tie_report(d).correction


def _decimal_text(q: Fraction) -> str:
    # generator denominators all divide 100, so two decimal places are exact
    cents = q * 100
    assert cents.denominator == 1
    sign = "-" if cents < 0 else ""
    whole, frac = divmod(abs(int(cents)), 100)
    return f"{sign}{whole}.{frac:02d}"


def test_criterion_9_cli_golden_report_and_check(tmp_path, capsys):
    with criterion(9, "golden JSON byte-for-byte; `check` exits 0 on every generated fixture", capsys):
        code = main(["report", "--input", str(DATA / "counterexample.csv"), "--output", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.encode("utf-8") == (DATA / "counterexample_report.json").read_bytes()

        rng = random.Random(20260823)
        for i in range(25):
            d = random_dataset(
                rng, max_size=80, disjoint=(i % 3 == 0), force_tie=(i % 3 == 1)
            )
            rows = "".join(
                f"{_decimal_text(s)},{'1' if pos else '0'}\n" for s, pos in d.observations
            )
            path = tmp_path / f"fixture_{i:02d}.csv"
            path.write_text(rows, encoding="utf-8")
            assert main(["check", "--input", str(path)]) == 0, f"fixture {i}"
