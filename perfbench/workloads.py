"""Seeded inputs for the benchmark workloads, and the benchmark's own oracle.

Every generated row keeps an ordering key next to its score text: an integer
on a grid, or the float whose `repr` is the text. Key order and key equality
are exactly the order and equality of the exact rationals the program parses
from the text, so the oracle can count wins and ties on the keys without
touching `fractions` or the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# One row: (ordering key, score text, is_positive).
Row = tuple[object, str, bool]

POS_SHARE = 0.3
SWEEP_MIN_SIZE = 2
SWEEP_MAX_SIZE = 500
GOLDEN = (5**0.5 - 1) / 2


def _labels(rng: random.Random, n: int) -> list[bool]:
    n_pos = round(POS_SHARE * n)
    labels = [True] * n_pos + [False] * (n - n_pos)
    rng.shuffle(labels)
    return labels


def lowtie_rows(seed: int, n: int) -> list[Row]:
    """Clipped Gaussian floats, positives centred higher: nearly all distinct."""
    rng = random.Random(f"lowtie/{seed}")
    rows = []
    for pos in _labels(rng, n):
        x = min(1.0, max(0.0, rng.gauss(0.6 if pos else 0.4, 0.15)))
        rows.append((x, repr(x), pos))
    return rows


def hightie_rows(seed: int, n: int) -> list[Row]:
    """The same shape rounded to a 3-decimal grid: at most 1001 distinct scores."""
    rng = random.Random(f"hightie/{seed}")
    rows = []
    for pos in _labels(rng, n):
        k = min(1000, max(0, round(rng.gauss(600 if pos else 400, 150))))
        rows.append((k, f"{k // 1000}.{k % 1000:03d}", pos))
    return rows


def _hundredths_text(h: int) -> str:
    sign = "-" if h < 0 else ""
    return f"{sign}{abs(h) // 100}.{abs(h) % 100:02d}"


def sweep_dataset(rng: random.Random, n: int) -> list[Row]:
    """One tied dataset of n rows, drawn like the test suite's random tied datasets.

    A random class split, scores k/den on a narrow range with den in
    {1, 2, 4, 5, 20, 100}, and one planted cross-class tie. Every such den
    divides 100, so the score is written as exact decimal text and keyed by
    its integer number of hundredths.
    """
    n_pos = rng.randint(1, n - 1)
    n_neg = n - n_pos
    den = rng.choice((1, 2, 4, 5, 20, 100))
    span = max(2, n // 4)
    pos = [rng.randint(-span, span) for _ in range(n_pos)]
    neg = [rng.randint(-span, span) for _ in range(n_neg)]
    shared = rng.randint(-span, span)
    pos[rng.randrange(n_pos)] = shared
    neg[rng.randrange(n_neg)] = shared
    pairs = [(k, True) for k in pos] + [(k, False) for k in neg]
    rng.shuffle(pairs)
    rows = []
    for k, is_pos in pairs:
        h = k * (100 // den)
        rows.append((h, _hundredths_text(h), is_pos))
    return rows


def sweep_pool(seed: int, count: int) -> list[list[Row]]:
    """Datasets with sizes uniform over 2..500, as in the test suite.

    The sizes follow a seeded golden-ratio sequence instead of independent
    draws, so every prefix of the pool has nearly the same size mix. A run
    times a prefix whose length depends on the program's speed; this keeps
    its size mix from varying with the seed or the speed.
    """
    rng = random.Random(f"sweep/{seed}")
    sizes = SWEEP_MAX_SIZE - SWEEP_MIN_SIZE + 1
    offset = rng.random()
    return [
        sweep_dataset(rng, SWEEP_MIN_SIZE + int((offset + i * GOLDEN) % 1.0 * sizes))
        for i in range(count)
    ]


def csv_text(rows: list[Row]) -> str:
    return "score,label\n" + "".join(f"{t},{1 if p else 0}\n" for _, t, p in rows)


@dataclass(frozen=True)
class Expected:
    """What any correct exact report must say about one dataset."""

    n_pos: int
    n_neg: int
    wins: int  # positive-negative pairs with the positive strictly higher
    ties: int  # positive-negative pairs with equal scores
    distinct_scores: int
    shared_scores: int

    @property
    def pairs(self) -> int:
        return self.n_pos * self.n_neg

    @property
    def auc(self) -> Fraction:
        return Fraction(2 * self.wins + self.ties, 2 * self.pairs)

    @property
    def pair_probability(self) -> Fraction:
        return Fraction(self.wins, self.pairs)

    @property
    def tie_correction(self) -> Fraction:
        return Fraction(self.ties, 2 * self.pairs)


def oracle(rows: list[Row]) -> Expected:
    """Mann-Whitney U with mid-rank ties, by one sort and a count per score.

    With ranks 1..n over the sorted keys and tied keys sharing their mid-rank,
    U = R_pos - n_pos(n_pos + 1)/2 = wins + ties/2. Doubled ranks keep it in
    integers.
    """
    ordered = sorted((key, pos) for key, _, pos in rows)
    n_pos = sum(pos for _, pos in ordered)
    n_neg = len(ordered) - n_pos
    twice_rank_sum = ties = distinct = shared = 0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            j += 1
        p = sum(pos for _, pos in ordered[i:j])
        q = (j - i) - p
        twice_rank_sum += p * ((i + 1) + j)  # doubled mid-rank of ranks i+1..j
        ties += p * q
        distinct += 1
        shared += p > 0 and q > 0
        i = j
    twice_u = twice_rank_sum - n_pos * (n_pos + 1)
    wins, odd = divmod(twice_u - ties, 2)
    if odd:
        raise AssertionError("2U - ties must be even")
    return Expected(n_pos, n_neg, wins, ties, distinct, shared)


def frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def summarize(payload: dict) -> dict:
    """The oracle-checked fields of a JSON report, lists reduced to their lengths."""
    return {
        **payload,
        "shared_scores": len(payload["shared_scores"]),
        "curve": len(payload["curve"]),
    }


def report_mismatches(summary: dict, e: Expected) -> list[str]:
    """Fields of a report summary (see `summarize`) that disagree with the oracle."""
    want = {
        "n_pos": e.n_pos,
        "n_neg": e.n_neg,
        "hypothesis_holds": e.shared_scores == 0,
        "auc": frac(e.auc),
        "pair_probability": frac(e.pair_probability),
        "tie_correction": frac(e.tie_correction),
        "shared_scores": e.shared_scores,
        "curve": e.distinct_scores + 1,  # one point per distinct score, plus (0, 0)
    }
    return [f"{k}: {summary.get(k)!r} != {v!r}" for k, v in want.items() if summary.get(k) != v]


CHECK_ROWS = 7


def check_mismatches(lines: list[str], e: Expected) -> list[str]:
    """Problems with the rows of `exactroc check` against the oracle."""
    bad = []
    if len(lines) != CHECK_ROWS or not all(line.startswith("ok") for line in lines):
        bad.append(f"want {CHECK_ROWS} ok rows, got {lines!r}")
    text = "\n".join(lines)
    for name, q in (
        ("auc", e.auc),
        ("pair_probability", e.pair_probability),
        ("tie_correction", e.tie_correction),
    ):
        if f"{frac(q)} vs {frac(q)}" not in text:
            bad.append(f"{name} {frac(q)} not confirmed on both sides of a check row")
    return bad
