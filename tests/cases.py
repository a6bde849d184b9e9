"""Input texts, expected outputs and paths that more than one test module reads."""

import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).parent / "data"
C = Fraction(7, 20)  # the counterexample's one score, in both classes
COUNTEREXAMPLE_CSV = "0.35,1\n0.35,0\n"
MIXED_CSV = "0.5,1\n0.9,1\n0.5,0\n0.1,0\n"
MARKED_HEADER_RECURS = "\ufeffscore,label\r\n0.5,1\r\n0.1,0\r\nscore,label\r\n0.9,1\r\n"
REPORT_FIELDS = (
    "auc", "pair_probability", "tie", "hypothesis_holds", "curve",
    "n_pos", "n_neg", "balanced_integral", "right_integral",
)

REPORT_TEXT = {
    COUNTEREXAMPLE_CSV: [
        "observations      2 (1 positive, 1 negative)",
        "hypothesis_holds  false",
        "auc               1/2 = 0.5",
        "pair_probability  0/1 = 0",
        "tie_correction    1/2 = 0.5",
        "tie_bound         1/2 = 0.5",
        "shared_score      7/20 (pos_mass 1/1, neg_mass 1/1)",
        "curve             (1/1, 1/1) (0/1, 0/1)",
    ],
    MIXED_CSV: [
        "observations      4 (2 positive, 2 negative)",
        "hypothesis_holds  false",
        "auc               7/8 = 0.875",
        "pair_probability  3/4 = 0.75",
        "tie_correction    1/8 = 0.125",
        "tie_bound         1/4 = 0.25",
        "shared_score      1/2 (pos_mass 1/2, neg_mass 1/2)",
        "curve             (1/1, 1/1) (1/2, 1/1) (0/1, 1/2) (0/1, 0/1)",
    ],
}


def _distinct_lines(n, seed=7):
    """A header, then n rows of distinct float scores, as in low-tie input."""
    rng = random.Random(seed)
    yield "score,label\n"
    for k in range(n):
        yield f"{rng.random()!r},{k % 2}\n"
