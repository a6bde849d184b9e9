"""Exact ROC curves, trapezoidal AUC, and ranking probabilities.

All discrete quantities are computed in exact rational arithmetic, so the
identity between the area under the ROC curve and the probability that a
random positive strictly outranks a random negative - and the exact tie
correction separating them when scores collide across classes - hold as
decidable equalities, not approximations.

Every other name is imported from the module that defines it: the oracles
from `exactroc.roc` and `exactroc.pairwise`, the step-function calculus from
`exactroc.stieltjes`, and the continuous Laplace lab (closed forms in floating
point, and samples the exact engine counts) from `exactroc.contlab`.
"""

from .core import Dataset, DegenerateClassesError, dataset_from_pairs
from .roc import auc_trapezoid, roc_curve
from .pairwise import pair_probability_fast, tie_report
from .parse import ParseError, parse_input
from .cli import IdentityError, emit_report, identity_suite, run_report

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DegenerateClassesError",
    "IdentityError",
    "ParseError",
    "auc_trapezoid",
    "dataset_from_pairs",
    "emit_report",
    "identity_suite",
    "pair_probability_fast",
    "parse_input",
    "roc_curve",
    "run_report",
    "tie_report",
]
