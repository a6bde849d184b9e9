"""Exact ROC curves, trapezoidal AUC, and ranking probabilities.

All discrete quantities are computed in exact rational arithmetic, so the
identity between the area under the ROC curve and the probability that a
random positive strictly outranks a random negative - and the exact tie
correction separating them when scores collide across classes - hold as
decidable equalities, not approximations.
"""

from .core import (
    Dataset,
    DegenerateClassesError,
    Rational,
    Score,
    class_measures,
    dataset_from_classes,
    dataset_from_pairs,
    rational,
    score,
)
from .roc import RocCurve, RocPoint, auc_trapezoid, fpr_at, roc_curve, tpr_at
from .pairwise import (
    SharedScore,
    TieReport,
    hypothesis_holds,
    pair_probability_bruteforce,
    pair_probability_fast,
    tie_report,
)
from .stieltjes import (
    AtomicMeasure,
    StepFunction,
    integrate,
    negative_differential,
    rate_step_function,
)
from .cli import (
    IdentityError,
    ParseError,
    RocReport,
    emit_curve_svg,
    emit_report,
    identity_suite,
    main,
    parse_input,
    run_report,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Only contlab's names get here, as all others are bound above. contlab
    # needs numpy and scipy, so it loads on first use.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import contlab

    return getattr(contlab, name)


__all__ = [
    "AreaConsistency",
    "AtomicMeasure",
    "Dataset",
    "DegenerateClassesError",
    "IdentityError",
    "JumpCertificate",
    "LaplaceTieModel",
    "ParseError",
    "Rational",
    "RocCurve",
    "RocPoint",
    "RocReport",
    "Score",
    "SharedScore",
    "StepFunction",
    "TieReport",
    "area_consistency_check",
    "auc_trapezoid",
    "class_measures",
    "dataset_from_classes",
    "dataset_from_pairs",
    "emit_curve_svg",
    "emit_report",
    "fpr_at",
    "fpr_of_threshold",
    "hypothesis_holds",
    "identity_suite",
    "integrate",
    "jump_certificate",
    "likelihood_ratio",
    "main",
    "negative_differential",
    "pair_probability_bruteforce",
    "pair_probability_fast",
    "parse_input",
    "rate_step_function",
    "rational",
    "roc_curve",
    "run_report",
    "score",
    "tie_report",
    "tpr_at",
    "tpr_of_threshold",
]
