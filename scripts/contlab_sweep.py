"""Sweep the Laplace tie model's center width and tabulate the ROC jump.

For each epsilon the script prints the certified jump in the false positive
rate at beta_star, the model's closed-form area, pair probability and gap
(1/2)(1-2e)e^-e, and next to them the exact auc, pair probability and tie
correction of one drawn sample, which `run_report` computes and checks
(rounded here to 6 places). The gap shrinking to 0 as epsilon grows, and to
1/2 as epsilon vanishes, shows the continuous model interpolating between a
tie-free ranker and a completely tied one. Each row is labelled with its
epsilon's `repr`, so distinct epsilons never share a label. An argument that
`exactroc contlab` rejects exits 2 with a usage message, before any row.

Usage: python scripts/contlab_sweep.py [--samples N] [--seed S] [--epsilons E [E ...]]
"""

import argparse
import math

from exactroc import run_report
from exactroc.contlab import LaplaceTieModel, jump_certificate, sample


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=[0.05, 0.1, 0.25, 0.4, 0.45, 0.49],
    )
    args = ap.parse_args()

    rows = []
    for eps in args.epsilons:
        try:
            m = LaplaceTieModel(epsilon=eps)
            d = sample(m, args.samples, args.seed)
        except ValueError as e:
            ap.error(str(e))
        cert, r = jump_certificate(m), run_report(d)
        jump = cert.x_minus_approx - cert.x_plus_approx
        exact = (r.auc, r.pair_probability, r.tie.correction)
        rows.append((eps, jump, math.exp(-eps), m.area, m.pair_probability, m.gap, *exact))

    width = max(len(repr(eps)) for eps in args.epsilons)
    names = ["fpr_jump", "e^-eps", "area", "pair", "gap", "auc", "pair_prob", "tie_corr"]
    header = f"{'eps':>{width}}" + "".join(f"  {name:>9}" for name in names)
    print(header)
    print("-" * len(header))
    for eps, *values in rows:
        print(f"{eps!r:>{width}}" + "".join(f"  {float(v):>9.6f}" for v in values))
    print(
        f"\n(area, pair, gap: closed forms; auc, pair_prob, tie_corr: the exact values of "
        f"{args.samples} draws of each class, seed {args.seed})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
