"""Sweep the Laplace tie model's center width and tabulate the ROC jump.

For each epsilon the script prints the certified jump in the false positive
rate at beta_star, the quadrature area, the Monte-Carlo pair probability,
and the observed gap next to its closed-form reference (1/2)(1-2e)e^-e.
The gap shrinking to 0 as epsilon grows, and to 1/2 as epsilon vanishes,
shows the continuous model interpolating between a tie-free ranker and a
completely tied one.

Usage: python scripts/contlab_sweep.py [--samples N] [--seed S]
"""

import argparse
import math

from exactroc.contlab import LaplaceTieModel, area_consistency_check, jump_certificate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=[0.05, 0.1, 0.25, 0.4, 0.45, 0.49],
    )
    args = ap.parse_args()

    header = f"{'eps':>5}  {'fpr_jump':>9}  {'e^-eps':>9}  {'area':>9}  {'pair_mc':>9}  {'gap':>9}  {'gap_ref':>9}"
    print(header)
    print("-" * len(header))
    for eps in args.epsilons:
        m = LaplaceTieModel(epsilon=eps)
        cert = jump_certificate(m, delta=1e-9)
        out = area_consistency_check(m, samples=args.samples, seed=args.seed)
        jump = cert.x_minus_approx - cert.x_plus_approx
        gap_ref = 0.5 * (1.0 - 2.0 * eps) * math.exp(-eps)
        print(
            f"{eps:>5.2f}  {jump:>9.6f}  {math.exp(-eps):>9.6f}  "
            f"{out.area_quadrature:>9.6f}  {out.pair_prob_mc:>9.6f}  "
            f"{out.gap:>9.6f}  {gap_ref:>9.6f}"
        )
    print(f"\n({args.samples} Monte-Carlo draws per row, seed {args.seed})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
