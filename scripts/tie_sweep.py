"""Sweep random tied datasets and summarize the area/pair-probability gap.

Every dataset is pushed through the full exact pipeline by `run_report`, which
checks every exact identity and raises IdentityError on the first that fails
(they are exact, so any failure is a bug). The script then reports how large
the tie correction actually gets in practice and how tight its bound is.

Usage: python scripts/tie_sweep.py [--datasets N] [--max-size N] [--seed S]
"""

import argparse
import random
from fractions import Fraction

from exactroc import dataset_from_pairs, run_report


def make_dataset(rng: random.Random, max_size: int):
    n = rng.randint(2, max_size)
    n_pos = rng.randint(1, n - 1)
    den = rng.choice((1, 2, 4, 5, 20, 100))
    span = max(2, n // 4)
    draw = lambda: Fraction(rng.randint(-span, span), den)
    pairs = [(draw(), True) for _ in range(n_pos)]
    pairs += [(draw(), False) for _ in range(n - n_pos)]
    shared = draw()  # plant one guaranteed cross-class tie
    pairs[rng.randrange(n_pos)] = (shared, True)
    pairs[n_pos + rng.randrange(n - n_pos)] = (shared, False)
    rng.shuffle(pairs)
    return dataset_from_pairs(pairs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--datasets", type=int, default=500)
    ap.add_argument("--max-size", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    corrections: list[Fraction] = []
    slacks: list[Fraction] = []
    worst = None
    for _ in range(args.datasets):
        d = make_dataset(rng, args.max_size)
        r = run_report(d).tie
        corrections.append(r.correction)
        slacks.append(r.bound - r.correction)
        if worst is None or r.correction > worst[0]:
            worst = (r.correction, r.bound, len(d), len(r.shared_scores))

    n = len(corrections)
    mean_corr = sum(corrections, Fraction(0)) / n
    mean_slack = sum(slacks, Fraction(0)) / n
    print(f"datasets            {n} (sizes 2-{args.max_size}, seed {args.seed})")
    print(f"mean correction     {float(mean_corr):.6f}")
    print(f"max correction      {max(corrections)} = {float(max(corrections)):.6f}")
    print(f"mean bound slack    {float(mean_slack):.6f}")
    print(f"tight bound cases   {sum(s == 0 for s in slacks)}")
    corr, bound, size, shared = worst
    print(
        f"worst dataset       correction {corr}, bound {bound}, "
        f"{size} observations, {shared} shared score(s)"
    )
    print("all exact identities held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
