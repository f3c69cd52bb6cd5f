#!/usr/bin/env python3
"""Seeded sampling sweep: chi-square every (axiom, measurement) cell.

Cells with m = a are deterministic and should be rejected as uniform with an
astronomical statistic; every other cell should look uniform, with false
rejections at roughly the alpha = 0.001 rate across seeds.
"""

import argparse

from mublogic.cli import check_budget, entrypoint, parse_seed
from mublogic.experiment import ALPHA, chi_square_uniform, run
from mublogic.logic import Proposition
from mublogic.modmath import Dimension


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=parse_seed, default=42)
    args = parser.parse_args()

    try:
        check_budget("run", args.d, args.trials)
        dim = Dimension(args.d)
        d = dim.d
        results = []
        for a in range(d + 1):
            for b in range(d):
                axiom = Proposition(a, b, dim)
                for m in range(d + 1):
                    counts = run(axiom, m, args.trials, args.seed)
                    results.append((a, b, m, *chi_square_uniform(counts)))
    except ValueError as exc:  # includes ValidityError: no chi-square verdict
        parser.error(str(exc))

    surprises = 0
    print(f"d={d}, trials={args.trials}, seed={args.seed}, alpha={ALPHA}")
    print(f"{'axiom':>7}  {'m':>2}  {'statistic':>12}  verdict")
    for a, b, m, statistic, _, _, verdict in results:
        uniform = verdict == "ConsistentWithUniform"
        expected_uniform = m != a
        marker = ""
        if uniform != expected_uniform:
            surprises += 1
            marker = "  <- unexpected"
        print(
            f"{{{a},{b}}}".rjust(7)
            + f"  {m:>2}  {statistic:>12.4g}  "
            + verdict
            + marker
        )
    print(f"{surprises} unexpected verdicts out of {len(results)} cells")
    # a handful of false rejections is expected over many cells and seeds
    return 0


if __name__ == "__main__":
    entrypoint(main)
