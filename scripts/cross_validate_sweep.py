#!/usr/bin/env python3
"""Sweep the logic/quantum cross-validation over several prime dimensions.

For every axiom {a, b} and measurement setting m the sweep compares the
decidability forecast with the exact Born classification and with the
group-counting multiplicities. Exits nonzero if any cell disagrees.
"""

import argparse

import numpy as np

from mublogic.cli import check_budget, disagreement_line, entrypoint, parse_tolerance
from mublogic.experiment import cross_validate
from mublogic.modmath import Dimension


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dims", default="2,3,5,7",
        help="comma-separated prime dimensions (default: 2,3,5,7)",
    )
    parser.add_argument("--tol", type=parse_tolerance, default=1e-9)
    args = parser.parse_args()

    try:
        ds = [int(tok) for tok in args.dims.split(",") if tok.strip()]
        if not ds:
            raise ValueError("--dims names no dimension")
        for d in ds:
            check_budget("cross-validate", d)
        dims = [Dimension(d) for d in ds]
        reports = [cross_validate(dim, args.tol) for dim in dims]
    except ValueError as exc:
        parser.error(str(exc))

    failures = 0
    print(f"{'d':>3}  {'cells':>6}  {'disagree':>8}  {'max |born - counting/d|':>24}")
    for report in reports:
        failures += report.disagreements
        print(
            f"{report.dim.d:>3}  {report.agree.size:>6}  {report.disagreements:>8}  "
            f"{report.max_born_vs_counting_deviation:>24.3e}"
        )
        for i in np.flatnonzero(~report.agree):
            print(f"     {disagreement_line(report, i)}")
    print("all cells agree" if failures == 0 else f"{failures} disagreements")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    entrypoint(main)
