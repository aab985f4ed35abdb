#!/usr/bin/env python3
"""Refined enumeration profile: states per (m, l) cell.

The row l of the single left arrow in the next-to-last column refines the
state count the same way the position of the lone 1 in the last column
refines U-turn alternating sign matrix counts.
"""

import argparse
from collections import Counter

from ice_colors.lattice import color_marginals


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    args = parser.parse_args()
    n = args.n
    if n < 1:
        parser.error("--n must be at least 1")

    grid: Counter = Counter()
    for (m, l, _k0), cnt in color_marginals(n)[0].items():
        grid[(m, l)] += cnt

    header = "m\\l " + "".join(f"{l:>7}" for l in range(1, 2 * n + 1))
    print(f"n={n}, {sum(grid.values())} states")
    print(header)
    for m in range(n + 1):
        row = "".join(f"{grid.get((m, l), 0):>7}" for l in range(1, 2 * n + 1))
        print(f"{m:>3} {row}")
    print("col " + "".join(
        f"{sum(grid.get((m, l), 0) for m in range(n + 1)):>7}"
        for l in range(1, 2 * n + 1)))


if __name__ == "__main__":
    main()
