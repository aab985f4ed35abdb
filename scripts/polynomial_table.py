#!/usr/bin/env python3
"""Tabulate the polynomials for n = 1..N by both exact routes.

Prints each polynomial with its degree, symmetry status and any negative
coefficients, and confirms the count route and the determinant route agree.
"""

import argparse
import time

from ice_colors.exact import format_fraction
from ice_colors.lattice import count_table
from ice_colors.pn import pn_consistent, positivity_report, symmetry_check


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    for n in range(1, args.max_n + 1):
        started = time.perf_counter()
        table = count_table(n)
        poly = pn_consistent(n, table)
        elapsed = time.perf_counter() - started
        coeffs = " ".join(format_fraction(c) for c in poly.coeffs)
        print(f"n={n}  states={table.total()}  degree={max(poly.degree, 0)}  "
              f"time={elapsed:.2f}s")
        print(f"  coeffs (ascending): {coeffs}")
        print(f"  symmetry={symmetry_check(poly, n)}  "
              f"negative={positivity_report(poly)}")


if __name__ == "__main__":
    main()
