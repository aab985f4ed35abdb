"""One benchmark operation, run in a fresh interpreter by benchmark/run.py.

    python3 benchmark/op.py WORKLOAD --seed N --marks FILE [--trace FILE]
                            [--setup-only]

The operation's report goes to stdout.  A JSON record of marks goes to
--marks: the end of the standard-library start-up (GAUGE_END) and of set-up
on the system-wide monotonic clock (so the parent can subtract its own spawn
time), the package's import time and the peak resident set.
With --trace the package's layer functions are wrapped after set-up and the
spans and counters go to that file.  With --setup-only the process stops
after set-up.  The package always comes from src/ of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# The standard-library modules ice_colors is built on, imported before the
# package so that the time from spawn to GAUGE_END gauges how fast the host
# starts a Python process right now, with nothing of the package in it.
import cmath  # noqa: F401
import collections  # noqa: F401
import concurrent.futures.process  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import io  # noqa: F401
import itertools  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401
import typing  # noqa: F401

GAUGE_END = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FIXTURE = os.path.join(HERE, "fixtures", "counts_n5.json")

CLI_ARGS = {
    "pn-n4": lambda seed: ["pn", "--n", "4"],
    "verify-n4": lambda seed: ["verify", "--suite", "all", "--n", "4",
                               "--trials", "20", "--seed", str(seed)],
}


def peak_rss_kb() -> int:
    """High-water resident set of this process image (VmHWM).

    ru_maxrss is not used: after a vfork-style spawn it also carries the
    parent's high-water mark from before exec.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def load_table(path: str):
    from ice_colors.lattice import CountTable

    with open(path) as handle:
        records = json.load(handle)
    counts = {(r["m"], r["l"], r["k0"], r["k1"], r["k2"]): r["count"]
              for r in records}
    return CountTable(5, counts)


def crossval(table) -> dict:
    from ice_colors import pn

    poly = pn.pn_consistent(5, table)
    return {
        "coeffs": [str(c) for c in poly.coeffs],
        "symmetry_ok": pn.symmetry_check(poly, 5),
        "negative_coeffs": [[i, str(c)] for i, c in pn.positivity_report(poly)],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(CLI_ARGS) + ["crossval-n5"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import ice_colors
    if args.workload in CLI_ARGS:
        from ice_colors import cli
    marks = {"gauge_end": GAUGE_END, "import_s": time.perf_counter() - start}
    if not os.path.abspath(ice_colors.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"ice_colors imported from {ice_colors.__file__}, "
                           f"not from {SRC}")
    table = load_table(FIXTURE) if args.workload == "crossval-n5" else None
    marks["setup_end"] = time.monotonic()

    tracer = None
    code = 0
    try:
        if args.setup_only:
            return 0
        if args.trace:
            import layers

            tracer = layers.install()
        if table is not None:
            print(json.dumps(crossval(table)))
        else:
            try:
                cli.main(CLI_ARGS[args.workload](args.seed))
            except SystemExit as exit_:
                code = 0 if exit_.code is None else exit_.code
        return code
    finally:
        sys.stdout.flush()
        marks["peak_rss_kb"] = peak_rss_kb()
        with open(args.marks, "w") as handle:
            json.dump(marks, handle)
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
