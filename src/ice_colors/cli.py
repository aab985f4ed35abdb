"""Command-line entry point.

Subcommands: ``enumerate``, ``counts``, ``pn``, ``verify``, ``bench``.
Reports go to stdout (JSON unless CSV is requested), diagnostics to stderr.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or resource error.
``--time-budget`` bounds the whole computation by wall clock with a one-shot
interval timer (SIGALRM); nothing is written when it runs out.
Exact values are printed as num/den strings, never floats.  A fixed seed
makes every report byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time

from . import __version__
from .exact import SingularInputError, format_fraction
from .lattice import count_table, enumerate_states, render_state
from .pn import (VARIANTS, ConsistencyError, pn_consistent, positivity_report,
                 symmetry_check)
from .theta import ParamSampler
from .verify import (filali_suite, identity_suite, lattice_suite,
                     specialization_suite)

SUITES = ("lattice", "theta", "filali", "specialization", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ice-colors",
        description="Exact workbench for the reflecting-end 8VSOS model "
                    "and its three-color polynomials.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, with_n=True):
        p.set_defaults(handler=handler)
        if with_n:
            p.add_argument("--n", type=int, required=True, help="lattice half-size")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--time-budget", type=float, default=None,
                       help="abort with exit 2 after this many seconds")

    p = sub.add_parser("enumerate", help="count states, optionally dump them")
    common(p, _cmd_enumerate)
    p.add_argument("--dump", action="store_true",
                   help="print an ASCII arrows+heights grid per state")

    p = sub.add_parser("counts", help="aggregate the (m, l, k0, k1, k2) table")
    common(p, _cmd_counts)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("pn", help="compute the polynomial with all cross-checks")
    common(p, _cmd_pn)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, _cmd_verify, with_n=False)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3,
                   help="largest half-size for the lattice suite")

    p = sub.add_parser("bench", help="time the main computations")
    common(p, _cmd_bench)
    return parser


def _emit(text: str, args: argparse.Namespace) -> bool:
    """Write the report; False, after one stderr line, if the write fails."""
    try:
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        else:
            # Resend what a short raw write (PYTHONUNBUFFERED) leaves unsent.
            sys.stdout.flush()
            data = memoryview((text if text.endswith("\n") else text + "\n")
                              .encode(sys.stdout.encoding))
            while data:
                data = data[sys.stdout.buffer.write(data):]
            sys.stdout.buffer.flush()
    except OSError as err:
        if not args.output:  # so the exit flush cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write {args.output or 'stdout'}: {err.strerror}", file=sys.stderr)
        return False
    return True


def _cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    if not args.dump:
        return json.dumps({"n": args.n, "states": count_table(args.n).total()}), 0
    dumps = [render_state(state) for state in enumerate_states(args.n)]
    return "\n".join(dumps) + f"\nstates: {len(dumps)}", 0


def _cmd_counts(args: argparse.Namespace) -> tuple[str, int]:
    table = count_table(args.n)
    return table.to_csv() if args.fmt == "csv" else table.to_json(), 0


def _cmd_pn(args: argparse.Namespace) -> tuple[str, int]:
    if args.n < 1:
        raise ValueError("pn needs n >= 1")
    poly = pn_consistent(args.n, count_table(args.n))
    variants_checked = [
        f"{v.tag}:m={m}" for v in VARIANTS for m in range(args.n + 1)
        if v.binomial(args.n, m) != 0
    ]
    negative = positivity_report(poly)
    report = {
        "n": args.n,
        "degree": max(poly.degree, 0),
        "coeffs": [format_fraction(c) for c in poly.coeffs],
        "variants_checked": variants_checked,
        "symmetry_ok": symmetry_check(poly, args.n),
        "negative_coeffs": [[i, format_fraction(c)] for i, c in negative],
    }
    return json.dumps(report), 0 if report["symmetry_ok"] and not negative else 1


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.suite in ("lattice", "all") and args.n < 1:
        raise ValueError("lattice suite needs n >= 1")
    sampler = ParamSampler(args.seed)
    reports = []
    if args.suite in ("lattice", "all"):
        reports += lattice_suite(max_n=args.n)
    if args.suite in ("theta", "all"):
        reports += identity_suite(sampler, trials=max(args.trials, 100))
    if args.suite in ("filali", "all"):
        reports += filali_suite(sampler, trials=args.trials)
    if args.suite in ("specialization", "all"):
        reports += specialization_suite(sampler, trials=max(1, args.trials // 4))
    return (json.dumps([r.to_record() for r in reports]),
            0 if all(r.passed for r in reports) else 1)


def _cmd_bench(args: argparse.Namespace) -> tuple[str, int]:
    timings = {}
    start = time.perf_counter()
    table = count_table(args.n)
    timings["count_table_s"] = time.perf_counter() - start
    start = time.perf_counter()
    pn_consistent(args.n, table)
    timings["pn_consistent_s"] = time.perf_counter() - start
    timings["states"] = table.total()
    return json.dumps({"n": args.n, **timings}), 0


def _time_out(signum, frame):
    raise TimeoutError


def _compute(args: argparse.Namespace) -> tuple[str, int]:
    """Run the handler; raise TimeoutError once --time-budget seconds pass."""
    seconds = args.time_budget
    if seconds is None:
        return args.handler(args)
    if math.isnan(seconds):
        raise ValueError("time budget must be a number")
    if seconds <= 0:
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, _time_out)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
        except OverflowError:  # past the clock's range: it never runs out
            pass
        try:
            return args.handler(args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        # Outside the disarm, so an alarm that fires during it cannot skip this.
        signal.signal(signal.SIGALRM, previous)


def run(args: argparse.Namespace) -> int:
    try:
        text, code = _compute(args)
    except TimeoutError:
        print("time budget exhausted", file=sys.stderr)
        return 2
    except (ConsistencyError, SingularInputError) as err:
        print(f"exact check failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    return code if _emit(text, args) else 2


def main(argv=None) -> None:
    sys.exit(run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    main()
