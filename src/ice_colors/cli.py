"""Command-line entry point.

Subcommands: ``enumerate``, ``counts``, ``pn``, ``verify``, ``bench``.
Reports go to stdout (JSON unless CSV is requested), diagnostics to stderr.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or resource error.
``--time-budget`` bounds the whole run, the writing of its report included,
by wall clock with a one-shot interval timer (SIGALRM).  Every report but
``enumerate --dump`` is made whole before any of it is written, so nothing
is written when the budget runs out while it is made; a dump is written as
its states are made, and what it wrote stays.
``verify`` evaluates the pointwise identities in a forked worker
(``worker``) while it runs the other suites, the lattice suite included,
and prints the reports in the order lattice, theta, filali,
specialization; a failed worker makes it exit 2 with one stderr line.
Exact values are printed as num/den strings, never floats.  A fixed seed
makes every report byte-identical across runs.
``main`` freezes the heap (``gc.freeze``) on every way out, so the
interpreter's collections at exit skip the objects left alive then.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import sys
import time
from collections.abc import Iterator
from contextlib import nullcontext
from itertools import chain

from . import __version__
from .exact import SingularInputError, format_fraction
from .lattice import color_marginals, count_table
from .pn import (VARIANTS, ConsistencyError, pn_consistent, positivity_report,
                 symmetry_check)

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


def _emit(report: str | Iterator[str], args: argparse.Namespace) -> bool:
    """Write the report, ending in one newline, to ``--output`` or stdout,
    the same bytes either way; False, after one stderr line, if that fails.
    An iterator's strings are written as they are made; nothing is opened
    before the first is made."""
    chunks = iter([report if report.endswith("\n") else report + "\n"]
                  if isinstance(report, str) else report)
    first = [next(chunks)]
    try:
        with (nullcontext(sys.stdout.buffer) if args.output is None
              else open(args.output, "wb")) as handle:  # an empty path is a path too
            sys.stdout.flush()
            for text in chain(first, chunks):
                data = memoryview(text.encode(sys.stdout.encoding))
                # Resend what a short raw write (PYTHONUNBUFFERED) leaves unsent.
                while data:
                    data = data[handle.write(data):]
            handle.flush()
    except TimeoutError:  # an OSError, but the time budget's
        raise
    except OSError as err:
        if args.output is None:  # so the exit flush cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "stdout" if args.output is None else args.output
        print(f"cannot write {where}: {err.strerror}", file=sys.stderr)
        return False
    return True


def _dump(n: int) -> Iterator[str]:
    """Each state's grid, then the number of states."""
    from .states import enumerate_states, render_state  # only --dump builds states

    count = 0
    for count, state in enumerate(enumerate_states(n), 1):
        yield render_state(state) + "\n"
    yield f"states: {count}\n"


def _cmd_enumerate(args: argparse.Namespace) -> tuple[str | Iterator[str], int]:
    if not args.dump:
        states = sum(color_marginals(args.n)[0].values())
        return json.dumps({"n": args.n, "states": states}), 0
    return _dump(args.n), 0


def _cmd_counts(args: argparse.Namespace) -> tuple[str, int]:
    table = count_table(args.n)
    return table.to_csv() if args.fmt == "csv" else table.to_json(), 0


def _cmd_pn(args: argparse.Namespace) -> tuple[str, int]:
    poly = pn_consistent(args.n)
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
    # Only verify compiles theta, verify and the worker.
    from .theta import ParamSampler
    from .verify import (filali_suite, identity_draws, identity_reports,
                         lattice_suite, specialization_suite)
    from .worker import forked

    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    if "lattice" in suites and args.n < 1:
        raise ValueError("lattice suite needs n >= 1")
    sampler = ParamSampler(args.seed)
    draws = identity_draws(sampler, max(args.trials, 100)) if "theta" in suites else []
    with (forked("identity worker", lambda: identity_reports(draws))
          if draws else nullcontext(list)) as identity:
        draws.clear()  # the worker has its own copy
        lattice = lattice_suite(args.n) if "lattice" in suites else []
        reports = filali_suite(sampler, trials=args.trials) if "filali" in suites else []
        if "specialization" in suites:
            reports += specialization_suite(sampler, trials=max(1, args.trials // 4))
        records = ([r.to_record() for r in lattice] + identity()
                   + [r.to_record() for r in reports])
    return json.dumps(records), 0 if all(r["pass"] for r in records) else 1


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


def _report(args: argparse.Namespace) -> int:
    """Run the handler and write its report; the exit code."""
    report, code = args.handler(args)
    return code if _emit(report, args) else 2


def _compute(args: argparse.Namespace) -> int:
    """``_report``; raise TimeoutError once --time-budget seconds pass."""
    seconds = args.time_budget
    if seconds is None:
        return _report(args)
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
            return _report(args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        # Outside the disarm, so an alarm that fires during it cannot skip this.
        signal.signal(signal.SIGALRM, previous)


def run(args: argparse.Namespace) -> int:
    try:
        return _compute(args)
    except TimeoutError:
        print("time budget exhausted", file=sys.stderr)
        return 2
    except (ConsistencyError, SingularInputError) as err:
        print(f"exact check failed: {err}", file=sys.stderr)
        return 1
    except (ValueError, ChildProcessError) as err:
        print(str(err), file=sys.stderr)
        return 2


def main(argv=None) -> None:
    try:
        sys.exit(run(build_parser().parse_args(argv)))
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
