"""The lattice suite, and the forked workers of ``ice-colors verify``.

``lattice_suite`` checks every state of each size by the rules of Lenard's
bijection (``states`` docstring), in a fold along ``states.column_walk``'s
search; it and its ``IdentityReport`` live here, apart from the numeric
layer, and ``verify`` imports only the latter, for its own reports.
``forked(name, work)`` runs ``work()`` in a child made by ``os.fork``
(POSIX only, like the ``SIGALRM`` timer of ``--time-budget``) while the
parent goes on.
``verify`` forks two: the lattice worker first, before it loads ``theta``
and ``verify`` (that worker needs neither), then, once the parent has drawn
the pointwise identities' arguments, the identity worker that evaluates
them; the parent runs the other sampler suites meanwhile.  A child sends
the records of its reports back as JSON through a pipe; it never writes to
stdout and ends in ``os._exit`` on every path.  A worker that cannot start
or does not exit 0 raises ``ChildProcessError`` with a one-line message
naming it.  The parent kills and reaps a worker still running when it
leaves the ``with`` block, whatever ends it; a worker whose parent died
without that exits by itself.  Called directly, ``lattice_suite`` runs in
the caller's process.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from contextlib import contextmanager
from functools import cache
from itertools import product
from math import comb
from operator import not_
from typing import NamedTuple

from .states import IceRuleError, column_fills, column_tally, wall_arrows


class IdentityReport(NamedTuple):
    name: str
    trials: int
    max_rel_residual: float
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "max_rel_residual": self.max_rel_residual,
            "pass": self.passed,
        }


def _check_states(n: int) -> tuple[int, int]:
    """``(states, failures)`` of size ``n``: each state of ``column_walk``'s
    search is a leaf of a depth-first fold over it, failed unless every
    vertex obeys the ice rule, b+ - b- = C(n+1, 2), c+ - c- + 2 k- = n,
    segment n-1 holds one left arrow and the rightmost column's census
    matches its row, and the wall's arrows match the turns.

    The fold carries b+ - b- and c+ - c- from the wall and whether every
    rule holds so far.  Each column's fills are listed once per distinct
    west side with their ``column_tally`` census, so a column breaking the
    ice rule fails every state below it, which is still counted.  The
    left-arrow check runs once per distinct segment n-1, the census
    identities once per segment-(n-1) node, and the wall check, on the
    ``states.wall_arrows`` the walk starts from, once per turn-sign tuple;
    a leaf only compares its last column's census with the one its row
    forces.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b_before_last = comb(n + 1, 2) - n
    states = failures = 0

    @cache  # memos live for this call only
    def columns(west: tuple[bool, ...], last: bool) -> list[tuple]:
        """``(east, (b+, b-, c+, c-))`` per fill of the column east of
        ``west``, or ``(east, None)`` where a vertex breaks the ice rule."""
        listed = []
        for up, east in column_fills(west, last):
            try:
                listed.append((east, column_tally(west, east, up)[2:]))
            except IceRuleError:
                listed.append((east, None))
        return listed

    @cache
    def last_column(west: tuple[bool, ...]) -> tuple[int, list[bool]]:
        """For segment n-1 ``west``: the c+ - c- that its left-arrow row
        forces on the last column (n b+, no b-, and one c+ for an odd row or
        one c- for an even one), and per fill east of it whether ``west``
        holds one left arrow and the fill's census is the forced one."""
        one_left = west.count(False) == 1
        odd = one_left and west.index(False) % 2 == 0  # the row l, 1-based, is odd
        forced = (n, 0, odd, not odd)
        return (1 if odd else -1), [one_left and tally == forced
                                    for _, tally in columns(west, True)]

    def search(c: int, west: tuple[bool, ...], b: int, c_diff: int, ok: bool) -> None:
        nonlocal states, failures
        if c < n - 1:
            for east, tally in columns(west, False):
                if tally is None:
                    search(c + 1, east, b, c_diff, False)
                else:
                    b_p, b_m, c_p, c_m = tally
                    search(c + 1, east, b + b_p - b_m, c_diff + c_p - c_m, ok)
            return
        # With the forced last column, both census identities close here.
        c_last, passes = last_column(west)
        ok = ok and b == b_before_last and c_diff + c_last == c_needed
        for passed in passes:
            states += 1
            if not (ok and passed):
                failures += 1

    for turns in product((False, True), repeat=n):
        # The wall column_walk starts from, checked against the turns' flow.
        wall = wall_arrows(turns)
        c_needed = n - 2 * turns.count(False)  # the c+ - c- of all columns
        matched = wall[1::2] == turns and wall[::2] == tuple(map(not_, turns))
        search(0, wall, 0, 0, matched)
    return states, failures


def lattice_suite(max_n: int = 3) -> list[IdentityReport]:
    """One report per size up to ``max_n``: its states, and how many of
    them break a rule."""
    reports = []
    for n in range(1, max_n + 1):
        states, failures = _check_states(n)
        reports.append(
            IdentityReport(f"state_invariants_n{n}", states, float(failures),
                           failures == 0))
    return reports


@contextmanager
def _alarm_blocked():
    """Hold SIGALRM pending while the block runs, so the --time-budget timer
    raises only after it."""
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _serve(work, writer, parent: int) -> None:
    """The worker's whole life: send the records of the reports ``work()``
    returns as JSON, then ``os._exit``.

    A parent ended by a signal it does not handle (SIGKILL, or SIGTERM,
    whose default action ends it) runs no cleanup, so every half second of
    its own CPU time the worker exits if ``parent`` is no longer its parent.
    """
    def exit_if_orphaned(signum, frame):
        if os.getppid() != parent:
            os._exit(1)

    try:
        signal.signal(signal.SIGVTALRM, exit_if_orphaned)
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.5, 0.5)
        writer.write(json.dumps([r.to_record() for r in work()]).encode())
        writer.close()
        os._exit(0)
    except BaseException:
        try:
            sys.excepthook(*sys.exc_info())  # the traceback, to stderr
            sys.stderr.flush()
        finally:
            os._exit(1)


@contextmanager
def forked(name: str, work):
    """Run ``work()``, which returns reports, in a forked child, the worker
    ``name``, while the block runs; yield ``join()``, which waits for the
    child and returns the records of its reports.  Whatever ends the block,
    a child still running is killed and reaped.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError as err:
        raise ChildProcessError(f"cannot start the {name}: {err.strerror}") from None
    pid, parent = 0, os.getpid()
    with open(read_fd, "rb", buffering=0) as reader:  # read() reads to the end
        try:
            # The parent's copy of the write end closes at once, so read()
            # ends when the child's does.
            with open(write_fd, "wb") as writer:
                sys.stdout.flush()
                sys.stderr.flush()
                with _alarm_blocked():  # so no timeout falls between fork and pid
                    try:
                        pid = os.fork()
                    except OSError as err:
                        raise ChildProcessError(
                            f"cannot start the {name}: {err.strerror}") from None
                    if pid == 0:
                        reader.close()
                        _serve(work, writer, parent)

            def join() -> list[dict]:
                nonlocal pid
                data = reader.read()
                with _alarm_blocked():  # a reaped pid is never killed below
                    _, status = os.waitpid(pid, 0)
                    pid = 0
                code = os.waitstatus_to_exitcode(status)
                if code < 0:
                    raise ChildProcessError(
                        f"{name} killed by {signal.Signals(-code).name}")
                if code:
                    raise ChildProcessError(f"{name} exited with status {code}")
                return json.loads(data)

            yield join
        finally:
            if pid:
                with _alarm_blocked():
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
