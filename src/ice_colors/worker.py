"""The forked worker of ``ice-colors verify``.

``forked(name, work)`` runs ``work()`` in a child made by ``os.fork``
(POSIX only, like the ``SIGALRM`` timer of ``--time-budget``) while the
parent goes on.  ``verify`` forks one, the identity worker, once the parent
has drawn the pointwise identities' arguments; it evaluates them while the
parent runs the lattice suite and the other sampler suites.  The child
sends ``work()``'s return value back as JSON through a pipe, unchanged, so
the worker knows nothing of what it carries; it never writes to stdout and
ends in ``os._exit`` on every path.  A worker that cannot start or does not
exit 0 raises ``ChildProcessError`` with a one-line message naming it.  The
parent kills and reaps a worker still running when it leaves the ``with``
block, whatever ends it; a worker whose parent died without that exits by
itself.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from contextlib import contextmanager


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
    """The worker's whole life: send what ``work()`` returns as JSON, then
    ``os._exit``.

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
        writer.write(json.dumps(work()).encode())
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
    """Run ``work()``, which returns a JSON-serializable value, in a forked
    child, the worker ``name``, while the block runs; yield ``join()``, which
    waits for the child and returns that value as JSON decodes it.  Whatever
    ends the block, a child still running is killed and reaped.
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

            def join():
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
