"""The lattice's states one at a time: their walk, their column fills and
tallies, the lattice suite's rule checks, their face heights and their dump.

Only ``enumerate --dump``, the lattice suite (``check_states``, which
``verify.lattice_suite`` reports) and the state sum's vertex weights
(``theta``) need states or their vertices; counting them (``lattice``)
builds none and imports nothing from here.

A state of half-size ``n`` is held by columns (``lattice`` has the rows,
double lines, turns and faces):

* ``segments[s][r]`` for ``s = 0 .. n`` holds the horizontal edge arrow of
  row ``r`` at segment ``s`` (``True`` = points right), so each segment is
  a column of arrows, bottom-up.  Segment ``0`` adjoins the turns, segment
  ``n`` is the outgoing right boundary.
* ``up[c][t]`` for ``t = 0 .. 2n`` holds the vertical edge arrows of column
  ``c`` (``True`` = points up).  ``t = 0`` is the bottom boundary edge.
* ``turn_positive[i]`` is ``True`` when the flow enters turn ``i`` on the
  lower branch and leaves on the upper one (a "positive" turn).

The east arrows of a column agree with the heights carried over from its
west side exactly when its every vertex obeys the ice rule, and a turn
matches its wall faces exactly when its two segment-0 arrows follow its flow.
So heights exist exactly when both hold everywhere (Lenard's bijection):
``check_states`` judges the states by these rules in a column transfer
over ``column_walk``'s search, from each column's ``column_tally``, and
``heights`` trusts them.  ``column_walk`` lists the states as these columns,
each column by ``column_fills``, and ``enumerate_states`` wraps each in a
``LatticeState``.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
from math import comb
from operator import not_
from typing import Iterator, NamedTuple

from .lattice import LatticeError, LineFill, line_fills


class IceRuleError(LatticeError):
    """A vertex does not have exactly two inward and two outward arrows."""


VERTEX_KINDS = ("a+", "a-", "b+", "b-", "c+", "c-")

# Vertex classification by the arrow pattern (W_right, E_right, S_up, N_up).
# Upper rows are read in the standard orientation; lower rows are read a
# quarter turn clockwise because the flow on the lower branch runs leftward:
# turned so, a lower (W, E, S, N) reads as an upper (S, N, not E, not W).
_UPPER_KIND = {
    (True, True, True, True): "a+",
    (False, False, False, False): "a-",
    (True, True, False, False): "b+",
    (False, False, True, True): "b-",
    (True, False, False, True): "c+",
    (False, True, True, False): "c-",
}
_LOWER_KIND = {(not n, not s, w, e): kind for (w, e, s, n), kind in _UPPER_KIND.items()}


FaceGrid = tuple[tuple[int, ...], ...]  # face rows bottom-up, columns from the wall
Columns = tuple[tuple[bool, ...], ...]  # arrows per lattice column or segment, bottom-up


class LatticeState(NamedTuple):
    """Arrow assignment on every edge and turn of the 2n x n lattice, by
    columns as ``column_walk`` yields them (module docstring)."""

    n: int
    segments: Columns
    up: Columns
    turn_positive: tuple[bool, ...]


def classify_vertex(upper: bool, w_right: bool, e_right: bool,
                    s_up: bool, n_up: bool) -> str:
    table = _UPPER_KIND if upper else _LOWER_KIND
    try:
        return table[(w_right, e_right, s_up, n_up)]
    except KeyError:
        raise IceRuleError(
            f"arrow pattern {(w_right, e_right, s_up, n_up)} breaks the ice rule"
        ) from None


def column_tally(west: tuple[bool, ...], east: tuple[bool, ...],
                 up: tuple[bool, ...]) -> tuple[int, ...]:
    """Vertex count per kind, in ``VERTEX_KINDS`` order, of one vertex
    column from the horizontal arrows on its west and east sides and its
    vertical edges; raises :class:`IceRuleError` where a vertex breaks the
    ice rule."""
    kinds = [classify_vertex(r % 2 == 1, west[r], east[r], up[r], up[r + 1])
             for r in range(len(west))]
    return tuple(map(kinds.count, VERTEX_KINDS))


def wall_arrows(turns: tuple[bool, ...]) -> tuple[bool, ...]:
    """The segment-0 arrows, bottom-up, that ``column_walk`` and the lattice
    suite start each state from: a positive turn's lower branch arrow points
    left (into the turn) and its upper one right (out of it); a negative
    turn's the reverse."""
    return tuple(arrow for pos in turns for arrow in (not pos, pos))


def column_fills(west: tuple[bool, ...], last: bool) -> list[LineFill]:
    """Every fill ``(up, east)`` of the lattice column east of the segment
    arrows ``west``: a ``line_fills`` walk up it, bottom edge up and top edge
    down, with all its east arrows pointing right in the ``last`` column."""
    return [fill for fill in line_fills(west, True, False) if not last or all(fill[1])]


def column_walk(n: int) -> Iterator[tuple[Columns, Columns, tuple[bool, ...]]]:
    """Yield every admissible state once, in a fixed order, by columns:
    ``(segments, up, turns)``, each segment's horizontal arrows from the
    wall's (0) to the right boundary's (n), each lattice column's vertical
    edges, both bottom-up, and the turn signs.

    A depth-first search fills one lattice column at a time from the
    turn signs' ``wall_arrows``, each by ``column_fills`` (listed once per
    call).  The order is the turn signs in ``itertools.product`` order,
    then, column by column and bottom-up, each vertex's ``_COMPLETIONS`` in
    turn, the earliest varying slowest."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ups: list[tuple[bool, ...]] = [()] * n
    segments: list[tuple[bool, ...]] = [()] * (n + 1)

    fills = cache(column_fills)  # memos live for this call only

    def search(c: int) -> Iterator[tuple[Columns, Columns, tuple[bool, ...]]]:
        last = c == n - 1
        for ups[c], segments[c + 1] in fills(segments[c], last):
            if last:
                yield tuple(segments), tuple(ups), turns
            else:
                yield from search(c + 1)

    for turns in product((False, True), repeat=n):
        segments[0] = wall_arrows(turns)
        yield from search(0)


def check_states(n: int) -> tuple[int, int]:
    """``(states, failures)`` of size ``n``: each state of ``column_walk``'s
    search fails unless every vertex obeys the ice rule, b+ - b- = C(n+1, 2),
    c+ - c- + 2 k- = n, segment n-1 holds one left arrow and the rightmost
    column's census matches its row, and the wall's arrows match the turns.

    A column transfer sums the states instead of visiting them: its
    frontier maps (west side, b+ - b-, c+ - c- still to match, every rule
    held so far) to the number of partial states that reach it.  It starts
    from each turn-sign tuple's ``wall_arrows``, checked against the turns
    there, and advances one column at a time.  Each column's fills are
    listed once per distinct west side with their ``column_tally`` census,
    so a column breaking the ice rule fails every state through it, which
    is still counted.  The last column closes the frontier: its left-arrow
    check runs once per distinct segment n-1, and both census identities
    once per frontier entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

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
    def last_column(west: tuple[bool, ...]) -> tuple[int, int, int]:
        """For segment n-1 ``west``: the c+ - c- that its left-arrow row
        forces on the last column (n b+, no b-, and one c+ for an odd row or
        one c- for an even one), its number of fills, and how many of them
        pass: all fills with the forced census if ``west`` holds one left
        arrow, none otherwise."""
        one_left = west.count(False) == 1
        odd = one_left and west.index(False) % 2 == 0  # the row l, 1-based, is odd
        forced = (n, 0, odd, not odd)
        tallies = [tally for _, tally in columns(west, True)]
        return (1 if odd else -1), len(tallies), tallies.count(forced) if one_left else 0

    frontier = Counter()
    for turns in product((False, True), repeat=n):
        wall = wall_arrows(turns)
        matched = wall[1::2] == turns and wall[::2] == tuple(map(not_, turns))
        # The c+ - c- of all columns is n less twice the negative turns.
        frontier[wall, 0, n - 2 * turns.count(False), matched] += 1
    for _ in range(n - 1):
        advanced = Counter()
        for (west, b, c_left, ok), count in frontier.items():
            for east, tally in columns(west, False):
                if tally is None:
                    advanced[east, b, c_left, False] += count
                else:
                    b_p, b_m, c_p, c_m = tally
                    advanced[east, b + b_p - b_m, c_left - c_p + c_m, ok] += count
        frontier = advanced
        # Segment s's arrows hold n + s right arrows, so no west side recurs.
        columns.cache_clear()
    b_before_last = comb(n + 1, 2) - n
    states = failures = 0
    for (west, b, c_left, ok), count in frontier.items():
        c_last, fills, passes = last_column(west)
        if not (ok and b == b_before_last and c_left == c_last):
            passes = 0
        states += count * fills
        failures += count * (fills - passes)
    return states, failures


def enumerate_states(n: int) -> Iterator[LatticeState]:
    """``column_walk``'s states, in its order: ``enumerate --dump`` prints it."""
    for columns in column_walk(n):
        yield LatticeState(n, *columns)


def heights(state: LatticeState) -> FaceGrid:
    """Face heights by a direct scan; the state is taken as valid.

    Each arrow makes the face on its right one lower.  The scan walks down
    the wall column from the pinned upper-left face (0) through the
    segment-0 arrows, then along each face row through the vertical arrows.
    It checks nothing: ``check_states`` judges the states.
    """
    n = state.n
    wall = [0] * (2 * n + 1)
    for r in range(2 * n - 1, -1, -1):
        wall[r] = wall[r + 1] - (1 if state.segments[0][r] else -1)
    grid = []
    for fr, h in enumerate(wall):
        row = [h]
        for c in range(n):
            h += -1 if state.up[c][fr] else 1
            row.append(h)
        grid.append(tuple(row))
    return tuple(grid)


def render_state(state: LatticeState) -> str:
    """ASCII dump: arrows interleaved with the face height grid."""
    n = state.n
    grid = heights(state)
    lines = []
    for fr in range(2 * n, -1, -1):
        cells = []
        for fc in range(n + 1):
            cells.append(f"{grid[fr][fc]:>3}")
            if fc < n:
                cells.append("^" if state.up[fc][fr] else "v")
        lines.append("   " + " ".join(cells))
        if fr > 0:
            r = fr - 1
            mark = ")" if r % 2 == 0 else "("  # lower / upper branch of a pair
            arrows = "---".join(">" if seg[r] else "<" for seg in state.segments)
            lines.append(f" {mark} {arrows}")
    return "\n".join(lines) + "\n"
