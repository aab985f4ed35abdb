"""Exact state enumeration and counting for the six-vertex/8VSOS lattice
with a reflecting end.

Geometry conventions for half-size ``n``:

* ``2n`` horizontal lattice rows, indexed ``r = 0 .. 2n-1`` from the bottom.
  Rows ``2i`` and ``2i+1`` are the lower and upper branch of the ``i``-th
  horizontal double line; the branches join at turn ``i`` on the left wall.
* ``n`` vertical lattice columns, indexed ``c = 0 .. n-1`` from the left.
* ``right[r][s]`` for ``s = 0 .. n`` holds the horizontal edge arrows of row
  ``r`` (``True`` = points right).  Segment ``0`` adjoins the turn, segment
  ``n`` is the outgoing right-boundary edge.
* ``up[c][t]`` for ``t = 0 .. 2n`` holds the vertical edge arrows of column
  ``c`` (``True`` = points up).  ``t = 0`` is the bottom boundary edge.
* ``turn_positive[i]`` is ``True`` when the flow enters turn ``i`` on the
  lower branch and leaves on the upper one (a "positive" turn).

Fixed boundary: bottom vertical edges point up, top vertical edges point
down, all right-boundary horizontal edges point right.

Faces form a ``(2n+1) x (n+1)`` grid, rows indexed bottom-up, columns
left-to-right (column 0 touches the wall, column n the right boundary).
Looking along any arrow, the face on the right is one lower than the face on
the left; the upper-left face is pinned to height 0.  This forces every wall
face to height 0 and the face inside a turn to -1 (positive turn) or +1
(negative turn).  Heights mod 3 give a proper three-coloring; a positive
turn face has color 2, a negative one color 1.
The east arrows of a column agree with the heights carried over from its
west side exactly when its every vertex obeys the ice rule, and the wall
column follows from the segment-0 arrows.  So heights exist exactly when
the ice rule holds everywhere and every turn matches its wall faces.
``state_violations`` checks one state by these rules, ``enumerate_states``
lists the states and ``count_table`` counts them without building any.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb
from typing import Iterator


class LatticeError(Exception):
    """Violation of the lattice model's structural rules."""


class IceRuleError(LatticeError):
    """A vertex does not have exactly two inward and two outward arrows."""


class InconsistentHeightsError(LatticeError):
    """Two propagation paths assign different heights to the same face."""


class LeftArrowError(LatticeError):
    """The next-to-last column does not carry exactly one left arrow."""


VERTEX_KINDS = ("a+", "a-", "b+", "b-", "c+", "c-")

# Vertex classification by the arrow pattern (W_right, E_right, S_up, N_up).
# Upper rows are read in the standard orientation; lower rows are read a
# quarter turn clockwise because the flow on the lower branch runs leftward.
_UPPER_KIND = {
    (True, True, True, True): "a+",
    (False, False, False, False): "a-",
    (True, True, False, False): "b+",
    (False, False, True, True): "b-",
    (True, False, False, True): "c+",
    (False, True, True, False): "c-",
}
_LOWER_KIND = {
    (False, False, True, True): "a+",
    (True, True, False, False): "a-",
    (True, True, True, True): "b+",
    (False, False, False, False): "b-",
    (False, True, True, False): "c+",
    (True, False, False, True): "c-",
}


@dataclass(frozen=True)
class LatticeState:
    """Arrow assignment on every edge and turn of the 2n x n lattice."""

    n: int
    right: tuple[tuple[bool, ...], ...]
    up: tuple[tuple[bool, ...], ...]
    turn_positive: tuple[bool, ...]


CountKey = tuple[int, int, int, int, int]  # (m, l, k0, k1, k2)
FaceGrid = tuple[tuple[int, ...], ...]  # face rows bottom-up, columns from the wall


def classify_vertex(upper: bool, w_right: bool, e_right: bool,
                    s_up: bool, n_up: bool) -> str:
    table = _UPPER_KIND if upper else _LOWER_KIND
    try:
        return table[(w_right, e_right, s_up, n_up)]
    except KeyError:
        raise IceRuleError(
            f"arrow pattern {(w_right, e_right, s_up, n_up)} breaks the ice rule"
        ) from None


@cache
def _column_kinds(west: tuple[bool, ...], east: tuple[bool, ...],
                  up: tuple[bool, ...]) -> tuple[str, ...]:
    """Kinds of one vertex column, bottom-up, from the horizontal arrows on
    its west and east sides and its vertical edges.

    Cached for the process: a column's kinds depend on its arrows only.  A
    column that breaks the ice rule raises and so is never cached."""
    return tuple(classify_vertex(r % 2 == 1, west[r], east[r], up[r], up[r + 1])
                 for r in range(len(west)))


def _kind_columns(state: LatticeState) -> list[tuple[str, ...]]:
    """Kind of every vertex, indexed [column][row]."""
    segments = tuple(zip(*state.right))  # horizontal arrows per segment, bottom-up
    return [_column_kinds(segments[c], segments[c + 1], state.up[c])
            for c in range(state.n)]


@cache
def _kinds_tally(kinds: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(map(kinds.count, VERTEX_KINDS))


def column_tallies(state: LatticeState) -> list[tuple[int, ...]]:
    """Vertex count per kind, in ``VERTEX_KINDS`` order, of each column from
    the wall, tallied once per distinct column; raises :class:`IceRuleError`
    where a vertex breaks the ice rule."""
    return [_kinds_tally(kinds) for kinds in _kind_columns(state)]


def vertex_kinds(state: LatticeState) -> tuple[tuple[str, ...], ...]:
    """Kind of every vertex, indexed [row][column]."""
    return tuple(zip(*_kind_columns(state)))


# Completions (leaving, other) of a vertex whose entering and side arrows are
# known, keyed by how many of the two must still point inward.  True is up or
# right: into the vertex for entering and side arrows, out of it for leaving
# and other ones.  Order is fixed so the walks are deterministic.
_COMPLETIONS = {
    0: ((True, True),),
    1: ((True, False), (False, True)),
    2: ((False, False),),
}


def _line_fills(side: tuple[bool, ...], entering: bool, leaving: bool
                ) -> list[tuple[tuple[bool, ...], tuple[bool, ...]]]:
    """Every ice-rule fill of a line of vertices whose ``side`` arrows come
    in from one side: ``(along, other)`` pairs of the arrows along the line,
    from ``entering`` into the first vertex to ``leaving`` out of the last,
    and the arrows out of its other side.  Pairs come in the order of a
    search that tries each vertex's ``_COMPLETIONS`` in turn, the first
    vertex varying slowest."""
    fills = [((entering,), ())]
    for arrow in side:
        fills = [(along + (out,), other + (beside,))
                 for along, other in fills
                 for out, beside in _COMPLETIONS[2 - arrow - along[-1]]]
    return [fill for fill in fills if fill[0][-1] == leaving]


def _column_fills(west: tuple[bool, ...], last: bool
                  ) -> list[tuple[tuple[bool, ...], tuple[bool, ...]]]:
    """Every way to fill one lattice column whose west arrows are ``west``:
    ``(up, east)`` pairs in ``_line_fills`` order, its vertical edges from
    the bottom one (up) to the top one (down) and its east arrows bottom-up,
    all pointing right in the ``last`` column."""
    return [fill for fill in _line_fills(west, True, False) if not last or all(fill[1])]


def enumerate_states(n: int) -> Iterator[LatticeState]:
    """Yield every admissible state exactly once, in a fixed order.

    A depth-first search fills one lattice column at a time, from the wall
    rightward, each by a ``_line_fills`` walk up the column; the fills of a
    column depend only on its west arrows and on whether it is the last
    column, so they are listed once per call.  The order is the turn signs in
    ``itertools.product`` order, then, column by column and bottom-up within
    a column, each vertex's ``_COMPLETIONS`` in turn, the earliest vertex
    varying slowest.  ``enumerate --dump`` prints this order and
    ``theta.partition_brute`` sums in it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fills = cache(_column_fills)  # memos live for this call only
    ups: list[tuple[bool, ...]] = [()] * n
    easts: list[tuple[bool, ...]] = [()] * n

    def search(c: int, west: tuple[bool, ...]) -> Iterator[LatticeState]:
        last = c == n - 1
        for up, east in fills(west, last):
            ups[c], easts[c] = up, east
            if last:
                yield LatticeState(n, tuple(zip(wall, *easts)), tuple(ups), turns)
            else:
                yield from search(c + 1, east)

    for turns in product((False, True), repeat=n):
        # Positive turn: lower branch arrow points left (into the turn),
        # upper branch arrow points right (out of it).  Negative: reversed.
        wall = tuple(arrow for pos in turns for arrow in (not pos, pos))
        yield from search(0, wall)


def _wall_heights(state: LatticeState) -> list[int]:
    """Wall face heights, bottom-up, down from the pinned top face (0)
    through the segment-0 horizontal arrows."""
    wall = [0] * (2 * state.n + 1)
    for r in range(2 * state.n - 1, -1, -1):
        wall[r] = wall[r + 1] - (1 if state.right[r][0] else -1)
    return wall


def heights(state: LatticeState) -> FaceGrid:
    """Face heights by a direct scan, then a check of every constraint.

    Each arrow fixes the difference across it (the face on its right is one
    lower), and each turn puts its inner face one below (positive) or one
    above (negative) both wall faces beside it.  The scan walks down the
    wall column from the pinned upper-left face through the segment-0
    horizontal arrows and fills each face row rightward through the
    vertical arrows.  The constraints not used on the way, horizontal
    segments 1..n and both sides of every turn, are then checked, so any
    ice-rule or turn bookkeeping bug surfaces here as
    :class:`InconsistentHeightsError`.
    """
    n = state.n

    def mismatch(face, found, want):
        return InconsistentHeightsError(
            f"face {face} reachable with heights {found} and {want}")

    wall = _wall_heights(state)
    grid = []
    for fr, h in enumerate(wall):
        row = [h]
        for c in range(n):
            h += -1 if state.up[c][fr] else 1
            row.append(h)
        grid.append(row)

    for r in range(2 * n):
        below, above, arrows = grid[r], grid[r + 1], state.right[r]
        for s in range(1, n + 1):
            want = below[s] + (1 if arrows[s] else -1)
            if above[s] != want:
                raise mismatch((r + 1, s), above[s], want)
    for i, pos in enumerate(state.turn_positive):
        inner = wall[2 * i + 1]
        for side in (wall[2 * i], wall[2 * i + 2]):
            want = side + (-1 if pos else 1)
            if inner != want:
                raise mismatch((2 * i + 1, 0), inner, want)
    return tuple(map(tuple, grid))


def left_arrow_row(state: LatticeState) -> int:
    """Row (1-based from below) of the unique left arrow at segment n-1."""
    n = state.n
    hits = [r for r in range(2 * n) if not state.right[r][n - 1]]
    if len(hits) != 1:
        raise LeftArrowError(
            f"expected one left arrow at segment {n - 1}, found rows {hits}"
        )
    return hits[0] + 1


def state_violations(state: LatticeState) -> list[str]:
    """Every exact per-state rule, as human-readable failures or a broken
    lattice rule's message.  No face grid: heights exist exactly when every
    vertex obeys the ice rule and each turn matches its wall faces, and then
    each turn face has its color (module docstring)."""
    n = state.n
    shape = [*map(len, state.right), *map(len, state.up), len(state.turn_positive)]
    if shape != [n + 1] * (2 * n) + [2 * n + 1] * n + [n]:
        return ["face count"]
    try:
        tallies, l = column_tallies(state), left_arrow_row(state)
    except LatticeError as err:
        return [str(err)]
    _, _, b_p, b_m, c_p, c_m = map(sum, zip(*tallies))
    _, _, last_b_p, last_b_m, last_c_p, last_c_m = tallies[-1]
    bad = []
    if b_p != b_m + comb(n + 1, 2):
        bad.append("b+ / b- census identity")
    if c_p + 2 * state.turn_positive.count(False) != c_m + n:
        bad.append("c+ / c- / k- census identity")
    if last_b_p != n or last_b_m != 0:
        bad.append("rightmost-column b census")
    if last_c_p != (1 if l % 2 == 1 else 0):
        bad.append("rightmost-column c+ count")
    if last_c_m != (1 if l % 2 == 0 else 0):
        bad.append("rightmost-column c- count")
    wall = _wall_heights(state)
    for i, pos in enumerate(state.turn_positive):
        inner, step = wall[2 * i + 1], -1 if pos else 1
        if inner != wall[2 * i] + step or inner != wall[2 * i + 2] + step:
            bad.append(f"turn {i} heights")
    return bad


@dataclass
class CountTable:
    """Aggregated state counts keyed by (m, l, k0, k1, k2)."""

    n: int
    counts: dict[CountKey, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def records(self) -> list[dict]:
        return [{"m": m, "l": l, "k0": k0, "k1": k1, "k2": k2, "count": count}
                for (m, l, k0, k1, k2), count in sorted(self.counts.items())]

    def to_json(self) -> str:
        return json.dumps(self.records())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["m", "l", "k0", "k1", "k2", "count"])
        for key, count in sorted(self.counts.items()):
            writer.writerow([*key, count])
        return buf.getvalue()


def _row_fills(below: tuple[bool, ...], w0: bool) -> list[tuple[tuple[bool, ...], bool]]:
    """Every vertex row over the vertical edges ``below`` whose turn-side
    arrow is ``w0`` and whose right-boundary arrow points right, as
    ``(above, left)`` pairs in ``_line_fills`` order: the vertical edges
    above the row, and whether segment ``n-1`` points left."""
    return [(above, not along[-2]) for along, above in _line_fills(below, w0, True)]


def _face_colors(edges: tuple[bool, ...], wall: int) -> tuple[int, int, int]:
    """Faces per color in one face row, from its wall face height and the
    vertical edges crossing it (an up arrow lowers the next face by one)."""
    tally = [0, 0, 0]
    h = wall
    tally[h % 3] += 1
    for edge in edges:
        h += -1 if edge else 1
        tally[h % 3] += 1
    return (tally[0], tally[1], tally[2])


def count_table(n: int) -> CountTable:
    """Count the states in every (m, l, k0, k1, k2) cell by row transfer.

    The frontier maps (vertical edges, m, l, k0, k1, k2) to a state count and
    advances one turn (a lower and an upper lattice row) at a time; the
    transfer structure is Kuperberg's U-turn/VSASM one (arXiv:math/0008184).
    A face row's colors follow from its vertical edges and its wall face: 0
    on even face rows, -1 or +1 inside a positive or negative turn.  Each
    lattice row is a ``_line_fills`` walk from the turn rightward, the same
    ice-rule fill the state walk runs up each column, memoised per (edges
    below, turn-side arrow).  No state is built; ``enumerate_states`` is the
    per-state reference.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fill = cache(_row_fills)  # memos live for this call only
    face_colors = cache(_face_colors)

    def left_row(l, left, row):
        if not left:
            return l
        if l is not None:
            raise LeftArrowError(
                f"left arrows at segment {n - 1} in rows {l} and {row}")
        return row

    bottom = (True,) * n
    frontier = Counter({(bottom, 0, None, *_face_colors(bottom, 0)): 1})
    for i in range(n):
        advanced: Counter = Counter()
        for (below, m, l, k0, k1, k2), cnt in frontier.items():
            for positive in (False, True):
                turn_face = -1 if positive else 1
                for mid, left_lower in fill(below, not positive):
                    l_mid = left_row(l, left_lower, 2 * i + 1)
                    a0, a1, a2 = face_colors(mid, turn_face)
                    for above, left_upper in fill(mid, positive):
                        b0, b1, b2 = face_colors(above, 0)
                        key = (above, m + positive,
                               left_row(l_mid, left_upper, 2 * i + 2),
                               k0 + a0 + b0, k1 + a1 + b1, k2 + a2 + b2)
                        advanced[key] += cnt
        frontier = advanced

    top = (False,) * n
    total: Counter = Counter()
    for (edges, m, l, k0, k1, k2), cnt in frontier.items():
        if edges != top:
            continue
        if l is None:
            raise LeftArrowError(f"a state has no left arrow at segment {n - 1}")
        total[(m, l, k0, k1, k2)] += cnt
    return CountTable(n, dict(total))


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
            arrows = "---".join(">" if a else "<" for a in state.right[r])
            lines.append(f" {mark} {arrows}")
    return "\n".join(lines) + "\n"
