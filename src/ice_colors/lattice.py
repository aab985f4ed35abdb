"""Exact state enumeration and counting for the six-vertex/8VSOS lattice
with a reflecting end.

Geometry conventions for half-size ``n``:

* ``2n`` horizontal lattice rows, indexed ``r = 0 .. 2n-1`` from the bottom.
  Rows ``2i`` and ``2i+1`` are the lower and upper branch of the ``i``-th
  horizontal double line; the branches join at turn ``i`` on the left wall.
* ``n`` vertical lattice columns, indexed ``c = 0 .. n-1`` from the left.
* ``segments[s][r]`` for ``s = 0 .. n`` holds the horizontal edge arrow of
  row ``r`` at segment ``s`` (``True`` = points right), so each segment is
  a column of arrows, bottom-up.  Segment ``0`` adjoins the turns, segment
  ``n`` is the outgoing right boundary.
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
west side exactly when its every vertex obeys the ice rule, and a turn
matches its wall faces exactly when its two segment-0 arrows follow its flow.
So heights exist exactly when both hold everywhere (Lenard's bijection):
``column_violations`` judges a state by these rules, and ``heights`` trusts
it.  ``column_walk`` lists the states as these columns, and
``enumerate_states`` wraps each in a ``LatticeState``.  ``row_transfer`` is
the one sum over them, a double line at a time and building none:
``count_table`` counts them by it, and ``theta.partition_transfer`` sums
their weights.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
from functools import cache
from itertools import product
from math import comb
from operator import not_
from typing import Iterator, NamedTuple


class LatticeError(Exception):
    """Violation of the lattice model's structural rules."""


class IceRuleError(LatticeError):
    """A vertex does not have exactly two inward and two outward arrows."""


class LeftArrowError(LatticeError):
    """The next-to-last column does not carry exactly one left arrow."""


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


CountKey = tuple[int, int, int, int, int]  # (m, l, k0, k1, k2)
FaceGrid = tuple[tuple[int, ...], ...]  # face rows bottom-up, columns from the wall
Columns = tuple[tuple[bool, ...], ...]  # arrows per lattice column or segment, bottom-up
LineFill = tuple[tuple[bool, ...], tuple[bool, ...]]  # (along, other) of one line


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


@cache
def _column_tally(west: tuple[bool, ...], east: tuple[bool, ...],
                  up: tuple[bool, ...]) -> tuple[int, ...]:
    """Vertex count per kind, in ``VERTEX_KINDS`` order, of one vertex
    column from the horizontal arrows on its west and east sides and its
    vertical edges; raises :class:`IceRuleError` where a vertex breaks the
    ice rule.

    Cached for the process: a column's tally depends on its arrows only.  A
    column that breaks the ice rule raises and so is never cached."""
    kinds = [classify_vertex(r % 2 == 1, west[r], east[r], up[r], up[r + 1])
             for r in range(len(west))]
    return tuple(map(kinds.count, VERTEX_KINDS))


# Completions (leaving, other) of a vertex whose entering and side arrows are
# known, keyed by how many of the two must still point inward.  True is up or
# right: into the vertex for entering and side arrows, out of it for leaving
# and other ones.  Order is fixed so the walks are deterministic.
_COMPLETIONS = {
    0: ((True, True),),
    1: ((True, False), (False, True)),
    2: ((False, False),),
}


def line_fills(side: tuple[bool, ...], entering: bool, leaving: bool) -> list[LineFill]:
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


def column_walk(n: int) -> Iterator[tuple[Columns, Columns, tuple[bool, ...]]]:
    """Yield every admissible state once, in a fixed order, by columns:
    ``(segments, up, turns)``, each segment's horizontal arrows from the
    wall's (0) to the right boundary's (n), each lattice column's vertical
    edges, both bottom-up, and the turn signs.

    A depth-first search fills one lattice column at a time from the wall,
    each by a ``line_fills`` walk up it (listed once per call), all its east
    arrows pointing right in the last.  The order is the turn signs in
    ``itertools.product`` order, then, column by column and bottom-up, each
    vertex's ``_COMPLETIONS`` in turn, the earliest varying slowest."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ups: list[tuple[bool, ...]] = [()] * n
    segments: list[tuple[bool, ...]] = [()] * (n + 1)

    @cache  # memos live for this call only
    def fills(west: tuple[bool, ...], last: bool) -> list[LineFill]:
        return [fill for fill in line_fills(west, True, False) if not last or all(fill[1])]

    def search(c: int) -> Iterator[tuple[Columns, Columns, tuple[bool, ...]]]:
        last = c == n - 1
        for ups[c], segments[c + 1] in fills(segments[c], last):
            if last:
                yield tuple(segments), tuple(ups), turns
            else:
                yield from search(c + 1)

    for turns in product((False, True), repeat=n):
        # Positive turn: lower branch arrow points left (into the turn),
        # upper branch arrow points right (out of it).  Negative: reversed.
        segments[0] = tuple(arrow for pos in turns for arrow in (not pos, pos))
        yield from search(0)


def enumerate_states(n: int) -> Iterator[LatticeState]:
    """``column_walk``'s states, in its order: ``enumerate --dump`` prints it."""
    for columns in column_walk(n):
        yield LatticeState(n, *columns)


def heights(state: LatticeState) -> FaceGrid:
    """Face heights by a direct scan; the state is taken as valid.

    Each arrow makes the face on its right one lower.  The scan walks down
    the wall column from the pinned upper-left face (0) through the
    segment-0 arrows, then along each face row through the vertical arrows.
    It checks nothing: ``state_violations`` judges the state.
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


def state_violations(state: LatticeState) -> list[str]:
    """``column_violations`` of the state, or ``face count`` if misshapen."""
    n, segments, up, turns = state
    if (n < 1 or [*map(len, segments)] != [2 * n] * (n + 1)
            or [*map(len, up)] != [2 * n + 1] * n or len(turns) != n):
        return ["face count"]
    return column_violations(*state)


def column_violations(n: int, segments: Columns, up: Columns,
                      turns: tuple[bool, ...]) -> list[str]:
    """Every exact per-state rule of a state of size ``n`` as ``column_walk``
    yields it, as human-readable failures or a broken lattice rule's
    message, by Lenard's bijection (module docstring): one ``_column_tally``
    lookup per column, no face grid, and a message only for a failed rule."""
    b = c = 0
    try:
        for west, east, column in zip(segments, segments[1:], up):
            _, _, b_p, b_m, c_p, c_m = _column_tally(west, east, column)
            b += b_p - b_m
            c += c_p - c_m
    except IceRuleError as err:
        return [str(err)]
    last = segments[n - 1]
    if last.count(False) != 1:
        lefts = [r for r, arrow in enumerate(last) if not arrow]
        return [f"expected one left arrow at segment {n - 1}, found rows {lefts}"]
    odd = last.index(False) % 2 == 0  # the left arrow's row l, 1-based, is odd
    bad = []
    if b != comb(n + 1, 2):
        bad.append("b+ / b- census identity")
    if c + 2 * turns.count(False) != n:
        bad.append("c+ / c- / k- census identity")
    if b_p != n or b_m != 0:  # b_p .. c_m: the loop's last, the rightmost column
        bad.append("rightmost-column b census")
    if c_p != odd:
        bad.append("rightmost-column c+ count")
    if c_m != (not odd):
        bad.append("rightmost-column c- count")
    wall = segments[0]
    if wall[1::2] != turns or wall[::2] != tuple(map(not_, turns)):
        bad += [f"turn {i} heights" for i, pos in enumerate(turns)
                if (wall[2 * i], wall[2 * i + 1]) != (not pos, pos)]
    return bad


class CountTable(NamedTuple):
    """Aggregated state counts keyed by (m, l, k0, k1, k2); a ``NamedTuple``,
    cheaper to define at import than a dataclass."""

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


def double_line_fills(below: tuple[bool, ...],
                      fills) -> list[tuple[bool, LineFill, LineFill]]:
    """Every fill of one double line over the vertical edges ``below``, as
    ``(positive, lower, upper)``: its turn's sign and its two rows' ``(along,
    above)`` fills by ``fills``, a caller's per-call cache of ``line_fills``,
    from the turn to the right boundary, which points right.  A positive
    turn takes the flow in on the lower row."""
    return [(positive, lower, upper)
            for positive in (False, True)
            for lower in fills(below, not positive, True)
            for upper in fills(lower[1], positive, True)]


def row_transfer(n: int, start, step, add):
    """Fold the states' double lines bottom-up, building no state: Kuperberg's
    U-turn transfer (arXiv:math/0008184).  The frontier maps vertical edges
    to a value, ``start`` on the all-up bottom edges.  ``step(i, below)``
    gives double line ``i``'s ``(above, factor)`` pairs, and ``add(acc,
    value, factor)`` folds one into ``acc``, the value at ``above`` so far
    (``None`` at first).  Returns the value at the all-down top edges."""
    frontier = {(True,) * n: start}
    for i in range(n):
        advanced: dict = {}
        for below, value in frontier.items():
            for above, factor in step(i, below):
                advanced[above] = add(advanced.get(above), value, factor)
        frontier = advanced
    return frontier[(False,) * n]


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
    """Count the states in every (m, l, k0, k1, k2) cell by ``row_transfer``.

    A frontier value is a ``Counter`` of cells, with ``l = 0`` until the
    left arrow (segment ``n-1`` pointing left) is met.  A face row's colors
    follow from its vertical edges and its wall face: 0 on even face rows,
    -1 or +1 inside a positive or negative turn.  ``step`` tallies a double
    line's ``(dm, left rows, dk0, dk1, dk2)`` once per (edges below, edges
    above), and ``add`` shifts the cells by it.  No state is built;
    ``enumerate_states`` is the per-state reference.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    face_colors = cache(_face_colors)  # memos live for this call only
    fills = cache(line_fills)

    def step(i: int, below: tuple[bool, ...]):
        tallies: defaultdict[tuple[bool, ...], Counter] = defaultdict(Counter)
        for positive, (lower, mid), (upper, above) in double_line_fills(below, fills):
            lefts = tuple(row for row, along in ((2 * i + 1, lower), (2 * i + 2, upper))
                          if not along[-2])
            a0, a1, a2 = face_colors(mid, -1 if positive else 1)
            b0, b1, b2 = face_colors(above, 0)
            tallies[above][positive, lefts, a0 + b0, a1 + b1, a2 + b2] += 1
        return tallies.items()

    def add(acc: Counter | None, cells: Counter, tally: Counter) -> Counter:
        acc = Counter() if acc is None else acc
        met = any(l for _m, l, *_ks in cells)  # some state below has its left arrow
        for (dm, lefts, d0, d1, d2), ways in tally.items():
            if len(lefts) > 1 or lefts and met:
                raise LeftArrowError(f"two left arrows at segment {n - 1} in one state")
            row = sum(lefts)
            for (m, l, k0, k1, k2), cnt in cells.items():
                acc[m + dm, l + row, k0 + d0, k1 + d1, k2 + d2] += cnt * ways
        return acc

    bottom = Counter({(0, 0, *_face_colors((True,) * n, 0)): 1})
    top = row_transfer(n, bottom, step, add)
    if any(l == 0 for _m, l, *_ks in top):
        raise LeftArrowError(f"a state has no left arrow at segment {n - 1}")
    return CountTable(n, dict(top))


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
