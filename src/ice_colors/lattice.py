"""Exact counting for the six-vertex/8VSOS lattice with a reflecting end,
building no state.

Geometry conventions for half-size ``n``:

* ``2n`` horizontal lattice rows, indexed ``r = 0 .. 2n-1`` from the bottom.
  Rows ``2i`` and ``2i+1`` are the lower and upper branch of the ``i``-th
  horizontal double line; the branches join at turn ``i`` on the left wall.
  The flow enters a positive turn on the lower branch.
* ``n`` vertical lattice columns, indexed ``c = 0 .. n-1`` from the left.
  A row of vertical edges is read from the wall, ``True`` pointing up.
* Horizontal arrows are ``True`` when they point right.  Segment ``s`` of a
  row lies left of column ``s``: segment ``0`` adjoins the turns, segment
  ``n`` is the outgoing right boundary, and segment ``n-1`` carries the
  state's one left arrow, in row ``l - 1``.

Fixed boundary: bottom vertical edges point up, top vertical edges point
down, all right-boundary horizontal edges point right.

Faces form a ``(2n+1) x (n+1)`` grid, rows indexed bottom-up, columns
left-to-right (column 0 touches the wall, column n the right boundary).
Looking along any arrow, the face on the right is one lower than the face on
the left; the upper-left face is pinned to height 0.  This forces every wall
face to height 0 and the face inside a turn to -1 (positive turn) or +1
(negative turn).  Heights mod 3 give a proper three-coloring; a positive
turn face has color 2, a negative one color 1.

``row_transfer`` is the one sum over the states, a double line at a time.
One counting transfer runs on it, ``_packed_transfer``, with two readers:
``count_table`` keys each cell by its color-1 faces and reads the
``(m, l, k0, k1, k2)`` cells, and ``color_marginals`` keys no color and
reads the three ``(m, l, k_c)`` marginals.  ``theta.partition_transfer``
sums the states' weights on ``row_transfer`` too.  The states themselves,
one at a time, are in ``states``.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from functools import cache
from typing import NamedTuple


class LatticeError(Exception):
    """Violation of the lattice model's structural rules."""


class LeftArrowError(LatticeError):
    """The next-to-last column does not carry exactly one left arrow."""


CountKey = tuple[int, int, int, int, int]  # (m, l, k0, k1, k2)
Marginal = dict[tuple[int, int, int], int]  # (m, l, k_c) -> states
LineFill = tuple[tuple[bool, ...], tuple[bool, ...]]  # (along, other) of one line


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


def double_line_fills(below: tuple[bool, ...],
                      fills) -> list[tuple[bool, LineFill, LineFill]]:
    """Every fill of one double line over the vertical edges ``below``, as
    ``(positive, lower, upper)``: its turn's sign and its two rows' ``(along,
    above)`` fills by ``fills``, ``row_transfer``'s per-transfer cache of
    ``line_fills``, from the turn to the right boundary, which points
    right.  A positive turn takes the flow in on the lower row."""
    return [(positive, lower, upper)
            for positive in (False, True)
            for lower in fills(below, not positive, True)
            for upper in fills(lower[1], positive, True)]


def row_transfer(n: int, start, step, add):
    """Fold the states' double lines bottom-up, building no state: Kuperberg's
    U-turn transfer (arXiv:math/0008184).  The frontier maps vertical edges
    to a value, ``start`` on the all-up bottom edges.  ``step(i, below,
    fills)`` gives double line ``i``'s ``(above, factor)`` pairs from
    ``fills``, its ``double_line_fills`` over ``below``, and ``add(acc,
    value, factor)`` folds one into ``acc``, the value at ``above`` so far
    (``None`` at first).  Returns the value at the all-down top edges.  Line
    fills are memoized for this transfer only, so each follows
    ``_COMPLETIONS`` as it is when the transfer runs."""
    line = cache(line_fills)
    frontier = {(True,) * n: start}
    for i in range(n):
        advanced: dict = {}
        for below, value in frontier.items():
            for above, factor in step(i, below, double_line_fills(below, line)):
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


def _packed_transfer(n: int, joint: bool) -> list[tuple[int, int, int, int, int, int]]:
    """The states per (m, l, x), each cell's face colors packed, by
    ``row_transfer``: every nonzero ``(m, l, x, c, k_c, states)``.

    ``x`` is the count k1 of color-1 faces if ``joint``, else 0.  A frontier
    value maps (m, l, x) to three Python ints, one per color, each the
    generating function of its color count k_c at t = 2^W, W = 2n^2 + 1
    (Kronecker substitution; Harvey, arXiv:0712.4046): the states with k_c
    faces of color c are lane k_c, bits W*k_c up.  No lane can overflow into
    the next, since a state is fixed by its n(2n-1) interior vertical edges
    and its n turn signs, so fewer than 2^(2n^2) states share a cell.  If
    ``joint``, only color 0's lanes are seeded; the other two stay 0.

    ``l`` is 0 until the left arrow (segment ``n-1`` pointing left) is met.
    ``step`` sums 2^(W*dk_c) over double line ``i``'s fills per (edges
    above, dm, left-arrow row, dx), and ``add`` multiplies, so a double line
    shifts every state's count at once.  A face row's colors follow from its
    vertical edges and its wall face: 0 on even face rows, -1 or +1 inside a
    positive or negative turn.  Face colors are listed once per transfer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    width = 2 * n * n + 1
    face_colors = cache(_face_colors)  # a memo for this transfer only
    two_lefts = f"two left arrows at segment {n - 1} in one state"

    def step(i: int, below: tuple[bool, ...], fills):
        tallies: defaultdict[tuple[bool, ...], dict] = defaultdict(dict)
        for positive, (lower, mid), (upper, above) in fills:
            lefts = [row for row, along in ((2 * i + 1, lower), (2 * i + 2, upper))
                     if not along[-2]]
            if len(lefts) > 1:
                raise LeftArrowError(two_lefts)
            a0, a1, a2 = face_colors(mid, -1 if positive else 1)
            b0, b1, b2 = face_colors(above, 0)
            dks = (a0 + b0, a1 + b1, a2 + b2)
            lanes = tallies[above].setdefault(
                (positive, sum(lefts), dks[1] if joint else 0), [0, 0, 0])
            for c, dk in enumerate(dks):
                lanes[c] += 1 << width * dk
        return tallies.items()

    def add(acc: dict | None, cells: dict, tally: dict) -> dict:
        acc = {} if acc is None else acc
        met = any(l for _m, l, _x in cells)  # some state below has its left arrow
        for (dm, row, dx), (f0, f1, f2) in tally.items():
            if row and met:
                raise LeftArrowError(two_lefts)
            for (m, l, x), (v0, v1, v2) in cells.items():
                key = (m + dm, l + row, x + dx)
                if key in acc:
                    lanes = acc[key]
                    lanes[0] += v0 * f0
                    lanes[1] += v1 * f1
                    lanes[2] += v2 * f2
                else:
                    acc[key] = [v0 * f0, v1 * f1, v2 * f2]
        return acc

    k0, k1, k2 = _face_colors((True,) * n, 0)
    if joint:
        bottom = {(0, 0, k1): [1 << width * k0, 0, 0]}
    else:
        bottom = {(0, 0, 0): [1 << width * k0, 1 << width * k1, 1 << width * k2]}
    top = row_transfer(n, bottom, step, add)
    mask = (1 << width) - 1
    cells = []
    for (m, l, x), packed in top.items():
        if not l:
            raise LeftArrowError(f"a state has no left arrow at segment {n - 1}")
        for c, value in enumerate(packed):
            k = 0
            while value:
                if value & mask:
                    cells.append((m, l, x, c, k, value & mask))
                value >>= width
                k += 1
    return cells


def count_table(n: int) -> CountTable:
    """Count the states in every (m, l, k0, k1, k2) cell: the joint
    ``_packed_transfer`` keys k1 and packs k0; k2 is the rest of the
    (2n+1)(n+1) faces.  No state is built; ``states.enumerate_states`` is
    the per-state reference.
    """
    faces = (2 * n + 1) * (n + 1)
    return CountTable(n, {(m, l, k0, k1, faces - k0 - k1): count
                          for m, l, k1, _c, k0, count in _packed_transfer(n, True)})


def color_marginals(n: int) -> tuple[Marginal, Marginal, Marginal]:
    """The states per (m, l, k_c) for each face color c = 0, 1, 2: the three
    marginals of ``count_table(n)``, read from one ``_packed_transfer``
    that keys no color.
    """
    marginals: tuple[Marginal, Marginal, Marginal] = ({}, {}, {})
    for m, l, _x, c, k, count in _packed_transfer(n, False):
        marginals[c][m, l, k] = count
    return marginals
