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

``row_transfer`` is the one sum over the states, a double line at a time:
``count_table`` counts them by it in ``(m, l, k0, k1, k2)`` cells,
``color_marginals`` in the three ``(m, l, k_c)`` marginals, and
``theta.partition_transfer`` sums their weights.  The states themselves,
one at a time, are in ``states``.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
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


def _double_line_shifts(n: int):
    """A transfer's ``shifts(i, below)``: every fill of double line ``i``
    over the vertical edges ``below`` as ``(above, positive, lefts, dk)``,
    its edges above, its turn's sign, the rows (1-based) of its left arrows
    at segment ``n-1`` and its faces per color.  A face row's colors follow
    from its vertical edges and its wall face: 0 on even face rows, -1 or +1
    inside a positive or negative turn.  Fills and face colors are listed
    once per transfer."""
    face_colors = cache(_face_colors)  # memos live for this transfer only
    fills = cache(line_fills)

    def shifts(i: int, below: tuple[bool, ...]):
        for positive, (lower, mid), (upper, above) in double_line_fills(below, fills):
            lefts = tuple(row for row, along in ((2 * i + 1, lower), (2 * i + 2, upper))
                          if not along[-2])
            a0, a1, a2 = face_colors(mid, -1 if positive else 1)
            b0, b1, b2 = face_colors(above, 0)
            yield above, positive, lefts, (a0 + b0, a1 + b1, a2 + b2)

    return shifts


def _left_row(lefts: tuple[int, ...], met: bool, n: int) -> int:
    """The row a double line adds to ``l``: its one left arrow's, or 0; a
    second left arrow in one state, here or below (``met``), is an error."""
    if len(lefts) > 1 or lefts and met:
        raise LeftArrowError(f"two left arrows at segment {n - 1} in one state")
    return sum(lefts)


def _check_left_arrows(top, n: int) -> None:
    if any(key[1] == 0 for key in top):
        raise LeftArrowError(f"a state has no left arrow at segment {n - 1}")


def count_table(n: int) -> CountTable:
    """Count the states in every (m, l, k0, k1, k2) cell by ``row_transfer``.

    A frontier value is a ``Counter`` of cells, with ``l = 0`` until the
    left arrow (segment ``n-1`` pointing left) is met.  ``step`` tallies a
    double line's ``(dm, left rows, dk0, dk1, dk2)`` once per (edges below,
    edges above), and ``add`` shifts the cells by it.  No state is built;
    ``states.enumerate_states`` is the per-state reference.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shifts = _double_line_shifts(n)

    def step(i: int, below: tuple[bool, ...]):
        tallies: defaultdict[tuple[bool, ...], Counter] = defaultdict(Counter)
        for above, positive, lefts, (d0, d1, d2) in shifts(i, below):
            tallies[above][positive, lefts, d0, d1, d2] += 1
        return tallies.items()

    def add(acc: Counter | None, cells: Counter, tally: Counter) -> Counter:
        acc = Counter() if acc is None else acc
        met = any(l for _m, l, *_ks in cells)  # some state below has its left arrow
        for (dm, lefts, d0, d1, d2), ways in tally.items():
            row = _left_row(lefts, met, n)
            for (m, l, k0, k1, k2), cnt in cells.items():
                acc[m + dm, l + row, k0 + d0, k1 + d1, k2 + d2] += cnt * ways
        return acc

    bottom = Counter({(0, 0, *_face_colors((True,) * n, 0)): 1})
    top = row_transfer(n, bottom, step, add)
    _check_left_arrows(top, n)
    return CountTable(n, dict(top))


def color_marginals(n: int) -> tuple[Marginal, Marginal, Marginal]:
    """The states per (m, l, k_c) for each face color c = 0, 1, 2: the three
    marginals of ``count_table(n)``, in one ``row_transfer`` pass.

    A frontier value maps (m, l) to three Python ints, one per color, each
    the generating function of its color count k_c at t = 2^W, W = 2n^2 + 1
    (Kronecker substitution; Harvey, arXiv:0712.4046): the states with k_c
    faces of color c are lane k_c, bits W*k_c up.  No lane can overflow into
    the next, since a state is fixed by its n(2n-1) interior vertical edges
    and its n turn signs, so fewer than 2^(2n^2) states share a cell.
    ``step`` sums 2^(W*dk_c) per (edges above, dm, left rows) and ``add``
    multiplies, so a double line shifts every state's count at once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    width = 2 * n * n + 1
    shifts = _double_line_shifts(n)

    def step(i: int, below: tuple[bool, ...]):
        tallies: defaultdict[tuple[bool, ...], dict] = defaultdict(dict)
        for above, positive, lefts, dks in shifts(i, below):
            lanes = tallies[above].setdefault((positive, lefts), [0, 0, 0])
            for c, dk in enumerate(dks):
                lanes[c] += 1 << width * dk
        return tallies.items()

    def add(acc: dict | None, cells: dict, tally: dict) -> dict:
        acc = {} if acc is None else acc
        met = any(l for _m, l in cells)  # some state below has its left arrow
        for (dm, lefts), (f0, f1, f2) in tally.items():
            row = _left_row(lefts, met, n)
            for (m, l), (v0, v1, v2) in cells.items():
                key = (m + dm, l + row)
                if key in acc:
                    lanes = acc[key]
                    lanes[0] += v0 * f0
                    lanes[1] += v1 * f1
                    lanes[2] += v2 * f2
                else:
                    acc[key] = [v0 * f0, v1 * f1, v2 * f2]
        return acc

    bottom = {(0, 0): [1 << width * k for k in _face_colors((True,) * n, 0)]}
    top = row_transfer(n, bottom, step, add)
    _check_left_arrows(top, n)
    mask = (1 << width) - 1
    marginals: tuple[Marginal, Marginal, Marginal] = ({}, {}, {})
    for (m, l), packed in top.items():
        for marginal, value in zip(marginals, packed):
            k = 0
            while value:
                if value & mask:
                    marginal[m, l, k] = value & mask
                value >>= width
                k += 1
    return marginals
