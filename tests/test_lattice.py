import hashlib
import json
from collections import Counter
from itertools import product
from math import comb, factorial
from operator import add, not_

import pytest

from ice_colors import lattice, states
from ice_colors.lattice import CountTable, LeftArrowError, color_marginals, count_table
from ice_colors.states import (VERTEX_KINDS, IceRuleError, LatticeState,
                               enumerate_states, heights, render_state,
                               wall_arrows)
from ice_colors.verify import lattice_suite

from oracles import (all_assignment_states, classified_grid, color_counts,
                     left_arrow_row, transfer_counts_by_m, vertex_census,
                     vertex_walk_states)


def column_violations(n, segments, up, turns):
    """The per-state reference for the lattice suite's verdicts: every exact
    rule of a state of size ``n`` by its columns (``LatticeState``), as
    human-readable failures or a broken lattice rule's message, by Lenard's
    bijection (``states`` docstring), from one ``column_tally`` per column
    and no face grid."""
    b = c = 0
    try:
        for west, east, column in zip(segments, segments[1:], up):
            _, _, b_p, b_m, c_p, c_m = states.column_tally(west, east, column)
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


def state_violations(state):
    """``column_violations`` of the state, or ``face count`` if misshapen."""
    n, segments, up, turns = state
    if (n < 1 or [*map(len, segments)] != [2 * n] * (n + 1)
            or [*map(len, up)] != [2 * n + 1] * n or len(turns) != n):
        return ["face count"]
    return column_violations(*state)


def state_key(s):
    """Per-state reference for a count-table key: (m, l, k0, k1, k2)."""
    return (sum(s.turn_positive), left_arrow_row(s), *color_counts(heights(s)))


def test_enumerate_states_rejects_n_below_1():
    for n in (0, -1):
        with pytest.raises(ValueError):
            next(enumerate_states(n))


def test_n1_two_states_with_expected_stats():
    recorded = sorted(map(state_key, enumerate_states(1)))
    assert recorded == [(0, 2, 3, 2, 1), (1, 1, 3, 1, 2)]


def test_enumeration_matches_all_assignment_oracle():
    for n in (1, 2):
        ours = set(enumerate_states(n))
        oracle = set(all_assignment_states(n))
        assert ours == oracle


def test_enumeration_counts_match_transfer_oracle():
    for n in (1, 2, 3):
        by_m = {}
        for s in enumerate_states(n):
            m = sum(s.turn_positive)
            by_m[m] = by_m.get(m, 0) + 1
        assert by_m == transfer_counts_by_m(n)


def test_vsasm_counts():
    # counts of states with no positive turn, frozen from the oracle
    expected = {1: 1, 2: 3, 3: 26}
    for n, want in expected.items():
        assert transfer_counts_by_m(n)[0] == want
        assert sum(1 for s in enumerate_states(n) if sum(s.turn_positive) == 0) == want


def test_deterministic_order():
    first = [s for s in enumerate_states(2)]
    second = [s for s in enumerate_states(2)]
    assert first == second


def test_enumeration_order_matches_vertex_walk():
    # Same states in the same order: --dump prints it and the brute
    # partition sum adds floats in it.
    for n in range(1, 5):
        assert list(enumerate_states(n)) == vertex_walk_states(n)


def test_heights_upper_left_zero_and_boundary():
    for n in (1, 2, 3):
        for s in enumerate_states(n):
            grid = heights(s)
            assert grid[2 * n][0] == 0
            assert [grid[2 * n][fc] for fc in range(n + 1)] == list(range(n + 1))
            assert [grid[fr][n] for fr in range(2 * n, -1, -1)] == list(
                range(n, -n - 1, -1))
            assert [grid[0][fc] for fc in range(n + 1)] == list(range(0, -n - 1, -1))
            for fr in range(0, 2 * n + 1, 2):
                assert grid[fr][0] == 0  # wall faces


def test_adjacent_faces_differ_by_one():
    for s in enumerate_states(2):
        grid = heights(s)
        for fr in range(5):
            for fc in range(3):
                if fc + 1 <= 2:
                    assert abs(grid[fr][fc] - grid[fr][fc + 1]) == 1
                if fr + 1 <= 4:
                    assert abs(grid[fr][fc] - grid[fr + 1][fc]) == 1


# An n=3 state whose heights and coloring were worked out by hand,
# frozen here as an oracle (each segment's arrows bottom-up).
REFERENCE_STATE = LatticeState(
    n=3,
    segments=(
        (True, False, False, True, True, False),
        (True, False, True, True, False, True),
        (True, True, True, False, True, True),
        (True, True, True, True, True, True),
    ),
    up=(
        (True, True, True, False, False, True, False),
        (True, True, False, False, True, False, False),
        (True, True, True, True, False, False, False),
    ),
    turn_positive=(False, True, False),
)
REFERENCE_COLORS = (
    (0, 2, 1, 0),
    (1, 0, 2, 1),
    (0, 2, 0, 2),
    (2, 0, 1, 0),
    (0, 1, 0, 1),
    (1, 0, 1, 2),
    (0, 1, 2, 0),
)


def test_reference_state_color_grid():
    assert REFERENCE_STATE in set(enumerate_states(3))
    colors = tuple(tuple(h % 3 for h in row) for row in heights(REFERENCE_STATE))
    assert colors == REFERENCE_COLORS
    assert state_key(REFERENCE_STATE) == (1, 4, 12, 9, 7)


def test_census_identities_all_states():
    for n in (1, 2, 3):
        for s in enumerate_states(n):
            counts, rightmost = vertex_census(s)
            assert counts["b+"] == counts["b-"] + comb(n + 1, 2)
            assert counts["c+"] + 2 * counts["k-"] == counts["c-"] + n
            assert rightmost["b+"] == n
            assert rightmost["b-"] == 0


def column_tallies(s):
    """Each column's tally from the wall, as ``state_violations`` reads
    them."""
    return [states.column_tally(s.segments[c], s.segments[c + 1], s.up[c])
            for c in range(s.n)]


def test_column_tallies_sum_to_oracle_census():
    for n in (1, 2, 3):
        for s in enumerate_states(n):
            counts, rightmost = vertex_census(s)
            tallies = column_tallies(s)
            assert len(tallies) == n
            assert tuple(map(sum, zip(*tallies))) == tuple(counts[k] for k in VERTEX_KINDS)
            assert tallies[-1] == tuple(rightmost[k] for k in VERTEX_KINDS)


@pytest.mark.parametrize("rows", [2, 4])
def test_column_ice_rule_is_height_consistency(rows):
    # Carry face heights across one column from its west side through its
    # vertical arrows (the face above a right arrow is one higher, the face
    # right of an up arrow one lower).  The east arrows agree with them
    # exactly when every vertex of the column obeys the ice rule, which is
    # why state_violations needs no face grid.
    cases = 0
    for bits in product((False, True), repeat=3 * rows + 1):
        west, east, up = bits[:rows], bits[rows:2 * rows], bits[2 * rows:]
        west_faces = [0]
        for arrow in west:
            west_faces.append(west_faces[-1] + (1 if arrow else -1))
        east_faces = [h + (-1 if arrow else 1) for h, arrow in zip(west_faces, up)]
        consistent = all(east_faces[r + 1] - east_faces[r] == (1 if east[r] else -1)
                         for r in range(rows))
        try:
            states.column_tally(west, east, up)
            ice_rule = True
        except IceRuleError:
            ice_rule = False
        assert ice_rule == consistent, (west, east, up)
        cases += 1
    assert cases == {2: 128, 4: 8192}[rows]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_turn_wall_faces_are_its_segment0_arrows(n):
    # Walk down the wall column from the pinned top face through every
    # segment-0 pattern.  A turn is one below (positive) or one above
    # (negative) both wall faces beside it exactly when its lower arrow
    # points into it and its upper one out of it, or the reverse for a
    # negative turn; state_violations reads only those two arrows.
    cases = 0
    for segment0 in product((False, True), repeat=2 * n):
        wall = [0] * (2 * n + 1)
        for r in range(2 * n - 1, -1, -1):
            wall[r] = wall[r + 1] - (1 if segment0[r] else -1)
        for i in range(n):
            for pos in (False, True):
                inner, step = wall[2 * i + 1], -1 if pos else 1
                faces = inner == wall[2 * i] + step and inner == wall[2 * i + 2] + step
                arrows = (segment0[2 * i], segment0[2 * i + 1]) == (not pos, pos)
                assert faces == arrows, (segment0, i, pos)
                cases += 1
    assert cases == {1: 8, 2: 64, 3: 384}[n]


def test_rightmost_column_pattern():
    # Given the left-arrow row, the whole last vertex column is forced.
    for n in (1, 2, 3):
        for s in enumerate_states(n):
            kinds = [row[n - 1] for row in classified_grid(s)]
            l = left_arrow_row(s)
            k = (l + 1) // 2
            expected = []
            for i in range(1, n + 1):
                if i < k:
                    expected += ["b+", "a+"]
                elif i == k:
                    expected += ["c+", "b+"] if l % 2 else ["b+", "c-"]
                else:
                    expected += ["a-", "b+"]
            assert kinds == expected


def test_turn_face_colors():
    for s in enumerate_states(3):
        grid = heights(s)
        for i, pos in enumerate(s.turn_positive):
            assert grid[2 * i + 1][0] == (-1 if pos else 1)


def test_no_state_violations_small():
    for n in (1, 2, 3):
        for s in enumerate_states(n):
            assert state_violations(s) == []


def test_left_arrow_error_on_corrupt_state():
    s = next(iter(enumerate_states(1)))
    broken = LatticeState(1, ((True, True), (True, True)), s.up, s.turn_positive)
    with pytest.raises(LeftArrowError):
        left_arrow_row(broken)


@pytest.mark.parametrize("right, up, rows", [
    (((True, True), (True, True)), ((True, True, True),), []),
    (((False, False), (False, False)), ((False, False, False),), [0, 1]),
])
def test_state_violations_reports_left_arrow_count(right, up, rows):
    # Every vertex obeys the ice rule, but segment 0 has no left arrow or
    # two; ``right`` is both segments' arrows, all pointing one way.
    s = LatticeState(1, right, up, (True,))
    assert state_violations(s) == [
        f"expected one left arrow at segment 0, found rows {rows}"]


def _flip(arrows, i, j):
    """``arrows`` with entry ``[i][j]`` reversed."""
    row = list(arrows[i])
    row[j] = not row[j]
    return arrows[:i] + (tuple(row),) + arrows[i + 1:]


def single_corruptions(s):
    """``s`` with one horizontal arrow, vertical arrow or turn reversed, in
    every possible way."""
    n = s.n
    for r in range(2 * n):
        for seg in range(n + 1):
            yield LatticeState(n, _flip(s.segments, seg, r), s.up, s.turn_positive)
    for c in range(n):
        for t in range(2 * n + 1):
            yield LatticeState(n, s.segments, _flip(s.up, c, t), s.turn_positive)
    for i in range(n):
        turns = list(s.turn_positive)
        turns[i] = not turns[i]
        yield LatticeState(n, s.segments, s.up, tuple(turns))


def reshaped(s):
    """``s`` with one segment, column or turn too many or too few, one
    segment or column an arrow too short or too long, or the wrong ``n``."""
    n, segments, up, turns = s
    yield LatticeState(n, segments[:-1], up, turns)
    yield LatticeState(n, segments + segments[-1:], up, turns)
    yield LatticeState(n, segments[:-1] + (segments[-1][:-1],), up, turns)
    yield LatticeState(n, segments[:-1] + (segments[-1] + (True,),), up, turns)
    yield LatticeState(n, segments, up[:-1], turns)
    yield LatticeState(n, segments, up + up[-1:], turns)
    yield LatticeState(n, segments, up[:-1] + (up[-1][:-1],), turns)
    yield LatticeState(n, segments, (up[0] + (False,),) + up[1:], turns)
    yield LatticeState(n, segments, up, turns[:-1])
    yield LatticeState(n, segments, up, turns + (True,))
    yield LatticeState(n + 1, segments, up, turns)
    yield LatticeState(n - 1, segments, up, turns)


def frozen_cases():
    """Every n <= 3 state, each of its single corruptions and reshapes, and
    for n <= 2 each of its double corruptions (two distinct reversals)."""
    for n in (1, 2, 3):
        for s in enumerate_states(n):
            yield s
            yield from single_corruptions(s)
            yield from reshaped(s)
    for n in (1, 2):
        for s in enumerate_states(n):
            for i, once in enumerate(single_corruptions(s)):
                yield from list(single_corruptions(once))[i + 1:]


# state_violations's message list for each of frozen_cases(), recorded from
# its per-vertex-classifying predecessor: how often each list occurs, and
# the digest of all of them in order.
FROZEN_VIOLATIONS = {
    '["face count"]': 2664,
    '["arrow pattern (True, True, False, True) breaks the ice rule"]': 2287,
    '["arrow pattern (True, True, True, False) breaks the ice rule"]': 2133,
    '["arrow pattern (False, True, True, True) breaks the ice rule"]': 1922,
    '["arrow pattern (True, False, False, False) breaks the ice rule"]': 1838,
    '["arrow pattern (True, False, True, True) breaks the ice rule"]': 1692,
    '["arrow pattern (False, False, True, False) breaks the ice rule"]': 1474,
    '["arrow pattern (False, True, False, False) breaks the ice rule"]': 944,
    '["arrow pattern (False, False, False, True) breaks the ice rule"]': 572,
    '["c+ / c- / k- census identity", "turn 0 heights"]': 229,
    '["c+ / c- / k- census identity", "turn 1 heights"]': 227,
    '[]': 222,
    '["c+ / c- / k- census identity", "turn 2 heights"]': 208,
    '["arrow pattern (True, False, True, False) breaks the ice rule"]': 51,
    '["arrow pattern (False, True, False, True) breaks the ice rule"]': 35,
    '["b+ / b- census identity", "c+ / c- / k- census identity", '
    '"rightmost-column b census", "rightmost-column c- count"]': 14,
    '["b+ / b- census identity", "c+ / c- / k- census identity", '
    '"rightmost-column b census", "rightmost-column c+ count"]': 14,
    '["c+ / c- / k- census identity", "turn 0 heights", "turn 1 heights"]': 6,
    '["turn 0 heights", "turn 1 heights"]': 6,
    '["expected one left arrow at segment 0, found rows [0, 1]"]': 2,
    '["expected one left arrow at segment 0, found rows []"]': 2,
}
FROZEN_VIOLATIONS_SHA256 = (
    "d715e2bd5b085dc0b6f9d058acd19483f0d5530f2ef7a0615b556bec233e51ce")


def test_state_violations_output_is_frozen():
    found = [state_violations(s) for s in frozen_cases()]
    assert Counter(map(json.dumps, found)) == FROZEN_VIOLATIONS
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == (
        FROZEN_VIOLATIONS_SHA256)


def test_misshapen_states_report_face_count():
    # Each has the concatenated shape of a well-formed state, but not its
    # segment, column or turn counts.
    s = next(iter(enumerate_states(1)))
    assert state_violations(LatticeState(0, (), (), ())) == ["face count"]
    shifted = LatticeState(1, s.segments + ((True, True, True),), (), (True,))
    assert state_violations(shifted) == ["face count"]


def test_corrupt_edge_breaks_classification():
    s = next(iter(enumerate_states(1)))
    flipped_mid = tuple((s.up[0][0], not s.up[0][1], s.up[0][2]))
    broken = LatticeState(1, s.segments, (flipped_mid,), s.turn_positive)
    with pytest.raises(IceRuleError):
        column_tallies(broken)


def test_state_violations_flags_every_single_corruption():
    # Every constraint family is checked: reversing any single arrow or turn
    # of any state is flagged, without a face grid.
    cases = 0
    for n in (1, 2, 3):
        for state in enumerate_states(n):
            for broken in single_corruptions(state):
                assert state_violations(broken), broken
                cases += 1
    assert cases == 2 * 8 + 12 * 24 + 208 * 48 == 10288


def test_state_violations_checks_turns_against_wall():
    # Swapping two opposite turn signs keeps every arrow and the census
    # identities; only the turns' wall faces show it.
    cases = 0
    for n in (2, 3):
        for state in enumerate_states(n):
            turns = state.turn_positive
            for i, j in ((i, j) for i in range(n) for j in range(n) if turns[i] and not turns[j]):
                swapped = list(turns)
                swapped[i], swapped[j] = False, True
                broken = LatticeState(n, state.segments, state.up, tuple(swapped))
                found = state_violations(broken)
                assert f"turn {i} heights" in found and f"turn {j} heights" in found
                cases += 1
    assert cases == 318


def test_vertex_kinds_match_per_vertex_classification():
    for n in range(1, 4):
        for s in enumerate_states(n):
            assert column_tallies(s) == [tuple(map(column.count, VERTEX_KINDS))
                                         for column in zip(*classified_grid(s))]


def breaks_ice_rule(state):
    """Some vertex has other than two inward arrows, counted directly."""
    n = state.n
    return any(
        int(state.segments[c][r]) + int(not state.segments[c + 1][r])
        + int(state.up[c][r]) + int(not state.up[c][r + 1]) != 2
        for r in range(2 * n) for c in range(n))


def test_column_cache_cannot_hide_corruption():
    # Check every valid state first, so a corrupt state can only pass if
    # something kept from them answers for a column never classified.
    walked = [s for n in (1, 2) for s in enumerate_states(n)]
    for s in walked:
        assert state_violations(s) == []
    flips = 0
    for s in walked:
        for broken in single_corruptions(s):
            if broken.turn_positive != s.turn_positive:
                continue  # a turn sign is no edge arrow
            assert breaks_ice_rule(broken)
            with pytest.raises(IceRuleError):
                column_tallies(broken)
            found = state_violations(broken)
            assert len(found) == 1 and "breaks the ice rule" in found[0]
            flips += 1
    assert flips == 2 * 7 + 12 * 22


def kind_faults():
    """``(label, tables)`` per fault of the vertex-kind tables: none, each of
    the 12 entries of ``_UPPER_KIND`` and ``_LOWER_KIND`` dropped in turn,
    and b+ / b- or c+ / c- swapped in ``_UPPER_KIND``."""
    yield "none", {}
    for name, side in (("_UPPER_KIND", "upper"), ("_LOWER_KIND", "lower")):
        table = getattr(states, name)
        for key, kind in table.items():
            yield f"{side} {kind}", {name: {k: v for k, v in table.items() if k != key}}
    for kind, other in (("b+", "b-"), ("c+", "c-")):
        swap = {kind: other, other: kind}
        yield f"upper {kind}/{other}", {"_UPPER_KIND": {
            key: swap.get(v, v) for key, v in states._UPPER_KIND.items()}}


def reference_verdicts():
    """Per size up to n = 4, ``(states, failures)`` of the per-state
    reference over every state of ``enumerate_states``."""
    found = [[bool(column_violations(*state)) for state in enumerate_states(n)]
             for n in range(1, 5)]
    return [(len(failed), float(sum(failed))) for failed in found]


def test_lattice_suite_verdicts_are_state_violations(monkeypatch):
    # The suite sums the rules over the walk's search by a column transfer.
    # Per size, its (states, failures) must be the per-state reference's over
    # every state of enumerate_states up to n = 4, with the kind tables as
    # they are and under each fault of them.
    outcomes = {}
    for label, tables in kind_faults():
        with monkeypatch.context() as patched:
            for name, table in tables.items():
                patched.setattr(states, name, table)
            reports = lattice_suite(4)
            assert ([(r["trials"], r["max_rel_residual"]) for r in reports]
                    == reference_verdicts()), label
            assert [r["pass"] for r in reports] == [not r["max_rel_residual"]
                                                    for r in reports]
            outcomes[label] = reports[-1]["trials"], reports[-1]["max_rel_residual"]
    assert len(outcomes) == 15
    assert outcomes["none"] == (10336, 0.0)
    assert outcomes["upper a-"] == (10336, 6298.0)
    assert outcomes["upper b+/b-"] == (10336, 10329.0)
    assert all(failures for label, (_, failures) in outcomes.items() if label != "none")


def test_lattice_suite_tallies_each_distinct_column_once(monkeypatch):
    # No face grid per state: heights is never called, and the transfer's
    # own memo tallies each distinct column once.  (A column's west side has
    # n + c right arrows, so no column recurs at another place or size.)
    grids, tallied = [], []
    tally = states.column_tally

    def counted_heights(state):
        grids.append(state)
        return heights(state)

    def counted_tally(west, east, up):
        tallied.append((west, east, up))
        return tally(west, east, up)

    monkeypatch.setattr(states, "heights", counted_heights)
    monkeypatch.setattr(states, "column_tally", counted_tally)
    reports = lattice_suite(3)
    columns = set()
    for n in (1, 2, 3):
        for _, segments, up, _ in enumerate_states(n):
            columns.update((segments[c], segments[c + 1], up[c]) for c in range(n))
    assert [(r["trials"], r["pass"]) for r in reports] == [(2, True), (12, True), (208, True)]
    assert grids == []
    assert len(tallied) == len(set(tallied)) == len(columns)
    assert set(tallied) == columns


@pytest.mark.parametrize("fault, pinned", [
    # The first turn's two segment-0 arrows flipped.  (One arrow flipped
    # alone leaves the wall a right arrow too many or too few, and then
    # the walk makes no state.)  The c census identity fails these too.
    (lambda turns: tuple(arrow != (r < 2) for r, arrow in enumerate(wall_arrows(turns))),
     [(2, 2.0), (12, 12.0), (208, 208.0), (10336, 10336.0)]),
    # The first two turns' arrows exchanged: only the wall check fails the
    # states whose first two turns differ.
    (lambda turns: wall_arrows((*turns[1::-1], *turns[2:])),
     [(2, 0.0), (12, 6.0), (208, 101.0), (10336, 4862.0)]),
], ids=["flipped", "exchanged"])
def test_lattice_suite_fails_a_wall_off_the_turns(monkeypatch, fault, pinned):
    # The faulted wall, in the walk and the transfer alike: the suite must
    # fail exactly the states the per-state reference fails.
    monkeypatch.setattr(states, "wall_arrows", fault)
    verdicts = [(r["trials"], r["max_rel_residual"]) for r in lattice_suite(4)]
    assert verdicts == reference_verdicts() == pinned


@pytest.mark.parametrize("n, pinned", [(3, (208, 6)), (4, (10336, 52))],
                         ids=["n3", "n4"])
def test_lattice_suite_fails_an_ice_rule_fault_the_census_hides(monkeypatch, n, pinned):
    # Every valid column c adds c + 1 to b+ - b-, so a column whose tally is
    # lost also breaks the b census identity, and no fault in one column
    # tests the ice-rule verdict alone.  Here one column-0 fill breaks the
    # ice rule and its census moves to each column-1 fill east of it (a
    # column's west side tells its place): the states through that fill keep
    # every census identity, so only the ice-rule verdict fails them.
    tally = states.column_tally
    west = wall_arrows((True,) * n)
    up, east = states.column_fills(west, False)[0]
    moved = tally(west, east, up)

    def faulted_tally(w, e, u):
        if (w, e, u) == (west, east, up):
            raise IceRuleError("faulted column")
        census = tally(w, e, u)
        return tuple(map(add, census, moved)) if w == east else census

    monkeypatch.setattr(states, "column_tally", faulted_tally)
    walk = list(enumerate_states(n))
    failed = [bool(column_violations(*state)) for state in walk]
    assert states.check_states(n) == (len(walk), sum(failed)) == pinned
    through = [fails for state, fails in zip(walk, failed)
               if (state.segments[0], state.segments[1], state.up[0]) == (west, east, up)]
    assert through and all(through)


def test_count_table_n1_exact():
    table = count_table(1)
    assert table.counts == {(0, 2, 3, 2, 1): 1, (1, 1, 3, 1, 2): 1}


def test_count_table_rejects_n_below_1():
    for n in (0, -1):
        with pytest.raises(ValueError):
            count_table(n)


def per_state_table(n):
    """The count table rebuilt from every enumerated state's own key."""
    return CountTable(n, dict(Counter(map(state_key, enumerate_states(n)))))


def marginal(counts, color):
    """A joint table's (m, l, k_c) marginal for one color, with no zero cells."""
    summed = Counter()
    for (m, l, *ks), cnt in counts.items():
        summed[m, l, ks[color]] += cnt
    return dict(summed)


def test_count_table_matches_per_state_reference():
    # Both readers of the one packed transfer against the states' own keys.
    for n in range(1, 5):
        table, reference = count_table(n), per_state_table(n)
        assert table.records() == reference.records()
        assert table.to_json() == reference.to_json()
        assert table.to_csv() == reference.to_csv()
        marginals = color_marginals(n)
        for color in range(3):
            assert marginals[color] == marginal(reference.counts, color), (n, color)


def test_count_table_m_marginals_match_transfer_oracle():
    for n in range(1, 7):
        by_m = Counter()
        for (m, _l, _k0, _k1, _k2), cnt in count_table(n).counts.items():
            by_m[m] += cnt
        assert dict(by_m) == transfer_counts_by_m(n)


def test_count_table_n5_totals():
    table = count_table(5)
    assert table.total() == 1468320
    assert len(table.counts) == 2506


def test_count_table_n6_totals():
    table = count_table(6)
    assert table.total() == 595497600
    assert len(table.counts) == 7866


def with_left_arrows(row, left):
    """A row fill ``(along, above)`` with segment n-1 pointing left or not."""
    along, above = row
    return (*along[:-2], not left, along[-1]), above


def test_count_table_left_arrow_errors(monkeypatch):
    fills = lattice.double_line_fills
    for n, lower_left, upper_left in [
        (1, True, True),    # both rows of the one double line
        (2, True, False),   # one in each of the two double lines
        (2, False, False),  # none at all
    ]:
        monkeypatch.setattr(lattice, "double_line_fills", lambda below, line: [
            (positive, with_left_arrows(lower, lower_left),
             with_left_arrows(upper, upper_left))
            for positive, lower, upper in fills(below, line)])
        for engine in (count_table, color_marginals):
            with pytest.raises(LeftArrowError):
                engine(n)


def test_color_marginals_rejects_n_below_1():
    for n in (0, -1):
        with pytest.raises(ValueError):
            color_marginals(n)


def test_color_marginals_match_count_table():
    # Each color's (m, l, k_c) marginal is the joint table summed over the
    # other two colors, cell for cell, with no zero cells.
    for n in range(1, 7):
        table, marginals = count_table(n), color_marginals(n)
        for color in range(3):
            assert marginals[color] == marginal(table.counts, color), (n, color)


def vsasm_count(n):
    """A_V(2n+1), the vertically symmetric ASMs of order 2n+1."""
    num = den = 1
    for i in range(n):
        num *= (3 * i + 2) * factorial(6 * i + 3) * factorial(2 * i + 1)
        den *= factorial(4 * i + 2) * factorial(4 * i + 3)
    assert num % den == 0
    return num // den


def test_color_marginals_enumerative_anchors():
    # The total, 2^n A_V(2n+1), is a theorem, as recalled (Kuperberg's count
    # of U-turn ASMs, arXiv:math/0008184).  The m and l marginals below are
    # observed for n <= 8: C(n, m) A_V(2n+1) states have m positive turns,
    # and the l marginal is symmetric under l -> 2n+1-l, with the total for
    # n-1 in each of its end rows l = 1 and l = 2n.
    assert [vsasm_count(n) for n in range(6)] == [1, 1, 3, 26, 646, 45885]
    assert 2 ** 8 * vsasm_count(8) == 2272956072262656
    for n in range(1, 8):
        for marginal in color_marginals(n):
            by_m, by_l = Counter(), Counter()
            for (m, l, _k), cnt in marginal.items():
                by_m[m] += cnt
                by_l[l] += cnt
            assert sum(by_m.values()) == 2 ** n * vsasm_count(n), n
            assert by_m == {m: comb(n, m) * vsasm_count(n) for m in range(n + 1)}
            assert set(by_l) == set(range(1, 2 * n + 1))
            assert all(by_l[l] == by_l[2 * n + 1 - l] for l in by_l)
            assert by_l[1] == by_l[2 * n] == 2 ** (n - 1) * vsasm_count(n - 1), n


def test_lattice_suite_counts_the_states_from_outside_the_fills():
    # The suite and its per-state reference share the column fills, so a
    # fill dropped from _COMPLETIONS breaks no rule they check; the count,
    # 2^n A_V(2n+1), comes from outside them.
    reports = lattice_suite(6)
    assert [(r["trials"], r["max_rel_residual"]) for r in reports] == [
        (2 ** n * vsasm_count(n), 0.0) for n in range(1, 7)]
    assert reports[-1]["trials"] == 595497600


def test_count_table_serialization_round_trip():
    table = count_table(2)
    import json

    records = json.loads(table.to_json())
    assert sum(r["count"] for r in records) == table.total()
    assert records == sorted(
        records, key=lambda r: (r["m"], r["l"], r["k0"], r["k1"], r["k2"]))
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "m,l,k0,k1,k2,count"
    assert len(csv_text.splitlines()) == len(records) + 1


def test_render_state_contains_heights_and_arrows():
    s = next(iter(enumerate_states(1)))
    art = render_state(s)
    assert ">" in art and ("^" in art or "v" in art)
    assert "  0" in art
