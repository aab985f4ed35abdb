from collections import Counter
from itertools import product
from math import comb

import pytest

from ice_colors import lattice, verify
from ice_colors.lattice import (VERTEX_KINDS, CountTable, IceRuleError,
                                InconsistentHeightsError, LatticeState,
                                LeftArrowError, column_tallies, count_table,
                                enumerate_states, heights, left_arrow_row,
                                render_state, state_violations, vertex_kinds)
from ice_colors.verify import lattice_suite

from oracles import (all_assignment_states, classified_grid, color_counts,
                     transfer_counts_by_m, vertex_census, vertex_walk_states)


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
# frozen here as an oracle (rows bottom-up).
REFERENCE_STATE = LatticeState(
    n=3,
    right=(
        (True, True, True, True),
        (False, False, True, True),
        (False, True, True, True),
        (True, True, False, True),
        (True, False, True, True),
        (False, True, True, True),
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
            lattice._column_kinds(west, east, up)
            ice_rule = True
        except IceRuleError:
            ice_rule = False
        assert ice_rule == consistent, (west, east, up)
        cases += 1
    assert cases == {2: 128, 4: 8192}[rows]


def test_rightmost_column_pattern():
    # Given the left-arrow row, the whole last vertex column is forced.
    for n in (1, 2, 3):
        for s in enumerate_states(n):
            kinds = [row[n - 1] for row in vertex_kinds(s)]
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
            yield LatticeState(n, _flip(s.right, r, seg), s.up, s.turn_positive)
    for c in range(n):
        for t in range(2 * n + 1):
            yield LatticeState(n, s.right, _flip(s.up, c, t), s.turn_positive)
    for i in range(n):
        turns = list(s.turn_positive)
        turns[i] = not turns[i]
        yield LatticeState(n, s.right, s.up, tuple(turns))


def test_corrupt_edge_breaks_heights_and_classification():
    s = next(iter(enumerate_states(1)))
    flipped_mid = tuple((s.up[0][0], not s.up[0][1], s.up[0][2]))
    broken = LatticeState(1, s.right, (flipped_mid,), s.turn_positive)
    with pytest.raises(InconsistentHeightsError):
        heights(broken)
    with pytest.raises(IceRuleError):
        vertex_kinds(broken)
    # Every constraint family is checked: reversing any single arrow or turn
    # of any state breaks the heights.
    cases = 0
    for n in (1, 2, 3):
        for state in enumerate_states(n):
            for broken in single_corruptions(state):
                with pytest.raises(InconsistentHeightsError):
                    heights(broken)
                cases += 1
    assert cases == 2 * 8 + 12 * 24 + 208 * 48 == 10288


def test_state_violations_flags_every_single_corruption():
    # The same corruptions that test_corrupt_edge_breaks_heights_and_classification
    # feeds to heights, here without a face grid.
    cases = 0
    for n in (1, 2, 3):
        for state in enumerate_states(n):
            for broken in single_corruptions(state):
                assert state_violations(broken), broken
                cases += 1
    assert cases == 10288


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
                broken = LatticeState(n, state.right, state.up, tuple(swapped))
                found = state_violations(broken)
                assert f"turn {i} heights" in found and f"turn {j} heights" in found
                with pytest.raises(InconsistentHeightsError):
                    heights(broken)
                cases += 1
    assert cases == 318


def test_vertex_kinds_match_per_vertex_classification():
    for n in range(1, 4):
        for s in enumerate_states(n):
            assert vertex_kinds(s) == classified_grid(s)


def breaks_ice_rule(state):
    """Some vertex has other than two inward arrows, counted directly."""
    n = state.n
    return any(
        int(state.right[r][c]) + int(not state.right[r][c + 1])
        + int(state.up[c][r]) + int(not state.up[c][r + 1]) != 2
        for r in range(2 * n) for c in range(n))


def test_column_cache_cannot_hide_corruption():
    # Warm the column caches with every valid column first, so a corrupt
    # state can only pass if a cache answers for a column that was never
    # classified.
    states = [s for n in (1, 2) for s in enumerate_states(n)]
    for s in states:
        assert state_violations(s) == []
    flips = 0
    for s in states:
        for broken in single_corruptions(s):
            if broken.turn_positive != s.turn_positive:
                continue  # a turn sign is no edge arrow
            assert breaks_ice_rule(broken)
            with pytest.raises(IceRuleError):
                vertex_kinds(broken)
            found = state_violations(broken)
            assert len(found) == 1 and "breaks the ice rule" in found[0]
            flips += 1
    assert flips == 2 * 7 + 12 * 22


def test_lattice_suite_reads_cached_column_tallies(monkeypatch):
    # No face grid per state: heights is never called, the left-arrow row
    # is read once per state, and each distinct column is tallied once.
    calls = Counter()

    def counted(name, fn):
        def wrapper(state):
            calls[name] += 1
            return fn(state)
        return wrapper

    for name in ("heights", "left_arrow_row"):
        wrapper = counted(name, getattr(lattice, name))
        monkeypatch.setattr(lattice, name, wrapper)
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, wrapper)
    lattice._kinds_tally.cache_clear()
    reports = lattice_suite(3)
    tallied = lattice._kinds_tally.cache_info()
    states = [s for n in (1, 2, 3) for s in enumerate_states(n)]
    columns = {column for s in states for column in zip(*classified_grid(s))}
    assert [(r.trials, r.passed) for r in reports] == [(2, True), (12, True), (208, True)]
    assert (calls["heights"], calls["left_arrow_row"]) == (0, 222)
    assert tallied.misses == len(columns)
    assert tallied.hits + tallied.misses == sum(s.n for s in states)


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


def test_count_table_matches_per_state_reference():
    for n in range(1, 5):
        table, reference = count_table(n), per_state_table(n)
        assert table.records() == reference.records()
        assert table.to_json() == reference.to_json()
        assert table.to_csv() == reference.to_csv()


def test_count_table_m_marginals_match_transfer_oracle():
    for n in range(1, 6):
        by_m = Counter()
        for (m, _l, _k0, _k1, _k2), cnt in count_table(n).counts.items():
            by_m[m] += cnt
        assert dict(by_m) == transfer_counts_by_m(n)


def test_count_table_n5_totals():
    table = count_table(5)
    assert table.total() == 1468320
    assert len(table.counts) == 2506


def test_count_table_left_arrow_errors(monkeypatch):
    fills = lattice._row_fills
    monkeypatch.setattr(lattice, "_row_fills", lambda below, w0: [
        (above, True) for above, _left in fills(below, w0)])
    with pytest.raises(LeftArrowError):
        count_table(2)
    monkeypatch.setattr(lattice, "_row_fills", lambda below, w0: [
        (above, False) for above, _left in fills(below, w0)])
    with pytest.raises(LeftArrowError):
        count_table(2)


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
