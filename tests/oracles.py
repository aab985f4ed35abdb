"""Independent oracles used to pin expected values.

Nothing here reuses the package's enumeration logic: the brute-force oracle
filters every possible edge assignment, and the transfer oracle marches row
configurations with its own ice-rule bookkeeping.  Both exist so that bugs
in the package's state enumeration (``enumerate_states``) and its
row-transfer counting (``count_table``) cannot hide; those two share one
ice-rule line fill (``lattice._line_fills``), and nothing here uses it.
The vertex walk enumerates one vertex at a time, with its own completions
table, and pins the order in which ``enumerate_states`` yields states; the
per-state brute sum classifies every vertex of every walked state and
multiplies its local weights afresh, apart from the package's column-at-a-time search,
cached column kinds and per-draw weight memo (``enumerate_states``,
``vertex_kinds`` and ``theta.partition_brute``).  Likewise the ratio T
is evaluated here from its definition at distinct arguments, and its value
at repeated arguments as a perturbation limit, apart from the package's
confluent formula (``tpoly.t_at_specialization``).  The count sums and the
symmetry image are built here from powers over ``Fraction``, by this
module's own coefficient-list arithmetic (``poly_add``, ``poly_mul``,
``poly_pow``, ``poly_divmod``), apart from the package's integer binomial
expansions (``pn._assemble`` and ``pn.symmetry_check``); the package's
``Poly`` is only a value and does no arithmetic.  Face colors per state
are tallied here from a height grid (``color_counts``), apart from the
package's per-face-row tally in ``count_table``, and vertex kinds per state
from one ``classify_vertex`` call per vertex (``vertex_census``), apart from
the package's cached column tallies (``lattice.column_tallies``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

from ice_colors.exact import Poly, SingularInputError
from ice_colors.lattice import FaceGrid, LatticeState, classify_vertex, heights
from ice_colors.theta import ModelParams, turn_weight, vertex_weight
from ice_colors.tpoly import g_eval


def all_assignment_states(n: int) -> list[LatticeState]:
    """Filter the full 2^(edges) cube of assignments; feasible for n <= 2."""
    rows = 2 * n
    h_free = [(r, s) for r in range(rows) for s in range(n)]
    v_free = [(c, t) for c in range(n) for t in range(1, rows)]
    states = []
    for bits in product((False, True), repeat=len(h_free) + len(v_free)):
        right = [[True] * (n + 1) for _ in range(rows)]
        up = [[True] * (rows + 1) for _ in range(n)]
        for c in range(n):
            up[c][rows] = False
        for (r, s), bit in zip(h_free, bits[: len(h_free)]):
            right[r][s] = bit
        for (c, t), bit in zip(v_free, bits[len(h_free):]):
            up[c][t] = bit

        ok = all(right[2 * i][0] != right[2 * i + 1][0] for i in range(n))
        if ok:
            for r in range(rows):
                for c in range(n):
                    inward = (int(right[r][c]) + int(not right[r][c + 1])
                              + int(up[c][r]) + int(not up[c][r + 1]))
                    if inward != 2:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            states.append(LatticeState(
                n,
                tuple(tuple(row) for row in right),
                tuple(tuple(col) for col in up),
                tuple(not right[2 * i][0] for i in range(n)),
            ))
    return states


# Completions (N_up, E_right) of a vertex whose W and S edges are known,
# keyed by how many of N, E must still point inward, in walk order.
_WALK_COMPLETIONS = {
    0: ((True, True),),
    1: ((True, False), (False, True)),
    2: ((False, False),),
}


def vertex_walk_states(n: int) -> list[LatticeState]:
    """Every state, one vertex per step: turn signs in ``product`` order,
    then columns from the wall, each bottom-up, trying each vertex's
    completions in turn."""
    rows = 2 * n
    states = []
    for turns in product((False, True), repeat=n):
        right = [[False] * (n + 1) for _ in range(rows)]
        up = [[False] * (rows + 1) for _ in range(n)]
        for c in range(n):
            up[c][0] = True
        for i, pos in enumerate(turns):
            right[2 * i][0] = not pos
            right[2 * i + 1][0] = pos

        def walk(c: int, r: int) -> None:
            if r == rows:
                if c + 1 == n:
                    states.append(LatticeState(
                        n, tuple(map(tuple, right)), tuple(map(tuple, up)), turns))
                else:
                    walk(c + 1, 0)
                return
            inward = int(right[r][c]) + int(up[c][r])
            for n_up, e_right in _WALK_COMPLETIONS[2 - inward]:
                if r == rows - 1 and n_up:
                    continue  # top boundary edge must point down
                if c == n - 1 and not e_right:
                    continue  # right boundary edge must point right
                up[c][r + 1] = n_up
                right[r][c + 1] = e_right
                walk(c, r + 1)

        walk(0, 0)
    return states


def color_counts(grid: FaceGrid) -> tuple[int, int, int]:
    """Faces of each color (height mod 3) in a height grid."""
    tally = Counter(h % 3 for row in grid for h in row)
    return (tally[0], tally[1], tally[2])


def classified_grid(state: LatticeState) -> tuple[tuple[str, ...], ...]:
    """Kind of every vertex, [row][column], one ``classify_vertex`` call
    each."""
    n = state.n
    return tuple(
        tuple(classify_vertex(r % 2 == 1, state.right[r][c], state.right[r][c + 1],
                              state.up[c][r], state.up[c][r + 1])
              for c in range(n))
        for r in range(2 * n))


def vertex_census(state: LatticeState) -> tuple[Counter, Counter]:
    """Counts per vertex and turn kind, and per vertex kind in the rightmost
    column, from ``classified_grid``."""
    grid = classified_grid(state)
    counts = Counter(kind for row in grid for kind in row)
    counts.update("k+" if pos else "k-" for pos in state.turn_positive)
    return counts, Counter(row[-1] for row in grid)


def brute_sum_per_state(n: int, params: ModelParams) -> complex:
    """The state sum over the vertex walk, each state's local weights
    evaluated afresh and multiplied row by row, then its turns."""
    total = 0
    for state in vertex_walk_states(n):
        grid, kinds = heights(state), classified_grid(state)
        weight = 1 + 0j
        for r in range(2 * n):
            pair = r // 2
            for c in range(n):
                if r % 2 == 1:
                    lam_arg = params.lam[pair] - params.mu[c]
                    z = grid[r + 1][c]  # upper-left face
                else:
                    lam_arg = params.lam[pair] + params.mu[c]
                    z = grid[r][c]  # lower-left face
                weight *= vertex_weight(kinds[r][c], lam_arg, z, params)
        for i, pos in enumerate(state.turn_positive):
            weight *= turn_weight("k+" if pos else "k-", params.lam[i], 0, params)
        total += weight
    return total


def _row_outputs(v_in: tuple[bool, ...], w0: bool) -> list[tuple[bool, ...]]:
    """All vertical configurations above one lattice row, given the edges
    below it and the turn-side horizontal arrow; the rightmost horizontal
    edge must leave to the right."""
    n = len(v_in)
    results: list[tuple[bool, ...]] = []

    def march(c: int, w: bool, above: tuple[bool, ...]):
        if c == n:
            if w:  # arrow exits right
                results.append(above)
            return
        for n_up in (False, True):
            for e_right in (False, True):
                inward = int(w) + int(v_in[c]) + int(not n_up) + int(not e_right)
                if inward == 2:
                    march(c + 1, e_right, above + (n_up,))

    march(0, w0, ())
    return results


def transfer_counts_by_m(n: int) -> dict[int, int]:
    """State counts grouped by the number of positive turns, by row DP."""
    frontier: dict[tuple[tuple[bool, ...], int], int] = {((True,) * n, 0): 1}
    for _pair in range(n):
        nxt: dict[tuple[tuple[bool, ...], int], int] = {}
        for (v, m), cnt in frontier.items():
            for positive in (False, True):
                lower_w0 = not positive
                for v_mid in _row_outputs(v, lower_w0):
                    for v_out in _row_outputs(v_mid, positive):
                        key = (v_out, m + int(positive))
                        nxt[key] = nxt.get(key, 0) + cnt
        frontier = nxt
    top = (False,) * n
    out: dict[int, int] = {}
    for (v, m), cnt in frontier.items():
        if v == top:
            out[m] = out.get(m, 0) + cnt
    return out


def cofactor_det(matrix) -> Fraction:
    """Textbook Laplace expansion along the first row."""
    k = len(matrix)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(k):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(matrix[0][j]) * cofactor_det(minor)
    return total


def _vandermonde(xs) -> Fraction:
    return prod((xs[j] - xs[i] for i in range(len(xs)) for j in range(i + 1, len(xs))),
                start=Fraction(1))


def t_distinct(xs, psi) -> Fraction:
    """T = prod G * det(1/G) / (V(x) V(y)) at arguments distinct within each
    half (x the first half, y the second), straight from the definition."""
    n = len(xs) // 2
    g = [[g_eval(x, y, psi) for y in xs[n:]] for x in xs[:n]]
    det = cofactor_det([[1 / value for value in row] for row in g])
    return (prod((value for row in g for value in row), start=Fraction(1)) * det
            / (_vandermonde(xs[:n]) * _vandermonde(xs[n:])))


def t_perturbation_limit(targets, psi) -> Fraction:
    """T at possibly repeated arguments: sample T along x_i = target_i + i*t
    at t = 1..2n(n-1)+1 (T has degree at most 2n(n-1) in t) and evaluate
    the Lagrange interpolant at t = 0."""
    n = len(targets) // 2
    nodes = range(1, 2 * n * (n - 1) + 2)
    total = Fraction(0)
    for t in nodes:
        value = t_distinct([x + i * t for i, x in enumerate(targets, 1)], psi)
        total += value * prod((Fraction(s, s - t) for s in nodes if s != t),
                              start=Fraction(1))
    return total


# Polynomials below are ascending coefficient lists over Fraction; trailing
# zeros are allowed, and ``Poly(...)`` of a list strips them for comparison.


def poly_add(a, b) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = [Fraction(c) for c in a]
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a, k: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder by long division; the remainder's degree is
    below the divisor's."""
    b = [Fraction(c) for c in b]
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a]
    shift = len(b) - 1
    quot = [Fraction(0)] * max(len(rem) - shift, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + shift] / b[-1]
        for j, c in enumerate(b):
            rem[i + j] -= quot[i] * c
    return quot, rem[:shift]


def poly_exact_div(a, b) -> list[Fraction]:
    quot, rem = poly_divmod(a, b)
    if any(rem):
        raise SingularInputError("polynomial division left a remainder")
    return quot


def assemble_by_poly_powers(sums: dict[int, int], n: int) -> Poly:
    """Sum of c * (z(z-1))^e * (z+1)^(n(n-1)-2e) over ``{e: c}``, by powers
    over a shared denominator; a remainder in the trailing exact division
    raises ``SingularInputError``."""
    if not sums:
        return Poly()
    p, q = [0, -1, 1], [1, 1]
    top = n * (n - 1)
    p_den = max(0, -min(sums))
    q_den = max(0, 2 * max(sums) - top)
    acc: list[Fraction] = []
    for e, c in sums.items():
        term = poly_mul(poly_pow(p, e + p_den), poly_pow(q, top - 2 * e + q_den))
        acc = poly_add(acc, poly_mul([c], term))
    acc = poly_exact_div(acc, poly_pow(p, p_den))
    return Poly(poly_exact_div(acc, poly_pow(q, q_den)))


def symmetry_image(p: Poly, n: int) -> Poly:
    """((1+3z)/2)^(n(n-1)) * p((1-z)/(1+3z)) by composition."""
    power = n * (n - 1)
    out: list[Fraction] = []
    for k, coeff in enumerate(p.coeffs):
        term = poly_mul(poly_pow([1, -1], k), poly_pow([1, 3], power - k))
        out = poly_add(out, poly_mul([coeff], term))
    return Poly(poly_mul(out, [Fraction(1, 2**power)]))
