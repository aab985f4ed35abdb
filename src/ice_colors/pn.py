"""Polynomials from three-color state counts, three ways.

Each variant turns the state counts into a signed sum of terms
``count * (z+1)^(n(n-1)) * (z(z-1)/(z+1)^2)^e`` over rows ``l`` congruent to
``n`` mod 3, where the exponent ``e`` depends on the census of one face
color, so it needs only that color's ``(m, l, k_c)`` marginal
(``lattice.color_marginals``), or a joint ``(m, l, k0, k1, k2)`` table read
at that color.  Every term ``z^e (z-1)^e (z+1)^(n(n-1)-2e)`` is a product
of two binomial expansions with integer coefficients, so the sum is
accumulated in plain integers.  A nonzero count at an exponent outside
``[0, n(n-1)/2]`` makes the sum a non-polynomial, which marks corrupt
input.  The raw sum equals a binomial coefficient times one and the same
polynomial for every variant and every admissible number of positive
turns.  Comparing the sums across variants in integers, each times the
other's binomial, and the first one over its binomial against the
determinant route, is the strongest end-to-end check this model admits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import comb, lcm
from typing import NamedTuple

from .exact import Poly, SingularInputError, format_fraction
from .lattice import CountTable, color_marginals
from .tpoly import pn_via_T


class ConsistencyError(AssertionError):
    """The exact cross-checks between formulas failed."""


class CountFormula(NamedTuple):
    """One of the three count formulas: which color enters, which binomial
    scales the polynomial, which neighbouring rows are summed, and the
    exponent law (returned times 3, so integrality can be asserted).  A
    ``NamedTuple``, which is cheaper to define at import than a dataclass."""

    tag: str
    color: int

    def binomial(self, n: int, m: int) -> int:
        if self.tag == "A":
            return comb(n - 1, m - 1) if m >= 1 else 0
        if self.tag == "B":
            return comb(n, m)
        return comb(n - 1, m)

    def row_offsets(self) -> tuple[int, int]:
        return {"A": (0, -1), "B": (0, 1), "C": (1, 2)}[self.tag]

    def exponent_numerator(self, n: int, m: int, l: int, k: int) -> int:
        """Three times the power of z(z-1) in the term of row ``l`` with
        ``k`` faces of this color."""
        c, d = (3, 0) if n % 3 in (0, 1) else (1, 1)
        if self.tag == "A":
            return 3 * k - n * n - 6 * n + l - c
        if self.tag == "B":
            return 3 * k - n * n - 6 * n + 3 * m + l - d
        return 3 * k - n * n - 3 * n - 3 * m + l - d


VARIANT_A = CountFormula("A", 0)
VARIANT_B = CountFormula("B", 1)
VARIANT_C = CountFormula("C", 2)
VARIANTS = (VARIANT_A, VARIANT_B, VARIANT_C)


@cache
def _term(a: int, b: int) -> tuple[int, ...]:
    """Ascending integer coefficients of z^a (z-1)^a (z+1)^b."""
    out = [0] * (2 * a + b + 1)
    plus = [comb(b, j) for j in range(b + 1)]
    for i in range(a + 1):
        minus = comb(a, i) * (-1) ** (a - i)
        for j, y in enumerate(plus, a + i):
            out[j] += minus * y
    return tuple(out)


def _assemble(sums: dict[int, int], n: int) -> list[int]:
    """Ascending integer coefficients of the sum of c * P^e * Q^(n(n-1)-2e)
    over ``{e: c}``, P = z(z-1) and Q = z+1, one ``_term`` per exponent.
    A nonzero count below exponent 0 (above n(n-1)/2) is rejected as
    non-polynomial: P and Q are coprime, so the lowest (highest) such term
    leaves P (Q) in the denominator of the whole sum.
    """
    top = n * (n - 1)
    acc = [0] * (top + 1)
    for e, c in sums.items():
        if not c:
            continue
        if not 0 <= 2 * e <= top:
            raise SingularInputError(
                f"exponent {e} outside [0, {top}/2] has a nonzero count")
        acc = [a + c * t for a, t in zip(acc, _term(e, top - 2 * e))]
    return acc


def _raw_sum(counts: dict, n: int, m: int, variant: CountFormula,
             col: int) -> list[int]:
    """The raw variant sum, the binomial times the polynomial, as ascending
    integer coefficients, from ``counts`` keyed ``(m, l, ...)`` with the
    variant's color census at ``key[col]``: a joint table's ``2 + color``,
    a color marginal's 2.

    A cell in row ``l'`` enters row ``l = l' - off`` for the one row offset
    (the two differ by one) with ``l`` congruent to ``n`` mod 3, signed by
    the parity of ``n + l``.  Each distinct row's ``l``, sign and exponent
    shift are found once per call, so a cell adds its signed count at
    3k + shift, three times its exponent; each distinct exponent is tested
    once for divisibility by 3, at the first nonzero cell that has it.
    """
    if not 0 <= m <= n:
        raise ValueError("m out of range")
    rows, sums = {}, {}
    for row in {key[1] for key in counts}:
        for off in variant.row_offsets():
            if (row - off - n) % 3 == 0:
                l = row - off
                rows[row] = (variant.exponent_numerator(n, m, l, 0), -1 if (n + l) % 2 else 1, l)
    for key, cnt in counts.items():
        if key[0] == m and cnt and key[1] in rows:
            shift, sign, l = rows[key[1]]
            e3 = 3 * key[col] + shift
            if e3 in sums:
                sums[e3] += sign * cnt
            elif e3 % 3:
                raise ConsistencyError(
                    f"variant {variant.tag}, m={m}, l={l}, k={key[col]}: "
                    f"non-integer exponent {e3}/3 on a nonzero term")
            else:
                sums[e3] = sign * cnt
    try:
        return _assemble({e3 // 3: c for e3, c in sums.items()}, n)
    except SingularInputError as err:
        raise ConsistencyError(
            f"variant {variant.tag}, m={m}: sum does not reduce to a polynomial"
        ) from err


def _split_by_m(counts: dict, n: int) -> dict[int, dict]:
    """The cells of each m in 0..n, in insertion order; a cell with another
    m raises ``ConsistencyError``."""
    by_m: dict[int, dict] = {m: {} for m in range(n + 1)}
    for key, cnt in counts.items():
        if key[0] not in by_m:
            raise ConsistencyError(f"cell {key} has m outside 0..{n}")
        by_m[key[0]][key] = cnt
    return by_m


def pn_consistent(n: int, table: CountTable | None = None) -> Poly:
    """The polynomial, computed from every variant/m and from the
    determinant route, with exact agreement enforced.

    Each variant reads one color's census.  Without a table, each reads its
    own color's ``(m, l, k_c)`` marginal from ``color_marginals``; a joint
    table's cells are read at ``key[2 + color]``, with no marginalization.
    The cells are split by m in one pass per source, in insertion order, so
    each variant/m sum reads only its own cells.  Every sum is formed before
    any is compared, in integers: raw * binom_ref == raw_ref * binom.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None:
        sources = [(_split_by_m(marginal, n), 2) for marginal in color_marginals(n)]
    elif table.n != n:
        raise ValueError("count table does not match n")
    else:
        by_m = _split_by_m(table.counts, n)
        sources = [(by_m, 2 + variant.color) for variant in VARIANTS]
    raws = []
    for variant, (by_m, col) in zip(VARIANTS, sources):
        for m in range(n + 1):
            raw = _raw_sum(by_m[m], n, m, variant, col)
            binom = variant.binomial(n, m)
            label = f"{variant.tag}:m={m}"
            if binom == 0 and any(raw):
                coeffs = [format_fraction(c) for c in Poly(raw).coeffs]
                raise ConsistencyError(f"{label}: zero binomial but nonzero sum {coeffs}")
            if binom:
                raws.append((label, raw, binom))
    reference_label, reference_raw, reference_binom = raws[0]
    reference = Poly(Fraction(c, reference_binom) for c in reference_raw)
    for label, raw, binom in raws:
        if any(a * reference_binom != b * binom for a, b in zip(raw, reference_raw)):
            poly = Poly(Fraction(c, binom) for c in raw)
            raise ConsistencyError(_divergence(reference_label, reference, label, poly))
    via_t = pn_via_T(n)
    if via_t != reference:
        raise ConsistencyError(
            _divergence(reference_label, reference, "determinant route", via_t)
        )
    return reference


def _divergence(label_a: str, a: Poly, label_b: str, b: Poly) -> str:
    diffs = [f"z^{i}: {format_fraction(ca)} vs {format_fraction(cb)}"
             for i, (ca, cb) in enumerate(zip_longest(a.coeffs, b.coeffs, fillvalue=0))
             if ca != cb]
    return f"{label_a} and {label_b} disagree at " + "; ".join(diffs)


def symmetry_check(p: Poly, n: int) -> bool:
    """Exact test of p(z) = ((1+3z)/2)^(n(n-1)) * p((1-z)/(1+3z)).

    Scaled by 2^D, D = n(n-1), and by the common denominator of p's
    coefficients c_k, the sides are 2^D p(z) and sum c_k (1-z)^k (1+3z)^(D-k),
    integer polynomials of degree at most D, so they are equal exactly when
    they agree at z = 0..D.  Only those values are compared, by Horner's rule
    and by its homogeneous form in 1-z and 1+3z.
    """
    power = (n - 1) * n
    if p.degree > power:
        raise ValueError("degree exceeds (n-1)n")
    scale = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in p.coeffs]
    ints += [0] * (power + 1 - len(ints))
    for z in range(power + 1):
        lhs = 0
        for c in reversed(ints):
            lhs = lhs * z + c
        u, v = 1 - z, 1 + 3 * z
        rhs, v_pow = ints[power], 1
        for c in reversed(ints[:power]):
            v_pow *= v
            rhs = rhs * u + c * v_pow
        if lhs << power != rhs:
            return False
    return True


def positivity_report(p: Poly) -> list[tuple[int, Fraction]]:
    """Indices and values of negative coefficients (expected empty)."""
    return [(i, c) for i, c in enumerate(p.coeffs) if c < 0]
