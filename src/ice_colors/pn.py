"""Polynomials from three-color state counts, three ways.

Each variant turns the count table into a signed sum of terms
``count * (z+1)^(n(n-1)) * (z(z-1)/(z+1)^2)^e`` over rows ``l`` congruent to
``n`` mod 3, where the exponent ``e`` depends on the census of one face
color.  Every term ``z^e (z-1)^e (z+1)^(n(n-1)-2e)`` is a product of two
binomial expansions with integer coefficients, so the sum is accumulated in
plain integers.  A nonzero count at an exponent outside ``[0, n(n-1)/2]``
makes the sum a non-polynomial, which marks corrupt input.  The raw sum
equals a binomial coefficient times one and the same polynomial for every
variant and every admissible number of positive turns.  Dividing by the
binomial and comparing across variants, and against the determinant route,
is the strongest end-to-end check this model admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, lcm

from .exact import Poly, SingularInputError, format_fraction
from .lattice import CountTable, count_table
from .tpoly import pn_via_T


class ConsistencyError(AssertionError):
    """The exact cross-checks between formulas failed."""


@dataclass(frozen=True)
class CountFormula:
    """One of the three count formulas: which color enters, which binomial
    scales the polynomial, which neighbouring rows are summed, and the
    exponent law (returned times 3, so integrality can be asserted)."""

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
        c = 3 if n % 3 in (0, 1) else 1
        d = 0 if n % 3 in (0, 1) else 1
        if self.tag == "A":
            return 3 * k - n * n - 6 * n + l - c
        if self.tag == "B":
            return 3 * k - n * n - 6 * n + 3 * m + l - d
        return 3 * k - n * n - 3 * n - 3 * m + l - d


VARIANT_A = CountFormula("A", 0)
VARIANT_B = CountFormula("B", 1)
VARIANT_C = CountFormula("C", 2)
VARIANTS = (VARIANT_A, VARIANT_B, VARIANT_C)

def _convolve(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v, i):
                out[j] += x * y
    return tuple(out)


@cache
def _term(a: int, b: int) -> tuple[int, ...]:
    """Ascending integer coefficients of z^a (z-1)^a (z+1)^b."""
    shifted_minus = (0,) * a + tuple(comb(a, i) * (-1) ** (a - i)
                                     for i in range(a + 1))
    return _convolve(shifted_minus, tuple(comb(b, j) for j in range(b + 1)))


def _assemble(sums: dict[int, int], n: int) -> Poly:
    """Sum of c * P^e * Q^(n(n-1)-2e) over ``{e: c}``, exact, where
    P = z(z-1) and Q = z+1.

    Each term is the integer expansion ``z^e (z-1)^e (z+1)^(n(n-1)-2e)``,
    so the sum is accumulated in plain integers and made a ``Poly`` once.
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
        for i, t in enumerate(_term(e, top - 2 * e)):
            acc[i] += c * t
    return Poly(acc)


def pn_from_counts(table: CountTable, n: int, m: int,
                   variant: CountFormula) -> Poly:
    """Raw variant sum (the binomial times the polynomial), exact.

    One pass over the cells with ``m`` positive turns: a cell in row ``l'``
    enters row ``l = l' - off`` for the one row offset (the two differ by
    one) with ``l`` congruent to ``n`` mod 3, signed by the parity of
    ``n + l``; signed counts are summed per exponent.  Every nonzero term
    must have an exponent divisible by 3.
    """
    if table.n != n:
        raise ValueError("count table does not match n")
    if not 0 <= m <= n:
        raise ValueError("m out of range")
    offsets = variant.row_offsets()
    sums: dict[int, int] = {}
    for (cell_m, row, *ks), cnt in table.counts.items():
        if cell_m != m or not cnt:
            continue
        for off in offsets:
            l = row - off
            if (l - n) % 3:
                continue
            k = ks[variant.color]
            e_num = variant.exponent_numerator(n, m, l, k)
            if e_num % 3:
                raise ConsistencyError(
                    f"variant {variant.tag}, m={m}, l={l}, k={k}: "
                    f"non-integer exponent {e_num}/3 on a nonzero term"
                )
            e = e_num // 3
            sums[e] = sums.get(e, 0) + (-cnt if (n + l) % 2 else cnt)
    try:
        return _assemble(sums, n)
    except SingularInputError as err:
        raise ConsistencyError(
            f"variant {variant.tag}, m={m}: sum does not reduce to a polynomial"
        ) from err


def pn_consistent(n: int, table: CountTable | None = None) -> Poly:
    """The polynomial, computed from every variant/m and from the
    determinant route, with exact agreement enforced.

    The table is split by m in one pass, in insertion order, so each
    variant/m sum reads only its own cells.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None:
        table = count_table(n)
    by_m = {m: CountTable(table.n, {}) for m in range(n + 1)}
    for key, cnt in table.counts.items():
        if key[0] in by_m:
            by_m[key[0]].counts[key] = cnt
    results: dict[str, Poly] = {}
    for variant in VARIANTS:
        for m in range(n + 1):
            raw = pn_from_counts(by_m[m], n, m, variant)
            binom = variant.binomial(n, m)
            label = f"{variant.tag}:m={m}"
            if binom == 0:
                if not raw.is_zero():
                    raise ConsistencyError(
                        f"{label}: zero binomial but nonzero sum "
                        f"{[format_fraction(c) for c in raw.coeffs]}"
                    )
                continue
            results[label] = Poly(c / binom for c in raw.coeffs)
    reference_label, reference = next(iter(results.items()))
    for label, poly in results.items():
        if poly != reference:
            raise ConsistencyError(_divergence(reference_label, reference, label, poly))
    via_t = pn_via_T(n)
    if via_t != reference:
        raise ConsistencyError(
            _divergence(reference_label, reference, "determinant route", via_t)
        )
    return reference


def _divergence(label_a: str, a: Poly, label_b: str, b: Poly) -> str:
    width = max(len(a.coeffs), len(b.coeffs))
    diffs = []
    for i in range(width):
        ca = a.coeffs[i] if i < len(a.coeffs) else Fraction(0)
        cb = b.coeffs[i] if i < len(b.coeffs) else Fraction(0)
        if ca != cb:
            diffs.append(f"z^{i}: {format_fraction(ca)} vs {format_fraction(cb)}")
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
