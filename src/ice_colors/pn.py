"""Polynomials from three-color state counts, three ways.

Each variant turns the count table into a signed sum of terms
``count * (z(z-1))^e1 / (z+1)^e2`` over rows ``l`` congruent to ``n`` mod 3,
weighted by the census of one face color.  The raw sum equals a binomial
coefficient times one and the same polynomial for every variant and every
admissible number of positive turns; poles at z in {-1, 0, 1} live only in
individual terms and must cancel in the aggregate.  Dividing by the binomial
and comparing across variants, and against the determinant route, is the
strongest end-to-end check this model admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import Poly, format_fraction
from .lattice import CountTable, count_table
from .tpoly import pn_via_T


class ConsistencyError(AssertionError):
    """The exact cross-checks between formulas failed."""


@dataclass(frozen=True)
class CountFormula:
    """One of the three count formulas: which color enters, which binomial
    scales the polynomial, which neighbouring rows are summed, and the two
    exponent laws (returned times 3, so integrality can be asserted)."""

    tag: str
    color: int

    def binomial(self, n: int, m: int) -> int:
        if self.tag == "A":
            return comb(n - 1, m - 1) if m >= 1 else 0
        if self.tag == "B":
            return comb(n, m)
        return comb(n - 1, m) if m <= n - 1 else 0

    def row_offsets(self) -> tuple[int, int]:
        return {"A": (0, -1), "B": (0, 1), "C": (1, 2)}[self.tag]

    def exponent_numerators(self, n: int, m: int, l: int, k: int) -> tuple[int, int]:
        c = 3 if n % 3 in (0, 1) else 1
        d = 0 if n % 3 in (0, 1) else 1
        if self.tag == "A":
            return (3 * k - n * n - 6 * n + l - c,
                    6 * k - 5 * n * n - 9 * n + 2 * l - 2 * c)
        if self.tag == "B":
            return (3 * k - n * n - 6 * n + 3 * m + l - d,
                    6 * k - 5 * n * n - 9 * n + 6 * m + 2 * l - 2 * d)
        return (3 * k - n * n - 3 * n - 3 * m + l - d,
                6 * k - 5 * n * n - 3 * n - 6 * m + 2 * l - 2 * d)


VARIANT_A = CountFormula("A", 0)
VARIANT_B = CountFormula("B", 1)
VARIANT_C = CountFormula("C", 2)
VARIANTS = (VARIANT_A, VARIANT_B, VARIANT_C)

_P = Poly([0, -1, 1])  # z(z-1)
_Q = Poly([1, 1])      # z+1


def _assemble(terms: list[tuple[int, int, int]]) -> Poly:
    """Sum of coeff * P^e1 * Q^(-e2) over a shared denominator, reduced.

    The aggregate is a polynomial whenever the counts are consistent, so the
    trailing divisions must be exact; a remainder means corrupt input.
    """
    if not terms:
        return Poly()
    e1_floor = min(0, min(e1 for _, e1, _ in terms))
    e2_ceil = max(0, max(e2 for _, _, e2 in terms))
    acc = Poly()
    for coeff, e1, e2 in terms:
        acc = acc + coeff * _P ** (e1 - e1_floor) * _Q ** (e2_ceil - e2)
    if e1_floor < 0:
        acc = acc.exact_div(_P ** (-e1_floor))
    if e2_ceil > 0:
        acc = acc.exact_div(_Q**e2_ceil)
    return acc


def pn_from_counts(table: CountTable, n: int, m: int,
                   variant: CountFormula) -> Poly:
    """Raw variant sum (the binomial times the polynomial), exact.

    Rows outside [1, 2n] contribute nothing; the loop runs over a superset
    of the residue class so that every referenced row index is covered.
    Every nonzero term must have exponents divisible by 3.
    """
    if table.n != n:
        raise ValueError("count table does not match n")
    if not 0 <= m <= n:
        raise ValueError("m out of range")
    marg = table.color_marginal(variant.color)
    off_a, off_b = variant.row_offsets()
    terms: list[tuple[int, int, int]] = []
    for l in range(-3, 2 * n + 4):
        if (l - n) % 3:
            continue
        combined: dict[int, int] = {}
        for off in (off_a, off_b):
            for k, cnt in marg.get((m, l + off), {}).items():
                combined[k] = combined.get(k, 0) + cnt
        sign = -1 if (n + l) % 2 else 1
        for k, cnt in sorted(combined.items()):
            if cnt == 0:
                continue
            e1_num, e2_num = variant.exponent_numerators(n, m, l, k)
            if e1_num % 3 or e2_num % 3:
                raise ConsistencyError(
                    f"variant {variant.tag}, m={m}, l={l}, k={k}: "
                    f"non-integer exponent {e1_num}/3 or {e2_num}/3 on a nonzero term"
                )
            terms.append((sign * cnt, e1_num // 3, e2_num // 3))
    try:
        return _assemble(terms)
    except Exception as err:
        raise ConsistencyError(
            f"variant {variant.tag}, m={m}: sum does not reduce to a polynomial"
        ) from err


def pn_consistent(n: int, table: CountTable | None = None) -> Poly:
    """The polynomial, computed from every variant/m and from the
    determinant route, with exact agreement enforced."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None:
        table = count_table(n)
    results: dict[str, Poly] = {}
    for variant in VARIANTS:
        for m in range(n + 1):
            raw = pn_from_counts(table, n, m, variant)
            binom = variant.binomial(n, m)
            label = f"{variant.tag}:m={m}"
            if binom == 0:
                if not raw.is_zero():
                    raise ConsistencyError(
                        f"{label}: zero binomial but nonzero sum "
                        f"{[format_fraction(c) for c in raw.coeffs]}"
                    )
                continue
            results[label] = raw * Fraction(1, binom)
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
    """Exact test of p(z) = ((1+3z)/2)^(n(n-1)) * p((1-z)/(1+3z))."""
    power = (n - 1) * n
    if p.degree > power:
        raise ValueError("degree exceeds (n-1)n")
    lhs = Fraction(2) ** power * p
    one_minus = Poly([1, -1])
    one_plus3 = Poly([1, 3])
    rhs = Poly()
    for k, coeff in enumerate(p.coeffs):
        rhs = rhs + coeff * one_minus**k * one_plus3 ** (power - k)
    return lhs == rhs


def positivity_report(p: Poly) -> list[tuple[int, Fraction]]:
    """Indices and values of negative coefficients (expected empty)."""
    return [(i, c) for i, c in enumerate(p.coeffs) if c < 0]
