"""Exact arithmetic substrate: rational polynomial values, fraction-free
integer determinants and interpolation at consecutive integers by integer
finite differences.

Rationals are ``fractions.Fraction`` (arbitrary precision, canonical
form); callers that can work in plain integers do so and make one
``Fraction`` at the end, as the count sums and the T samples do.  A
``Poly`` is a value: a dense coefficient tuple in ascending degree with no
trailing zeros, compared, hashed and evaluated but never combined.  The
few sums and products the package needs are written over plain ``int`` or
``Fraction`` lists where they happen.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


class SingularInputError(ValueError):
    """An evaluation hit a zero denominator or coincident sample points."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Dense univariate polynomial over Fraction, as a value: no arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def format_fraction(q: Fraction) -> str:
    q = _frac(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination.  Any other entry raises ``TypeError``: the elimination's
    exact divisions would silently floor a rational one."""
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix is not square")
    if not all(isinstance(x, int) for row in matrix for x in row):
        raise TypeError("det_exact takes integer entries only")
    if k == 0:
        return 1
    a = [list(row) for row in matrix]

    sign = 1
    prev = 1
    for j in range(k - 1):
        if a[j][j] == 0:
            for i in range(j + 1, k):
                if a[i][j] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[j][j]
        for i in range(j + 1, k):
            for col in range(j + 1, k):
                a[i][col] = (a[i][col] * pivot - a[i][j] * a[j][col]) // prev
            a[i][j] = 0
        prev = pivot
    return sign * a[k - 1][k - 1]


def interpolate(points: Sequence[tuple]) -> Poly:
    """Unique polynomial of degree < k through k points at consecutive
    increasing integers x0, x0+1, ...  The forward differences d_j of the
    values over their common denominator L are integers, and so is the
    Newton form sum_j d_j (z-x0)...(z-x0-j+1) (k-1)!/j!, expanded by
    Horner's rule; each coefficient is one Fraction over L (k-1)!.  A
    duplicate abscissa raises SingularInputError, other spacing ValueError."""
    xs = [_frac(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise SingularInputError("duplicate abscissa in interpolation data")
    x0 = xs[0].numerator if xs else 0
    if xs != list(range(x0, x0 + len(xs))):
        raise ValueError("abscissae are not consecutive increasing integers")
    ys = [_frac(y) for _, y in points]
    scale = lcm(*(y.denominator for y in ys))
    diffs = [y.numerator * (scale // y.denominator) for y in ys]
    for level in range(1, len(diffs)):  # diffs[j] becomes the j-th difference
        for i in range(len(diffs) - 1, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    acc: list[int] = []
    weight = 1  # (k-1)!/j! at step j
    for j in reversed(range(len(diffs))):
        # times (z - x0 - j), plus the scaled d_j
        acc = [a - (x0 + j) * b for a, b in zip([weight * diffs[j]] + acc, acc + [0])]
        weight *= max(j, 1)
    return Poly(Fraction(c, scale * weight) for c in acc)
