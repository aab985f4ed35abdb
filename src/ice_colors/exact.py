"""Exact arithmetic substrate: dense rational polynomials, fraction-free
determinants and Newton interpolation.

Rationals are ``fractions.Fraction`` throughout (arbitrary precision,
canonical form).  Polynomials are dense coefficient tuples in ascending
degree with no trailing zeros; degrees stay small enough here that dense
beats anything clever.
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
    """Dense univariate polynomial over Fraction."""

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a Poly")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.coeffs
        dd = other.degree
        lead = dn[-1]
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            factor = rem[i + dd] / lead
            if factor:
                quot[i] = factor
                for j, c in enumerate(dn):
                    rem[i + j] -= factor * c
        return Poly(quot), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise SingularInputError("polynomial division left a remainder")
        return q

    @staticmethod
    def _coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly([x])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def format_fraction(q: Fraction) -> str:
    q = _frac(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def det_exact(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix.

    Denominators are cleared first, then the integer matrix goes through
    fraction-free Bareiss elimination, so no rational arithmetic happens
    inside the O(k^3) loop.
    """
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix is not square")
    if k == 0:
        return Fraction(1)
    rows = [[_frac(x) for x in row] for row in matrix]
    scale = lcm(*(x.denominator for row in rows for x in row))
    a = [[int(x * scale) for x in row] for row in rows]

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
                return Fraction(0)
        pivot = a[j][j]
        for i in range(j + 1, k):
            for col in range(j + 1, k):
                a[i][col] = (a[i][col] * pivot - a[i][j] * a[j][col]) // prev
            a[i][j] = 0
        prev = pivot
    return Fraction(sign * a[k - 1][k - 1], scale**k)


def interpolate(points: Sequence[tuple]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Newton's divided differences, exact over Fraction.  Duplicate abscissae
    raise :class:`SingularInputError`.
    """
    xs = [_frac(x) for x, _ in points]
    ys = [_frac(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise SingularInputError("duplicate abscissa in interpolation data")
    coeffs = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form.
    result = Poly()
    for i in range(len(xs) - 1, -1, -1):
        result = result * Poly([-xs[i], 1]) + Poly([coeffs[i]])
    return result
