"""The symmetric determinant ratio T at its coalesced point, and p_n from it.

``T(x; y) = prod G(x_i, y_j) * det[1/G(x_i, y_j)] / (V(x) * V(y))`` over n
arguments in each group is a symmetric polynomial, so its value at repeated
arguments is the limit of the raw formula.  The target specialization puts
every x and all but the last y at ``a = 2*psi+1``, and the last y at psi.
As arguments coalesce, the determinant over the Vandermonde turns its rows
and columns into Taylor coefficients (the confluent-Vandermonde limit):

    T = G(a,a)^(n(n-1)) * G(a,psi)^n * det C / (psi - a)^(n-1),

where ``C[i][j] = [u^i v^j] 1/G(a+u, a+v)`` for ``j < n-1`` and
``C[i][n-1] = [u^i] 1/G(a+u, psi)``.  G is quadratic in each argument, so
its Taylor coefficients are read off values on a 3x3 grid, and those of
1/G follow by series inversion.  G(a,a) = 2(psi+1)^2(2psi+1)^2 and
G(a,psi) = 2psi^2(psi+1)^2 vanish at no admissible psi, so every
evaluation is one exact determinant.

Dividing by the closed-form prefactor in psi and sampling over rational
psi-values reconstructs a polynomial p in z = -1/(2*psi+1) of degree n(n-1)
with constant term 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Poly, SingularInputError, det_exact, interpolate


def g_eval(x, y, psi):
    """Symmetric coupling kernel; works for Fraction and complex alike."""
    s = x + y
    return ((psi + 2) * x * y * s + psi * (2 * psi + 1) * s
            - 2 * (psi * psi + 3 * psi + 1) * x * y - psi * (x * x + y * y))


@dataclass(frozen=True)
class PsiPoint:
    """An admissible rational psi together with its companion value 2*psi+1."""

    psi: Fraction

    def __post_init__(self):
        if self.psi in (Fraction(0), Fraction(-1), Fraction(-1, 2)):
            raise ValueError("psi in {0, -1, -1/2} degenerates the specialization")

    @property
    def xi0(self) -> Fraction:
        return 2 * self.psi + 1

    @staticmethod
    def from_z(z: Fraction) -> "PsiPoint":
        z = Fraction(z)
        if z in (Fraction(0), Fraction(1), Fraction(-1)):
            raise ValueError("z in {0, 1, -1} is not an admissible sample")
        return PsiPoint(Fraction(-(1 + z), 2 * z))


def _quadratic(at_minus, at_zero, at_plus) -> tuple:
    """Coefficients of the quadratic taking these values at -1, 0 and 1."""
    return (at_zero, (at_plus - at_minus) / 2, (at_plus + at_minus) / 2 - at_zero)


def _inverse_series(g, rows: int, cols: int) -> list[list[Fraction]]:
    """``[u^i v^j] 1/g`` for i < rows and j < cols, from the coefficients
    ``g[p][q] = [u^p v^q] g`` of a polynomial with ``g[0][0] != 0``."""
    h = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = Fraction(i == 0 and j == 0)
            for p in range(min(i, len(g) - 1) + 1):
                for q in range(min(j, len(g[p]) - 1) + 1):
                    if p or q:
                        acc -= g[p][q] * h[i - p][j - q]
            h[i][j] = acc / g[0][0]
    return h


def t_at_specialization(point: PsiPoint, n: int) -> Fraction:
    """T at 2n-1 copies of 2*psi+1 and a single psi, by the confluent limit."""
    psi, a = point.psi, point.xi0
    steps = (-1, 0, 1)
    # [v^q] G(a+du, a+v) for du = -1, 0, 1, then each fitted in u
    in_v = [_quadratic(*(g_eval(a + du, a + dv, psi) for dv in steps)) for du in steps]
    by_q = [_quadratic(*(row[q] for row in in_v)) for q in range(3)]
    g_aa = [[by_q[q][p] for q in range(3)] for p in range(3)]  # [u^p v^q] G(a+u, a+v)
    g_apsi = _quadratic(*(g_eval(a + du, psi, psi) for du in steps))  # [u^p] G(a+u, psi)
    at_a = _inverse_series(g_aa, n, n - 1)
    at_psi = _inverse_series([[c] for c in g_apsi], n, 1)
    det = det_exact([row_a + row_psi for row_a, row_psi in zip(at_a, at_psi)])
    return (g_aa[0][0] ** (n * (n - 1)) * g_apsi[0] ** n * det
            / (psi - a) ** (n - 1))


def _prefactor(point: PsiPoint, n: int) -> Fraction:
    psi, xi0 = point.psi, point.xi0
    return (psi / xi0) ** (n - 1) * ((psi + 1) * xi0 * xi0) ** (n * n - n)


def pn_via_T(n: int) -> Poly:
    """Reconstruct the degree-n(n-1) polynomial from the T specialization.

    For each rational sample z, psi = -(1+z)/(2z) makes -1/(2*psi+1) = z;
    dividing the coalesced T value by the prefactor gives the polynomial
    value at z.  One extra sample guards the interpolation degree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    deg = n * (n - 1)
    zs = [Fraction(z) for z in range(2, 2 + deg + 2)]
    samples = []
    for z in zs:
        point = PsiPoint.from_z(z)
        value = t_at_specialization(point, n) / _prefactor(point, n)
        samples.append((z, value))
    poly = interpolate(samples[:-1])
    zx, yx = samples[-1]
    if poly(zx) != yx:
        raise SingularInputError("specialized T is not polynomial of expected degree")
    return poly
