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

Each evaluation runs in integers.  With psi = P/Q in lowest terms and
a = A/Q, A = 2P + Q, the homogenized kernel ``g_eval(X, Y, P, Q)`` is
``Q^4 G(X/Q, Y/Q)``, an integer polynomial.  So the grid is read at
integer points around A, and its quadratic fits halve exactly; this gives
the integer coefficients g[p][q] of ``Q^4 G(a + U/Q, a + V/Q)`` and g'[p] of
``Q^4 G(a + U/Q, psi)``.  Their inverse series is carried scaled, as
``H[i][j] = g00^(i+j+1) [U^i V^j] 1/g`` and ``H'[i] = g'0^(i+1) [U^i] 1/g'``,
which obey integer recurrences.  Scaling row i of C by ``Q^-i (g00 g'0)^i``,
column j < n-1 by ``Q^-(4+j) g00^(j+1)`` and the last column by
``Q^-4 g'0`` makes it the integer matrix M with ``M[i][j] = H[i][j] g'0^i``
and ``M[i][n-1] = H'[i] g00^i``.  The powers of g00 cancel, and

    T = det M / (g'0^((n-1)(n-2)/2) * Q^(3n(n-1)) * (-(P+Q))^(n-1)),

the one ``Fraction`` of the evaluation.

Dividing by the closed-form prefactor ``t_prefactor`` and sampling over
rational psi-values reconstructs a polynomial p in z = -1/(2*psi+1) of
degree n(n-1) with constant term 1.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Poly, SingularInputError, det_exact, interpolate


def g_eval(x, y, psi, w=1):
    """Symmetric coupling kernel; works for Fraction and complex alike.

    ``w`` is a homogenizing weight: ``g_eval(X, Y, P, Q)`` is
    ``Q^4 * G(X/Q, Y/Q, P/Q)``, an integer at integer arguments.  The
    default ``w = 1`` gives G itself.
    """
    s = x + y
    return ((psi + 2 * w) * x * y * s + psi * (2 * psi + w) * s * w
            - 2 * (psi * psi + 3 * psi * w + w * w) * x * y
            - psi * (x * x + y * y) * w)


def _quadratic(at_minus, at_zero, at_plus) -> tuple:
    """Coefficients of the integer quadratic taking these values at -1, 0
    and 1; both halvings are exact."""
    return (at_zero, (at_plus - at_minus) // 2, (at_plus + at_minus) // 2 - at_zero)


def _inverse_series(g, rows: int, cols: int) -> list[list[int]]:
    """``g00^(i+j+1) * [u^i v^j] 1/g`` for i < rows and j < cols, from the
    integer coefficients ``g[p][q] = [u^p v^q] g`` of a polynomial with
    ``g00 = g[0][0] != 0``.

    The scaling turns the inversion recurrence
    ``g00 h[i][j] = [i=j=0] - sum g[p][q] h[i-p][j-q]`` into one over
    integers, ``H[i][j] = [i=j=0] - sum g[p][q] g00^(p+q-1) H[i-p][j-q]``,
    with the sums over (p, q) != (0, 0).
    """
    g00 = g[0][0]
    terms = [(p, q, c * g00 ** (p + q - 1))
             for p, row in enumerate(g) for q, c in enumerate(row) if (p or q) and c]
    h = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = int(i == 0 and j == 0)
            for p, q, c in terms:
                if p <= i and q <= j:
                    acc -= c * h[i - p][j - q]
            h[i][j] = acc
    return h


def t_at_specialization(psi: Fraction, n: int) -> Fraction:
    """T at 2n-1 copies of 2*psi+1 and a single psi, by the confluent limit,
    in integers up to one final division; psi in {0, -1, -1/2} raises
    ``ValueError``."""
    if psi in (0, -1, Fraction(-1, 2)):
        raise ValueError("psi in {0, -1, -1/2} degenerates the specialization")
    p, q = psi.numerator, psi.denominator
    a = 2 * p + q  # 2*psi+1 = a/q
    steps = (-1, 0, 1)
    # [V^s] g_eval(a+du, a+V, p, q) for du = -1, 0, 1, then each fitted in du
    in_v = [_quadratic(*(g_eval(a + du, a + dv, p, q) for dv in steps)) for du in steps]
    by_s = [_quadratic(*(row[s] for row in in_v)) for s in range(3)]
    # g_aa[r][s] = [U^r V^s] g_eval(a+U, a+V, p, q), g_apsi[r] = [U^r] g_eval(a+U, p, p, q)
    g_aa = [[by_s[s][r] for s in range(3)] for r in range(3)]
    g_apsi = _quadratic(*(g_eval(a + du, p, p, q) for du in steps))
    at_a = _inverse_series(g_aa, n, n - 1)
    at_psi = _inverse_series([[c] for c in g_apsi], n, 1)
    g00, g0_psi = g_aa[0][0], g_apsi[0]
    matrix = [[h * g0_psi**i for h in row_a] + [row_psi[0] * g00**i]
              for i, (row_a, row_psi) in enumerate(zip(at_a, at_psi))]
    return Fraction(det_exact(matrix), g0_psi ** ((n - 1) * (n - 2) // 2)
                    * q ** (3 * n * (n - 1)) * (-(p + q)) ** (n - 1))


def t_prefactor(psi, n: int):
    """The factor in T = t_prefactor(psi, n) * p_n(-1/(2*psi+1)), for a
    Fraction psi (exact) and a complex one (``verify``) alike."""
    return ((psi / (2 * psi + 1)) ** (n - 1)
            * ((psi + 1) * (2 * psi + 1) ** 2) ** (n * n - n))


def pn_via_T(n: int) -> Poly:
    """Reconstruct the degree-n(n-1) polynomial from the T specialization.

    At each z = 2..n(n-1)+3, psi = -(1+z)/(2z) makes -1/(2*psi+1) = z, and
    the coalesced T value over the prefactor is the polynomial's value.
    ``interpolate`` takes the values at these consecutive nodes from 2; the
    one beyond the degree guards them: the interpolant's degree must not
    exceed n(n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    deg = n * (n - 1)
    samples = []
    for z in range(2, deg + 4):
        psi = Fraction(-(1 + z), 2 * z)
        samples.append(t_at_specialization(psi, n) / t_prefactor(psi, n))
    poly = interpolate(2, samples)
    if poly.degree > deg:
        raise SingularInputError("specialized T is not polynomial of expected degree")
    return poly
