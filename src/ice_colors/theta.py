"""Floating-point theta functions, local weights and the two partition
function routes (brute-force state sum vs. determinant formula).

All spectral/dynamical/boundary parameters are kept as additive exponents;
powers of q = exp(2*pi*i*eta) are evaluated as exp(2*pi*i*eta*x) directly,
which sidesteps branch choices everywhere except the isolated square root
of the nome (cmath.sqrt, principal branch, used only inside identity
checks that are insensitive to the choice).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cache, cached_property

from .lattice import enumerate_states, heights, vertex_kinds

TWO_PI_I = 2j * math.pi
OMEGA = cmath.exp(TWO_PI_I / 3)

_TAIL = 1e-17
_MAX_TERMS = 2000
_SINGULAR = 1e-14


class NearSingularError(ArithmeticError):
    """A weight denominator came too close to zero; resample parameters."""


def theta(x: complex, p: complex) -> complex:
    """Infinite product theta(x, p) = prod (1 - p^j x)(1 - p^(j+1)/x).

    Truncated once |p|^j * max(|x|, 1/|x|) drops below 1e-17, giving at
    least 1e-12 relative accuracy for |p| <= 0.9.
    """
    if x == 0:
        raise ValueError("theta is singular at x = 0")
    ap = abs(p)
    if ap >= 1:
        raise ValueError("the nome must satisfy |p| < 1")
    scale = ap * max(abs(x), 1 / abs(x), 1.0)
    result = 1 + 0j
    pj = 1 + 0j
    inv_x = 1 / x
    for _ in range(_MAX_TERMS):
        result *= (1 - pj * x) * (1 - pj * p * inv_x)
        pj *= p
        if not scale >= _TAIL:  # NaN stops here too
            break
        scale *= ap
    return result


def theta_pm(base: complex, x: complex, p: complex) -> complex:
    """Shorthand theta(base*x) * theta(base/x)."""
    return theta(base * x, p) * theta(base / x, p)


@dataclass(frozen=True)
class ModelParams:
    """Numeric model parameters; lam/mu/rho/zeta are additive exponents."""

    p: complex
    eta: float
    lam: tuple[complex, ...]
    mu: tuple[complex, ...]
    rho: complex
    zeta: complex

    def __post_init__(self):
        if abs(self.p) >= 1:
            raise ValueError("the nome must satisfy |p| < 1")
        if len(self.lam) != len(self.mu):
            raise ValueError("need as many horizontal as vertical parameters")

    @property
    def n(self) -> int:
        return len(self.lam)

    def q_pow(self, x: complex) -> complex:
        return cmath.exp(TWO_PI_I * self.eta * x)

    @cached_property
    def bracket(self):
        """[x] = q^(-x/2) theta(q^x), evaluated once per distinct x."""
        @cache
        def bracket(x: complex) -> complex:
            return (cmath.exp(-1j * math.pi * self.eta * x)
                    * theta(self.q_pow(x), self.p))
        return bracket


def _guard(value: complex) -> complex:
    if abs(value) < _SINGULAR:
        raise NearSingularError("denominator too close to zero")
    return value


def vertex_weight(kind: str, lam_arg: complex, z: int, params: ModelParams) -> complex:
    """Weight of one vertex with height z in its reference corner."""
    br = params.bracket
    rz = params.rho + z
    if kind in ("a+", "a-"):
        return br(lam_arg + 1) / _guard(br(1))
    if kind == "b+":
        return br(lam_arg) * br(rz - 1) / _guard(br(rz) * br(1))
    if kind == "b-":
        return br(lam_arg) * br(rz + 1) / _guard(br(rz) * br(1))
    if kind == "c+":
        return br(rz + lam_arg) / _guard(br(rz))
    if kind == "c-":
        return br(rz - lam_arg) / _guard(br(rz))
    raise ValueError(f"unknown vertex kind {kind!r}")


def turn_weight(kind: str, lam: complex, z: int, params: ModelParams) -> complex:
    """Weight of one turn; z is the height just outside the turn."""
    br = params.bracket
    if kind == "k+":
        return br(params.rho + z + params.zeta - lam) / _guard(
            br(params.rho + z + params.zeta + lam))
    if kind == "k-":
        return br(params.zeta - lam) / _guard(br(params.zeta + lam))
    raise ValueError(f"unknown turn kind {kind!r}")


@cache
def _brute_skeleton(n: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The local-weight factors of the brute state sum, in enumeration order.

    Returns ``(factors, states)``.  ``factors`` lists each distinct local
    weight in order of first use: ``(row, column, kind, face height)`` for
    a vertex, ``(turn, positive)`` for a turn.  Each entry of ``states``
    indexes one state's factors, its vertices row by row and then its
    turns.  No parameter draw changes either."""
    factors: dict[tuple, int] = {}
    states = []
    for s in enumerate_states(n):
        grid, kinds = heights(s), vertex_kinds(s)
        ids = []
        for r in range(2 * n):
            z_row = grid[r + 1] if r % 2 == 1 else grid[r]  # upper-/lower-left face
            for c in range(n):
                key = (r, c, kinds[r][c], z_row[c])
                ids.append(factors.setdefault(key, len(factors)))
        for i, pos in enumerate(s.turn_positive):
            ids.append(factors.setdefault((i, pos), len(factors)))
        states.append(tuple(ids))
    return tuple(factors), tuple(states)


def _factor_weight(factor: tuple, params: ModelParams) -> complex:
    """Value of one ``_brute_skeleton`` factor at a parameter draw."""
    if len(factor) == 2:
        i, pos = factor
        return turn_weight("k+" if pos else "k-", params.lam[i], 0, params)
    r, c, kind, z = factor
    if r % 2 == 1:
        lam_arg = params.lam[r // 2] - params.mu[c]
    else:
        lam_arg = params.lam[r // 2] + params.mu[c]
    return vertex_weight(kind, lam_arg, z, params)


def state_weight(ids: tuple[int, ...], weights: list[complex]) -> complex:
    """Product of one state's local weights, taken in the order of its
    factor indices."""
    weight = 1 + 0j
    for i in ids:
        weight *= weights[i]
    return weight


def partition_brute(n: int, params: ModelParams) -> complex:
    """State sum of local weights; exponential in n, intended for n <= 3.

    Each distinct local weight is evaluated once per draw, in order of first
    use, and every state multiplies its weights in a fixed order (vertices
    row by row, then turns) and is added in enumeration order, so the sum
    does not depend on the memo.  Only weights that some state uses are
    evaluated, so ``NearSingularError`` is raised exactly when one of them
    is near-singular."""
    if params.n != n:
        raise ValueError("parameter count does not match n")
    factors, states = _brute_skeleton(n)
    weights = [_factor_weight(factor, params) for factor in factors]
    return sum(state_weight(ids, weights) for ids in states)


def det_complex(matrix: list[list[complex]]) -> complex:
    """Determinant by partially pivoted Gaussian elimination."""
    k = len(matrix)
    a = [list(row) for row in matrix]
    det = 1 + 0j
    for j in range(k):
        pivot = max(range(j, k), key=lambda i: abs(a[i][j]))
        if abs(a[pivot][j]) == 0:
            return 0j
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, k):
            factor = a[i][j] / a[j][j]
            for col in range(j + 1, k):
                a[i][col] -= factor * a[j][col]
    return det


def partition_filali(n: int, params: ModelParams) -> complex:
    """Determinant formula for the same partition function."""
    if params.n != n:
        raise ValueError("parameter count does not match n")
    br = params.bracket
    lam, mu, rho, zeta = params.lam, params.mu, params.rho, params.zeta

    value = _guard(br(1)) ** (n - 2 * n * n)
    for i in range(1, n + 1):
        li, mi = lam[i - 1], mu[i - 1]
        value *= (br(2 * li) * br(zeta - mi) * br(rho + zeta + mi)
                  * br(rho + 2 * i - n - 2))
        value /= _guard(br(zeta + li) * br(rho + zeta + li) * br(rho + n - i))
    kernel = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            block = (br(lam[i] + mu[j] + 1) * br(lam[i] - mu[j] + 1)
                     * br(lam[i] + mu[j]) * br(lam[i] - mu[j]))
            value *= block
            kernel[i][j] = 1 / _guard(block)
    for i in range(n):
        for j in range(i + 1, n):
            value /= _guard(br(lam[i] + lam[j] + 1) * br(lam[i] - lam[j])
                            * br(mu[j] + mu[i]) * br(mu[j] - mu[i]))
    return value * det_complex(kernel)


class ParamSampler:
    """Seeded draws inside boxes that keep the theta products well
    conditioned: exponents with Re in [-0.4, 0.4] and Im in [0.1, 0.5],
    nome with modulus in [0.05, 0.3]."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def exponent(self) -> complex:
        return complex(self.rng.uniform(-0.4, 0.4), self.rng.uniform(0.1, 0.5))

    def nome(self) -> complex:
        radius = self.rng.uniform(0.05, 0.3)
        return radius * cmath.exp(TWO_PI_I * self.rng.random())

    def unit(self) -> complex:
        """A point on a moderate annulus, as exp of a boxed exponent."""
        return cmath.exp(TWO_PI_I * self.exponent())

    def params(self, n: int) -> ModelParams:
        return ModelParams(
            p=self.nome(),
            eta=self.rng.uniform(0.05, 0.45),
            lam=tuple(self.exponent() for _ in range(n)),
            mu=tuple(self.exponent() for _ in range(n)),
            rho=self.exponent(),
            zeta=self.exponent(),
        )

    def supersymmetric_params(self, n: int) -> ModelParams:
        """eta = -2/3 with unit spectral parameters; only the last vertical
        line keeps a free parameter."""
        mu_last = self.exponent()
        return ModelParams(
            p=self.nome(),
            eta=-2.0 / 3.0,
            lam=(1.0 + 0j,) * n,
            mu=(0j,) * (n - 1) + (mu_last,),
            rho=self.exponent(),
            zeta=self.exponent(),
        )


def resample(make, attempts: int = 50):
    """Call make() until it stops raising NearSingularError."""
    for _ in range(attempts):
        try:
            return make()
        except NearSingularError:
            continue
    raise NearSingularError(f"no well-conditioned draw in {attempts} attempts")


def psi_numeric(p: complex) -> complex:
    """The modular quantity psi as a function of the nome."""
    sp = cmath.sqrt(p)
    return (OMEGA**2 * theta(-1 + 0j, p) * theta(-sp * OMEGA, p)
            / (theta(-sp, p) * theta(-OMEGA, p)))


def x_numeric(z: complex, p: complex) -> complex:
    """The modular coordinate x(z) with x(0) = 2*psi + 1."""
    sp = cmath.sqrt(p)
    e = cmath.exp(TWO_PI_I * z)
    return (theta(-sp * OMEGA, p) ** 2 * theta_pm(OMEGA, e, p)
            / (theta(-OMEGA, p) ** 2 * theta_pm(sp * OMEGA, e, p)))
