"""Floating-point theta functions, local weights and the two partition
function routes (state sum by row transfer vs. determinant formula).

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
from functools import cache, cached_property, lru_cache

from .lattice import row_transfer
from .states import classify_vertex

TWO_PI_I = 2j * math.pi
OMEGA = cmath.exp(TWO_PI_I / 3)

_TAIL = 1e-17
_MAX_TERMS = 2000
_SINGULAR = 1e-14
# The verify suites repeat an (x, p) soon after its first use (a check's own
# repeated factors, the specialized sums' theta(rho * omega^k)): at seed 0 of
# `verify --suite all --n 4`, all 4,751 repeats lie within the last 256
# distinct arguments, and all but one within 64.
_THETA_MEMO = 256


class NearSingularError(ArithmeticError):
    """A weight denominator came too close to zero; resample parameters."""


@lru_cache(maxsize=_THETA_MEMO)
def theta(x: complex, p: complex) -> complex:
    """Infinite product theta(x, p) = prod (1 - p^j x)(1 - p^(j+1)/x).

    Each factor is taken as 1 - p^j (s - p^(j+1)) with s = x + p/x, its
    expansion, which costs five complex operations against seven for the
    two factors.  Truncated once |p|^j * max(|x|, 1/|x|) drops below 1e-17,
    giving at least 1e-12 relative accuracy for |p| <= 0.9; ``ValueError``
    if that takes more than ``_MAX_TERMS`` factors (|p| near 1).  The last
    ``_THETA_MEMO`` distinct arguments are memoized; ``theta.__wrapped__``
    is the product itself.
    """
    if x == 0:
        raise ValueError("theta is singular at x = 0")
    ap = abs(p)
    if ap >= 1:
        raise ValueError("the nome must satisfy |p| < 1")
    scale = ap * max(abs(x), 1 / abs(x), 1.0)
    s = x + p / x
    result = 1 + 0j
    pj = 1 + 0j
    for _ in range(_MAX_TERMS):
        pj_next = pj * p
        result *= 1 - pj * (s - pj_next)
        pj = pj_next
        if not scale >= _TAIL:  # NaN stops here too
            break
        scale *= ap
    else:
        raise ValueError(f"theta needs more than {_MAX_TERMS} factors at |p| = {ap}")
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


def turn_weight(kind: str, lam: complex, params: ModelParams) -> complex:
    """Weight of one turn.  The face just outside it is a wall face, whose
    height is 0 (``lattice``)."""
    br = params.bracket
    if kind == "k+":
        return br(params.rho + params.zeta - lam) / _guard(
            br(params.rho + params.zeta + lam))
    if kind == "k-":
        return br(params.zeta - lam) / _guard(br(params.zeta + lam))
    raise ValueError(f"unknown turn kind {kind!r}")


def partition_transfer(params: ModelParams) -> complex:
    """State sum of local weights by ``lattice.row_transfer`` (Baxter's SOS
    transfer matrix), building no state.  A frontier value is the summed
    weight below its vertical edges; ``step`` sums turn x lower row x upper
    row per edges above, a row's weight cached per (lam, upper, along,
    below, above).  A row's vertex heights lie on the even face row beside
    it, whose wall face is 0: below a lower row, above an upper one.  Only
    weights that some state uses are evaluated, so ``NearSingularError`` is
    raised exactly when one of them is near-singular."""
    @cache
    def row(lam: complex, upper: bool, along: tuple[bool, ...],
            below: tuple[bool, ...], above: tuple[bool, ...]) -> complex:
        """Weight of one lower or upper row fill at ``lam``."""
        sign = -1 if upper else 1
        weight, z = 1 + 0j, 0
        for c, edge in enumerate(above if upper else below):
            kind = classify_vertex(upper, along[c], along[c + 1], below[c], above[c])
            weight *= vertex_weight(kind, lam + sign * params.mu[c], z, params)
            z += -1 if edge else 1
        return weight

    def step(i: int, below: tuple[bool, ...], fills):
        lam = params.lam[i]
        turns = [turn_weight(kind, lam, params) for kind in ("k-", "k+")]
        sums: dict[tuple[bool, ...], complex] = {}
        for positive, (lower, mid), (upper, above) in fills:
            weight = (turns[positive] * row(lam, False, lower, below, mid)
                      * row(lam, True, upper, mid, above))
            sums[above] = sums.get(above, 0j) + weight
        return sums.items()

    return row_transfer(params.n, 1 + 0j, step,
                        lambda acc, value, w: (acc or 0) + value * w)


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


def partition_filali(params: ModelParams) -> complex:
    """Determinant formula for the same partition function."""
    br = params.bracket
    n, lam, mu, rho, zeta = params.n, params.lam, params.mu, params.rho, params.zeta

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


def resample(make):
    """Call make() until it stops raising NearSingularError, 50 times at most."""
    for _ in range(50):
        try:
            return make()
        except NearSingularError:
            continue
    raise NearSingularError("no well-conditioned draw in 50 attempts")


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
