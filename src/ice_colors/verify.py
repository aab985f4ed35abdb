"""Randomized numeric verification suites.

Four families of checks:

* pointwise theta-function identities (addition rule, quasi-periodicity,
  omega-shift collapse to the cubed nome, the psi and x(z) relations, and
  the bridge from theta quotients to the G kernel), in two halves,
  ``identity_draws`` and ``identity_reports``, which ``verify`` runs in the
  parent and in a forked worker;
* equality of the state sum, summed by row transfer, with the determinant
  formula for the partition function at generic parameters;
* the specialized partition function at eta = -2/3: its closed double-sum
  form over (turns, left-arrow row), both with a free last-column parameter
  and at the quarter point where it collapses onto the determinant route
  through the exact polynomial (``tpoly.pn_via_T``);
* exact structural invariants of every state, summed by a column transfer
  over ``states.column_walk``'s search: ``lattice_suite``, a thin wrapper
  of ``states.check_states``.

Every report carries the worst relative residual over the requested trials
and a pass flag at the suite's tolerance.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import replace
from math import comb
from typing import NamedTuple

from .exact import Poly
from .lattice import CountTable, count_table
from .states import check_states
from .theta import (OMEGA, TWO_PI_I, ModelParams, ParamSampler,
                    partition_filali, partition_transfer, psi_numeric, resample,
                    theta, theta_pm, x_numeric)
from .tpoly import g_eval, pn_via_T, t_prefactor

POINTWISE_TOL = 1e-10
DETERMINANT_TOL = 1e-8


class IdentityReport(NamedTuple):
    name: str
    trials: int
    max_rel_residual: float
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "max_rel_residual": self.max_rel_residual,
            "pass": self.passed,
        }


def relerr(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _worst(residuals: Iterable[float]) -> float:
    """The largest residual, or NaN if any is NaN.

    ``max`` keeps its current value when compared with a NaN, so it would
    drop one that follows the first trial.  Every residual is drawn, so the
    sampler ends in the same state either way.
    """
    values = list(residuals)
    return math.nan if any(map(math.isnan, values)) else max(values)


# ---------------------------------------------------------------------------
# pointwise theta identities


def _addition_rule(p: complex, x1: complex, x2: complex, x3: complex,
                   x4: complex) -> float:
    lhs = (theta_pm(x1, x3, p) * theta_pm(x2, x4, p)
           - theta_pm(x1, x4, p) * theta_pm(x2, x3, p))
    rhs = x2 / x3 * theta_pm(x1, x2, p) * theta_pm(x3, x4, p)
    return relerr(lhs, rhs)


def _quasi_periodicity(p: complex, x: complex) -> float:
    ref = -theta(x, p) / x
    return max(relerr(theta(p * x, p), ref), relerr(theta(1 / x, p), ref))


def _sqrt_nome_omega_swap(p: complex) -> float:
    sp = cmath.sqrt(p)
    return relerr(theta(sp * OMEGA, p), theta(sp * OMEGA**2, p))


def _triple_product(p: complex, x: complex, a: int) -> float:
    lhs = (theta(x * OMEGA**a, p) * theta(x * OMEGA ** (a + 1), p)
           * theta(x * OMEGA ** (a + 2), p))
    return relerr(lhs, theta(x**3, p**3))


def _psi_two_psi_plus_one(p: complex) -> float:
    sp = cmath.sqrt(p)
    rhs = (theta(-sp * OMEGA, p) ** 2 * theta(OMEGA, p) ** 2
           / (theta(-OMEGA, p) ** 2 * theta(sp * OMEGA, p) ** 2))
    return relerr(2 * psi_numeric(p) + 1, rhs)


def _psi_plus_one(p: complex) -> float:
    sp = cmath.sqrt(p)
    rhs = -theta(sp, p) * theta(-sp * OMEGA, p) / (theta(-sp, p) * theta(sp * OMEGA, p))
    return relerr(psi_numeric(p) + 1, rhs)


def _x_at_zero(p: complex) -> float:
    return relerr(x_numeric(0j, p), 2 * psi_numeric(p) + 1)


def _x_at_minus_sixth(p: complex) -> float:
    return relerr(x_numeric(-1 / 6 + 0j, p), psi_numeric(p))


def _x_difference(p: complex, z: complex, w: complex) -> float:
    sp = cmath.sqrt(p)
    ez, ew = cmath.exp(TWO_PI_I * z), cmath.exp(TWO_PI_I * w)
    lhs = x_numeric(z, p) - x_numeric(w, p)
    front = (theta(-sp * OMEGA, p) ** 2 * theta(sp * OMEGA, p) * theta(sp, p)
             * OMEGA / theta(-OMEGA, p) ** 2)
    rhs = front * (theta(ew * ez, p) * theta(ew / ez, p) / ew
                   / (theta_pm(sp * OMEGA, ez, p) * theta_pm(sp * OMEGA, ew, p)))
    return relerr(lhs, rhs)


def _g_bridge(p: complex, z: complex, w: complex) -> float:
    sp = cmath.sqrt(p)
    ez, ew = cmath.exp(TWO_PI_I * z), cmath.exp(TWO_PI_I * w)
    lhs = (theta(ew * ez, p) * theta(ew / ez, p)
           / (theta((ew * ez) ** 3, p**3) * theta((ew / ez) ** 3, p**3)))
    c_tilde = (OMEGA**2 * theta(-1 + 0j, p) * theta(sp, p) ** 3
               * theta(sp * OMEGA, p) ** 2 * theta(-sp * OMEGA, p) ** 6
               / (theta(-OMEGA, p) ** 4 * theta(-sp, p)))
    g = g_eval(x_numeric(z, p), x_numeric(w, p), psi_numeric(p))
    rhs = (c_tilde / ew**2
           / (theta_pm(sp * OMEGA, ew, p) ** 2 * theta_pm(sp * OMEGA, ez, p) ** 2)
           / g)
    return relerr(lhs, rhs)


# Each check draws its arguments from the sampler, one per letter of its
# kinds in turn (n a nome, u a unit, e an exponent, a a shift in -3..3), and
# then computes its residual of them; the draws use nothing but the sampler.
_DRAW = {"n": ParamSampler.nome, "u": ParamSampler.unit,
         "e": ParamSampler.exponent, "a": lambda s: s.rng.randrange(-3, 4)}

_POINTWISE = (  # (name, kinds, residual)
    ("addition_rule", "nuuuu", _addition_rule),
    ("quasi_periodicity", "nu", _quasi_periodicity),
    ("sqrt_nome_omega_swap", "n", _sqrt_nome_omega_swap),
    ("triple_product", "nua", _triple_product),
    ("psi_two_psi_plus_one", "n", _psi_two_psi_plus_one),
    ("psi_plus_one", "n", _psi_plus_one),
    ("x_at_zero", "n", _x_at_zero),
    ("x_at_minus_sixth", "n", _x_at_minus_sixth),
    ("x_difference", "nee", _x_difference),
    ("g_bridge", "nee", _g_bridge),
)


def identity_draws(sampler: ParamSampler, trials: int = 100) -> list[list[tuple]]:
    """The arguments of every pointwise check's trials, drawn check by
    check and each check's trials in a row; ``identity_reports`` evaluates
    them."""
    return [[tuple(_DRAW[kind](sampler) for kind in kinds) for _ in range(trials)]
            for _, kinds, _ in _POINTWISE]


def identity_reports(draws: list[list[tuple]]) -> list[IdentityReport]:
    """One report per pointwise check, from ``identity_draws``'s arguments."""
    reports = []
    for (name, _, residual), trials in zip(_POINTWISE, draws):
        value = _worst(residual(*args) for args in trials)
        reports.append(IdentityReport(name, len(trials), value, value <= POINTWISE_TOL))
    return reports


# ---------------------------------------------------------------------------
# state sum vs determinant formula


def filali_suite(sampler: ParamSampler, trials: int = 20,
                 sizes: tuple[int, ...] = (1, 2, 3)) -> list[IdentityReport]:
    reports = []
    for n in sizes:
        def draw(n=n):
            params = sampler.params(n)
            return relerr(partition_transfer(n, params), partition_filali(n, params))

        value = _worst(resample(draw) for _ in range(trials))
        reports.append(IdentityReport(f"determinant_formula_n{n}", trials, value,
                                      value <= DETERMINANT_TOL))
    return reports


# ---------------------------------------------------------------------------
# specialized partition function at eta = -2/3


def _color_weighted_sums(table: CountTable, rho_m: complex,
                         p: complex) -> dict[tuple[int, int], complex]:
    """For each (m, l): sum over states of the inverse cubed face thetas,
    which depends on a state only through its color census.  Cells are
    added in key order, so no counting engine's walk order moves the sums."""
    t = [theta(rho_m, p), theta(rho_m * OMEGA, p), theta(rho_m * OMEGA**2, p)]
    sums: dict[tuple[int, int], complex] = {}
    for (m, l, k0, k1, k2), cnt in sorted(table.counts.items()):
        value = cnt / (t[0] ** (3 * k0) * t[1] ** (3 * k1) * t[2] ** (3 * k2))
        sums[(m, l)] = sums.get((m, l), 0j) + value
    return sums


def _turn_row_factor(params: ModelParams, rho_m: complex, zeta_m: complex,
                     n: int, m: int) -> complex:
    p = params.p
    return (theta(rho_m * OMEGA, p) ** (2 * (n - m))
            * theta(rho_m * OMEGA**2, p) ** (2 * m)
            / OMEGA ** (2 * (n - m))
            * (theta(rho_m * zeta_m * OMEGA**2, p)
               / theta(rho_m * zeta_m * OMEGA, p)) ** m
            * (theta(zeta_m * OMEGA**2, p) / theta(zeta_m * OMEGA, p)) ** (n - m))


def grouped_state_sum(n: int, params: ModelParams, table: CountTable) -> complex:
    """Closed form of the specialized partition function as a double sum
    over turn count and left-arrow row, with a free last-column parameter."""
    p, q = params.p, params.q_pow
    mu_n = params.mu[-1]
    rho_m, zeta_m = q(params.rho), q(params.zeta)
    face_sums = _color_weighted_sums(table, rho_m, p)

    theta_rho = theta(rho_m, p)
    x_extra = {
        0: theta_rho**2,
        1: theta_rho * theta(rho_m * OMEGA**2, p),
        2: theta(rho_m * OMEGA, p) * theta(rho_m * OMEGA**2, p),
    }[n % 3]
    prefactor = ((-OMEGA**2) ** (comb(n + 1, 2) + 1)
                 * theta_rho ** (n + 1)
                 * theta(rho_m**3, p**3) ** (2 * n * (n + 1) - 1)
                 / theta(OMEGA, p) ** (2 * n - 1) * x_extra)

    total = 0j
    for (m, l), face_sum in face_sums.items():
        k = (l + 1) // 2
        column = (theta(q(1 + mu_n), p) * theta(q(2 - mu_n), p)) ** (k - 1) \
            * (theta(q(2 + mu_n), p) * theta(q(1 - mu_n), p)) ** (n - k)
        column *= (theta(rho_m * q(-n + l), p) * theta(rho_m * q(-n + l - 1), p)
                   * theta(rho_m * q(-n + l + 1 + mu_n), p))
        if l % 2 == 1:
            column *= theta(q(1 - mu_n), p)
        else:
            column *= q(-mu_n) * theta(q(1 + mu_n), p)
        total += _turn_row_factor(params, rho_m, zeta_m, n, m) * column * face_sum
    return prefactor * total


def quarter_point_state_sum(n: int, params: ModelParams, table: CountTable) -> complex:
    """The same double sum after fixing the last-column parameter to 1/4."""
    p, q = params.p, params.q_pow
    rho_m, zeta_m = q(params.rho), q(params.zeta)
    face_sums = _color_weighted_sums(table, rho_m, p)

    theta_rho = theta(rho_m, p)
    x_extra = {
        0: 1 + 0j,
        1: theta(rho_m * OMEGA**2, p) / theta_rho,
        2: theta(rho_m * OMEGA, p) * theta(rho_m * OMEGA**2, p) / theta_rho**2,
    }[n % 3]
    prefactor = ((-OMEGA**2) ** (comb(n + 1, 2) + 1)
                 * theta_rho ** (n + 3) * theta(-1 + 0j, p) ** (2 * n - 1)
                 * theta(rho_m**3, p**3) ** (2 * n * (n + 1) - 1)
                 / theta(OMEGA, p) ** (2 * n - 1) * x_extra)

    xi = OMEGA * theta(-OMEGA, p) / theta(-1 + 0j, p)
    total = 0j
    for (m, l), face_sum in face_sums.items():
        row = ((-1) ** (l - 1) * xi ** (l - 1)
               * theta(rho_m * OMEGA ** (-n + l), p)
               * theta(rho_m * OMEGA ** (-n + l - 1), p)
               * theta(-rho_m * OMEGA ** (-n + l + 2), p))
        total += _turn_row_factor(params, rho_m, zeta_m, n, m) * row * face_sum
    return prefactor * total


def quarter_point_determinant(n: int, params: ModelParams, pn_poly: Poly) -> complex:
    """The determinant route at the quarter point: prefactors times the
    coalesced T value, the latter reproduced from the exact polynomial."""
    p, q = params.p, params.q_pow
    rho_m, zeta_m = q(params.rho), q(params.zeta)
    sp = cmath.sqrt(p)
    psi = psi_numeric(p)
    t_value = t_prefactor(psi, n) * pn_poly(-1 / (2 * psi + 1))

    c_const = (theta(-OMEGA, p) ** 2 * theta(-sp, p)
               / (OMEGA * theta(-1 + 0j, p) * theta(sp, p) ** 2
                  * theta(sp * OMEGA, p) * theta(-sp * OMEGA, p) ** 4))
    b_extra = (theta(rho_m * OMEGA**2, p) / theta(rho_m, p)) if n % 3 == 1 else 1 + 0j
    prefactor = ((-OMEGA) ** (comb(n + 1, 2) + n)
                 * (c_const / theta(OMEGA, p) ** 2) ** (n * n - n)
                 * b_extra * theta(sp * OMEGA, p) ** (2 * (n - 1) * (2 * n - 1))
                 * (theta(-sp * OMEGA**2, p) * theta(-sp, p)) ** (n - 1)
                 / (theta(rho_m, p) ** n * theta(OMEGA, p)))

    zeta_ratio = theta(zeta_m * OMEGA**2, p) / theta(zeta_m * OMEGA, p)
    rho_zeta_ratio = (theta(rho_m * zeta_m * OMEGA**2, p)
                      / theta(rho_m * zeta_m * OMEGA, p))
    msum = 0j
    for m in range(n + 1):
        part = 0j
        if m >= 1:
            part += (comb(n - 1, m - 1) * OMEGA ** (-m) * theta(-1 + 0j, p)
                     * theta(-rho_m * OMEGA**2, p)
                     * theta(rho_m * OMEGA, p) ** (m - 1)
                     * theta(rho_m * OMEGA**2, p) ** (n - m))
        if m <= n - 1:
            part -= (comb(n - 1, m) * OMEGA ** (-m - 2) * theta(-OMEGA, p)
                     * theta(-rho_m, p) * theta(rho_m * OMEGA, p) ** m
                     * theta(rho_m * OMEGA**2, p) ** (n - m - 1))
        msum += part * rho_zeta_ratio**m * zeta_ratio ** (n - m)
    return prefactor * t_value * msum


class SpecializationDraw(NamedTuple):
    grouped_state_sum: float
    quarter_point_state_sum: float
    quarter_point_determinant: float


def specialization_check(n: int, params: ModelParams, table: CountTable,
                         pn_poly: Poly) -> SpecializationDraw:
    """Residuals of the three specialized identities for one parameter draw.

    ``params`` must carry eta = -2/3, unit lambdas, and zero mus except the
    last one, which stays generic; the quarter-point checks replace it by
    1/4 internally.
    """
    total = partition_transfer(n, params)
    generic = relerr(total, grouped_state_sum(n, params, table))
    quarter = replace(params, mu=params.mu[:-1] + (0.25 + 0j,))
    total_q = partition_transfer(n, quarter)
    qsum = relerr(total_q, quarter_point_state_sum(n, quarter, table))
    qdet = relerr(total_q, quarter_point_determinant(n, quarter, pn_poly))
    return SpecializationDraw(generic, qsum, qdet)


def specialization_suite(sampler: ParamSampler, trials: int = 5,
                         sizes: tuple[int, ...] = (1, 2)) -> list[IdentityReport]:
    reports = []
    for n in sizes:
        table = count_table(n)
        pn_poly = pn_via_T(n)
        def draw(n=n, table=table, pn_poly=pn_poly):
            return specialization_check(
                n, sampler.supersymmetric_params(n), table, pn_poly)

        draws = [resample(draw) for _ in range(trials)]
        for label, value in zip(SpecializationDraw._fields, map(_worst, zip(*draws))):
            reports.append(IdentityReport(f"{label}_n{n}", trials, value,
                                          value <= DETERMINANT_TOL))
    return reports


# ---------------------------------------------------------------------------
# exact state invariants


def lattice_suite(max_n: int = 3) -> list[IdentityReport]:
    """One report per size up to ``max_n``: its states, and how many of
    them break a rule (``states.check_states``)."""
    reports = []
    for n in range(1, max_n + 1):
        states, failures = check_states(n)
        reports.append(IdentityReport(f"state_invariants_n{n}", states,
                                      float(failures), failures == 0))
    return reports
