from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ice_colors.tpoly import g_eval, pn_via_T, t_at_specialization, t_prefactor

from oracles import t_distinct, t_perturbation_limit

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=50)
@given(fractions, fractions, fractions)
def test_g_symmetric(x, y, psi):
    assert g_eval(x, y, psi) == g_eval(y, x, psi)


@settings(max_examples=30)
@given(fractions, fractions)
def test_g_at_psi_zero(x, y):
    assert g_eval(x, y, Fraction(0)) == 2 * x * y * (x + y - 1)


@settings(max_examples=50)
@given(fractions, fractions, fractions, st.integers(1, 12))
def test_g_homogenized(x, y, psi, w):
    # g_eval(X, Y, P, Q) = Q^4 G(X/Q, Y/Q, P/Q)
    assert g_eval(x * w, y * w, psi * w, w) == w**4 * g_eval(x, y, psi)


def test_g_vanishing_point():
    assert g_eval(1, 1, 1) == 0


def test_t_n1_is_one():
    assert t_distinct([Fraction(3), Fraction(5, 2)], Fraction(2)) == 1
    assert t_distinct([Fraction(-1), Fraction(7)], Fraction(-3)) == 1


def _distinct_args(seed: int, count: int) -> list[Fraction]:
    return [Fraction(seed + 2 * i, 3) for i in range(count)]


def test_t_symmetric_within_groups_and_across():
    psi = Fraction(2)
    for n in (2, 3):
        xs = _distinct_args(5, n) + _distinct_args(31, n)
        base = t_distinct(xs, psi)
        swapped_first = list(xs)
        swapped_first[0], swapped_first[1] = swapped_first[1], swapped_first[0]
        assert t_distinct(swapped_first, psi) == base
        swapped_second = list(xs)
        swapped_second[n], swapped_second[n + 1] = swapped_second[n + 1], swapped_second[n]
        assert t_distinct(swapped_second, psi) == base
        groups_swapped = xs[n:] + xs[:n]
        assert t_distinct(groups_swapped, psi) == base
        across = list(xs)
        across[0], across[n] = across[n], across[0]
        assert t_distinct(across, psi) == base


def test_coalesced_n1_is_one():
    for psi in (Fraction(2), Fraction(-3, 4), Fraction(5, 7)):
        assert t_at_specialization(psi, 1) == 1


def test_specialization_matches_perturbation_oracle():
    for n in (1, 2, 3, 4, 5):
        for z in (Fraction(2), Fraction(3), Fraction(7, 3), Fraction(-5, 2),
                  Fraction(1, 4)):
            psi = -(1 + z) / (2 * z)
            targets = [2 * psi + 1] * (2 * n - 1) + [psi]
            assert (t_at_specialization(psi, n)
                    == t_perturbation_limit(targets, psi)), (n, z)


admissible_psi = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(
    lambda psi: psi not in (0, -1, Fraction(-1, 2)))


@settings(max_examples=60, deadline=None)
@given(admissible_psi, st.integers(1, 3))
@example(Fraction(-7, 12), 3)
@example(Fraction(-11, 4), 3)
@example(Fraction(5, 11), 2)
def test_specialization_matches_perturbation_oracle_at_drawn_psi(psi, n):
    # The integer evaluation scales by powers of psi's numerator and
    # denominator; negative and fractional psi exercise their signs.
    targets = [2 * psi + 1] * (2 * n - 1) + [psi]
    assert t_at_specialization(psi, n) == t_perturbation_limit(targets, psi)


@settings(max_examples=30)
@given(fractions)
def test_g_closed_forms_at_coalesced_point(psi):
    # The confluent formula divides by G(a, a) and G(a, psi), a = 2*psi+1;
    # both vanish only at psi in {0, -1, -1/2}, which t_at_specialization
    # rejects.
    a = 2 * psi + 1
    assert g_eval(a, a, psi) == 2 * (psi + 1) ** 2 * (2 * psi + 1) ** 2
    assert g_eval(a, psi, psi) == 2 * psi ** 2 * (psi + 1) ** 2


def test_t_at_specialization_rejects_degenerate_psi():
    for n in (1, 2, 3):
        for psi in (Fraction(0), Fraction(-1), Fraction(-1, 2)):
            with pytest.raises(ValueError, match="degenerates the specialization"):
                t_at_specialization(psi, n)


def test_pn_via_T_small():
    assert pn_via_T(1).coeffs == (Fraction(1),)
    p1 = pn_via_T(2)
    assert p1.coeffs == (Fraction(1), Fraction(1), Fraction(2))


def test_pn_via_T_degree_and_constant_term():
    for n in (1, 2, 3):
        poly = pn_via_T(n)
        assert poly.degree == n * (n - 1)
        assert poly.coeffs[0] == 1


OFF_GRID_PSI = (Fraction(5, 7), Fraction(-7, 12), Fraction(-11, 4), Fraction(3))


def test_t_is_prefactor_times_pn_off_the_sample_grid():
    # pn_via_T samples z = 2, 3, ...; these psi give z = -7/17, 6, 2/9 and
    # -1/7, so the relation is checked where the interpolation was not fed.
    for n in (1, 2, 3, 4):
        poly = pn_via_T(n)
        for psi in OFF_GRID_PSI:
            assert (t_at_specialization(psi, n)
                    == t_prefactor(psi, n) * poly(-1 / (2 * psi + 1))), (n, psi)


def test_t_prefactor_complex_matches_exact():
    # verify's quarter-point check evaluates the same prefactor at complex psi.
    for n in (1, 2, 3, 4):
        for psi in OFF_GRID_PSI:
            exact = float(t_prefactor(psi, n))
            assert abs(t_prefactor(complex(psi), n) - exact) <= 1e-12 * abs(exact)
