from fractions import Fraction

import pytest

from ice_colors.exact import Poly
from ice_colors.lattice import CountTable, count_table
from ice_colors.pn import (ConsistencyError, VARIANT_A, VARIANT_B, VARIANT_C,
                           VARIANTS, pn_consistent, pn_from_counts,
                           positivity_report, symmetry_check)
from ice_colors.tpoly import pn_via_T

# Frozen after exact agreement of the count route and the determinant route.
P1 = Poly([1, 1, 2])
P2 = Poly([1, 2, 7, 10, 21, 12, 11])
P3 = Poly([1, 3, 15, 35, 105, 195, 435, 555, 840, 710, 738, 294, 170])
P4 = Poly([1, 4, 26, 82, 319, 840, 2488, 5572, 13524, 24920, 48776, 72800,
           114716, 135464, 169536, 148972, 141835, 85044, 58406, 17822, 7429])


@pytest.fixture(scope="module")
def tables():
    return {n: count_table(n) for n in (1, 2, 3)}


def test_variant_bookkeeping():
    assert VARIANT_A.binomial(3, 0) == 0
    assert VARIANT_A.binomial(3, 2) == 2
    assert VARIANT_B.binomial(3, 2) == 3
    assert VARIANT_C.binomial(3, 3) == 0
    assert VARIANT_A.row_offsets() == (0, -1)
    assert VARIANT_B.row_offsets() == (0, 1)
    assert VARIANT_C.row_offsets() == (1, 2)


def test_n1_variant_examples(tables):
    table = tables[1]
    assert pn_from_counts(table, 1, 1, VARIANT_A) == Poly([1])
    assert pn_from_counts(table, 1, 0, VARIANT_A).is_zero()
    assert pn_from_counts(table, 1, 0, VARIANT_C) == Poly([1])
    assert pn_from_counts(table, 1, 0, VARIANT_B) == Poly([1])
    assert pn_from_counts(table, 1, 1, VARIANT_B) == Poly([1])


def test_zero_binomial_sums_vanish(tables):
    for n, table in tables.items():
        assert pn_from_counts(table, n, 0, VARIANT_A).is_zero()
        assert pn_from_counts(table, n, n, VARIANT_C).is_zero()


def test_variant_m_independence(tables):
    for n, table in tables.items():
        polys = set()
        for variant in VARIANTS:
            for m in range(n + 1):
                binom = variant.binomial(n, m)
                if binom == 0:
                    continue
                raw = pn_from_counts(table, n, m, variant)
                polys.add(Poly([c / binom for c in raw.coeffs]))
        assert len(polys) == 1


def test_pn_consistent_small(tables):
    assert pn_consistent(1, tables[1]) == Poly([1])
    assert pn_consistent(2, tables[2]) == P1
    assert pn_consistent(3, tables[3]) == P2


def test_pn_consistent_frozen_n5():
    poly = pn_consistent(5)
    assert poly == P4
    assert symmetry_check(poly, 5)
    assert positivity_report(poly) == []


def test_route_equivalence(tables):
    for n in (1, 2, 3):
        assert pn_consistent(n, tables[n]) == pn_via_T(n)


def test_determinant_route_frozen_n4():
    assert pn_via_T(4) == P3


def test_mismatched_table_rejected(tables):
    with pytest.raises(ValueError):
        pn_from_counts(tables[1], 2, 0, VARIANT_B)


def test_corrupt_counts_detected():
    # Perturbing one count must break polynomial reduction or agreement.
    table = count_table(2)
    key = next(iter(table.counts))
    bad = dict(table.counts)
    bad[key] += 1
    with pytest.raises(ConsistencyError):
        pn_consistent(2, CountTable(2, bad))


def test_non_polynomial_sum_rejected():
    # Under variant B the single cell (m=0, l=2, k1=1) has exponent -4, so the
    # sum is (z+1)^10 / (z(z-1))^4, which no exact division can clear.
    table = CountTable(2, {(0, 2, 0, 1, 0): 1})
    with pytest.raises(ConsistencyError, match="does not reduce"):
        pn_from_counts(table, 2, 0, VARIANT_B)


def test_symmetry_check_examples():
    assert symmetry_check(Poly([1]), 1)
    assert not symmetry_check(Poly([0, 1]), 2)
    assert symmetry_check(P1, 2)
    assert symmetry_check(P2, 3)


def test_symmetry_fixed_point_value():
    # The identity forces p(1) = 2^degree.
    for n, poly in ((2, P1), (3, P2)):
        assert poly(Fraction(1)) == 2 ** (n * (n - 1))


def test_positivity_report_examples():
    assert positivity_report(Poly([1])) == []
    assert positivity_report(Poly([1, -1])) == [(1, Fraction(-1))]
    assert positivity_report(P1) == []
    assert positivity_report(P2) == []


def test_integer_coefficients(tables):
    for n in (2, 3):
        for c in pn_consistent(n, tables[n]).coeffs:
            assert c.denominator == 1
