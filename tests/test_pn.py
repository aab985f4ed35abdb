import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ice_colors
from ice_colors.exact import Poly, SingularInputError
from ice_colors.lattice import CountTable, count_table
from ice_colors.pn import (ConsistencyError, VARIANT_A, VARIANT_B, VARIANT_C,
                           VARIANTS, _assemble, pn_consistent, pn_from_counts,
                           positivity_report, symmetry_check)
from ice_colors.tpoly import pn_via_T
from oracles import assemble_by_poly_powers, poly_add, poly_mul, symmetry_image

# p_n, frozen after exact agreement of the count route and the determinant
# route (p_7 from one `ice-colors pn --n 7` run, which exits 0 only then).
P1 = Poly([1])
P2 = Poly([1, 1, 2])
P3 = Poly([1, 2, 7, 10, 21, 12, 11])
P4 = Poly([1, 3, 15, 35, 105, 195, 435, 555, 840, 710, 738, 294, 170])
P5 = Poly([1, 4, 26, 82, 319, 840, 2488, 5572, 13524, 24920, 48776, 72800,
           114716, 135464, 169536, 148972, 141835, 85044, 58406, 17822, 7429])
P6 = Poly([1, 5, 40, 158, 755, 2509, 9164, 26512, 80813, 206893, 546372,
           1234878, 2839459, 5628357, 11256516, 19455888, 33772659, 50465847,
           75566208, 96192378, 122785281, 130593423, 139903044, 120651744,
           105885951, 70248279, 48560820, 22541610, 11520585, 2845215, 920460])
P7 = Poly([1, 6, 57, 270, 1530, 6102, 26442, 92178, 334584, 1043382, 3316104,
           9379026, 26715366, 68906538, 177556374, 417718998, 976072842,
           2090991726, 4430827050, 8623866510, 16553963430, 29181082590,
           50619817350, 80445515850, 125601887340, 178863991830, 249992825580,
           316526736726, 393211322586, 438059545038, 479082119562,
           462927931650, 440019878661, 361454749812, 293425317261,
           198774061884, 134362758240, 71365686228, 38636790480, 14621569740,
           5937661260, 1230641100, 323801820])
FROZEN = (P1, P2, P3, P4, P5, P6, P7)


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
    assert pn_consistent(1, tables[1]) == P1
    assert pn_consistent(2, tables[2]) == P2
    assert pn_consistent(3, tables[3]) == P3


def test_pn_consistent_frozen_n5():
    poly = pn_consistent(5)
    assert poly == P5
    assert symmetry_check(poly, 5)
    assert positivity_report(poly) == []


def test_route_equivalence(tables):
    for n in (1, 2, 3):
        assert pn_consistent(n, tables[n]) == pn_via_T(n)


def test_determinant_route_frozen_n4():
    assert pn_via_T(4) == P4


def test_determinant_route_frozen_n6_n7():
    assert pn_via_T(6) == P6
    assert pn_via_T(7) == P7


def test_pn_consistent_frozen_n6():
    assert pn_consistent(6) == P6


def test_conjectured_patterns_on_frozen_polynomials():
    """Conjectures, not proven identities: patterns that hold for every p_n
    computed so far (the frozen p_1..p_7), kept as regressions.

    * the leading coefficient is prod_{i<n} (3i+1)(6i)!(2i)!/((4i)!(4i+1)!);
    * p_n(-1) = 2^((n-1)^2);
    * [z^1] p_n = n - 1 and [z^2] p_n = (3n^2 - 5n + 2)/2;
    * no coefficient is negative.
    """
    for n, poly in enumerate(FROZEN, 1):
        coeffs = poly.coeffs + (Fraction(0),) * 2
        assert poly.coeffs[-1] == prod(
            Fraction((3 * i + 1) * factorial(6 * i) * factorial(2 * i),
                     factorial(4 * i) * factorial(4 * i + 1)) for i in range(n))
        assert poly(Fraction(-1)) == 2 ** ((n - 1) ** 2)
        assert coeffs[1] == n - 1
        assert coeffs[2] == Fraction(3 * n * n - 5 * n + 2, 2)
        assert min(poly.coeffs) >= 0


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


def test_readme_table_matches_frozen_polynomials():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows: dict[str, list[str]] = {}
    label = None
    for line in readme.split("```")[1].splitlines():
        if line.startswith("n="):
            label, *coeffs = line.split()
            rows[label] = coeffs
        elif line.strip():
            rows[label] += line.split()
    assert list(rows) == [f"n={n}" for n in range(1, len(FROZEN) + 1)]
    for n, poly in enumerate(FROZEN, 1):
        assert [Fraction(c) for c in rows[f"n={n}"]] == list(poly.coeffs)


@st.composite
def exponent_sums(draw):
    n = draw(st.integers(1, 6))
    counts = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
    sums = draw(st.dictionaries(st.integers(-3, n * (n - 1) // 2 + 3), counts,
                                max_size=6))
    return n, sums


@settings(max_examples=300, deadline=None)
@given(exponent_sums())
def test_assemble_matches_poly_power_oracle(case):
    # Out-of-range exponents with zero counts give sums that divide exactly;
    # with nonzero counts, both sides must refuse the division.
    n, sums = case
    try:
        expected = assemble_by_poly_powers(sums, n)
    except SingularInputError:
        with pytest.raises(SingularInputError):
            _assemble(sums, n)
    else:
        assert _assemble(sums, n) == expected


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
             max_size=n * (n - 1) + 1).map(Poly))))
def test_symmetry_check_matches_composition_oracle(case):
    # p + image(p) is symmetric, since the image map is an involution.
    n, p = case
    assert symmetry_check(p, n) == (p == symmetry_image(p, n))
    assert symmetry_check(Poly(poly_add(p.coeffs, symmetry_image(p, n).coeffs)), n)


def test_symmetry_check_rejects_perturbed_p5():
    for i in range(len(P5.coeffs)):
        coeffs = list(P5.coeffs)
        coeffs[i] += 1
        bad = Poly(coeffs)
        assert bad != symmetry_image(bad, 5)
        assert not symmetry_check(bad, 5)
    assert symmetry_check(Poly(poly_mul(P5.coeffs, [Fraction(3, 7)])), 5)


def test_symmetry_check_examples():
    assert symmetry_check(Poly([1]), 1)
    assert not symmetry_check(Poly([0, 1]), 2)
    assert symmetry_check(P2, 2)
    assert symmetry_check(P3, 3)


def test_symmetry_fixed_point_value():
    # The identity forces p(1) = 2^degree.
    for n, poly in ((2, P2), (3, P3)):
        assert poly(Fraction(1)) == 2 ** (n * (n - 1))


def test_positivity_report_examples():
    assert positivity_report(Poly([1])) == []
    assert positivity_report(Poly([1, -1])) == [(1, Fraction(-1))]
    assert positivity_report(P2) == []
    assert positivity_report(P3) == []


def test_integer_coefficients(tables):
    for n in (2, 3):
        for c in pn_consistent(n, tables[n]).coeffs:
            assert c.denominator == 1


def test_import_pn_leaves_numeric_layers_unloaded():
    # The exact routes need neither the theta layer nor the verify suites.
    src = str(Path(ice_colors.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ice_colors.pn; "
            "print(sorted(m for m in ('ice_colors.theta', 'ice_colors.verify') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
