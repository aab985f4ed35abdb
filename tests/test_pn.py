import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from math import factorial, prod
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ice_colors
from ice_colors.exact import Poly, SingularInputError
from ice_colors.lattice import CountTable, color_marginals, count_table
from ice_colors.pn import (ConsistencyError, VARIANT_A, VARIANT_B, VARIANT_C,
                           VARIANTS, _assemble, _raw_sum, pn_consistent,
                           positivity_report, symmetry_check)
from ice_colors.tpoly import pn_via_T
from oracles import assemble_by_poly_powers, poly_add, poly_mul, symmetry_image

# p_n, frozen after exact agreement of the count route and the determinant
# route (p_7, p_8 and p_9 each from one `ice-colors pn --n N` run, which
# exits 0 only then).
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
P8 = Poly([1, 7, 77, 425, 2786, 12938, 64838, 263270, 1105926, 4025022,
          14840322, 49230594, 163589734, 500269462, 1522450666, 4321576666,
          12154703176, 32133108370, 83893884646, 206776472782, 501996269632,
          1153366486888, 2604686117512, 5574387347032, 11706518548120,
          23309461360480, 45478616314160, 84109857696800, 152233664575940,
          260929911937220, 437187923256924, 692548987532892, 1071309453595701,
          1563103390330815, 2225000474933973, 2977649805458097,
          3884282625470698, 4743206334505474, 5641599982631822,
          6245567158067886, 6730822441330482, 6700155306864954,
          6491185725721686, 5748526886701830, 4956306303553878,
          3849397696704678, 2914870883894970, 1946046474680778,
          1271238347897226, 707978043911376, 388908808783344, 171962543215152,
          76406346121716, 24394287617676, 8205771212580, 1464356873748,
          323674802088])
P9 = Poly([1, 8, 100, 630, 4690, 24836, 141288, 653830, 3117620, 12932280,
          54149340, 204924090, 774367230, 2707645500, 9397118520, 30639350538,
          98816544874, 302405659640, 913430466620, 2635032586550,
          7490924931070, 20422096205940, 54794163486400, 141352045334630,
          358459688517840, 875396042818024, 2099426728756532, 4853358181856310,
          11008526620814010, 24081928934036100, 51647623917548472,
          106847590285815246, 216546644429996580, 423295789449050280,
          810020831020781660, 1494468587930403574, 2697299487675329382,
          4690623634859012100, 7973978169769946880, 13049274512533558110,
          20860579199561887352, 32064175669044359176, 48108089748986508900,
          69298025145445421270, 97362201503628440290, 131086427050913447204,
          172004305055098545512, 215785444246873181590, 263603543766010132230,
          307007814453133288040, 347866134565827606820, 374464173384523319370,
          391817035637152787970, 387758175950380819500, 372674104476547526240,
          336846144093794309002, 295441356045664783616, 241887733189846873560,
          192053075226543631500, 140923527375138733050, 100257467702071951782,
          65003445393051054876, 40889112171397833000, 22965472560990829010,
          12544735008628528875, 5925544425896447088, 2739788086840806624,
          1036732887216612180, 390252925890180360, 107710148688780120,
          30890018405665656, 4837879668487788, 919856004546820])
FROZEN = (P1, P2, P3, P4, P5, P6, P7, P8, P9)


@pytest.fixture(scope="module")
def tables():
    return {n: count_table(n) for n in (1, 2, 3)}


def raw_poly(table, n, m, variant):
    """The raw variant sum of a joint table, read at the variant's color."""
    return Poly(_raw_sum(table.counts, n, m, variant, 2 + variant.color))


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
    assert raw_poly(table, 1, 1, VARIANT_A) == Poly([1])
    assert raw_poly(table, 1, 0, VARIANT_A) == Poly()
    assert raw_poly(table, 1, 0, VARIANT_C) == Poly([1])
    assert raw_poly(table, 1, 0, VARIANT_B) == Poly([1])
    assert raw_poly(table, 1, 1, VARIANT_B) == Poly([1])


def test_zero_binomial_sums_vanish(tables):
    for n, table in tables.items():
        assert raw_poly(table, n, 0, VARIANT_A) == Poly()
        assert raw_poly(table, n, n, VARIANT_C) == Poly()


def test_marginal_sums_equal_joint_table_sums():
    # A variant's sum over its color's marginal (census at key[2]) is the
    # same integer list as over the joint table (census at key[2 + color]).
    for n in range(1, 6):
        table, marginals = count_table(n), color_marginals(n)
        for variant in VARIANTS:
            for m in range(n + 1):
                joint = _raw_sum(table.counts, n, m, variant, 2 + variant.color)
                assert _raw_sum(marginals[variant.color], n, m, variant, 2) == joint


def test_variant_m_independence(tables):
    for n, table in tables.items():
        polys = set()
        for variant in VARIANTS:
            for m in range(n + 1):
                binom = variant.binomial(n, m)
                if binom == 0:
                    continue
                raw = raw_poly(table, n, m, variant)
                polys.add(Poly([c / binom for c in raw.coeffs]))
        assert len(polys) == 1


def test_pn_consistent_small(tables):
    assert pn_consistent(1, tables[1]) == P1
    assert pn_consistent(2, tables[2]) == P2
    assert pn_consistent(3, tables[3]) == P3
    for n in (1, 2, 3, 4):
        assert pn_consistent(n) == FROZEN[n - 1]


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


# sha256 of the space-joined integer coefficients of pn_via_T(n), as
# computed by an all-Fraction evaluation of the same confluent formula.  For
# p_10 and above this is the determinant route only: the count route does
# not confirm them yet.  p_8 and p_9 are frozen above as well.
DETERMINANT_ROUTE_ONLY_SHA256 = {
    8: "ffc710d3b9f088bdf808481247d5f9bd413e9993ba118fe6c5d686016aba5c48",
    9: "51ac6f1ec2ebcfa1291a0cc7f70101581205f1b2fd4da23c302cd2535117a831",
    10: "7a831a61e441c95a5d7f7bddc04d542199a80ebd1ac392c23fb0d15d08bbf39c",
    11: "2a2093fe217cf8f9f161dac8f1e43c7d2a42cb49a4f5a9f16003ed60211ff44c",
    12: "194b32cab9f585402b43b6d3e34a2a8e17e31603e50def17092f08b42a6de677",
}


def test_determinant_route_only_n8_to_n12():
    for n, digest in DETERMINANT_ROUTE_ONLY_SHA256.items():
        poly = pn_via_T(n)
        assert poly.degree == n * (n - 1)
        assert all(c.denominator == 1 for c in poly.coeffs)
        text = " ".join(str(c.numerator) for c in poly.coeffs)
        assert sha256(text.encode()).hexdigest() == digest, n
    assert pn_via_T(8).coeffs[-1] == 323674802088


def test_pn_consistent_frozen_n6():
    assert pn_consistent(6) == P6


def test_determinant_route_frozen_n8_n9():
    # Frozen from `pn --n 8` and `pn --n 9`, where the count route agreed.
    assert pn_via_T(8) == P8
    assert pn_via_T(9) == P9
    assert P8.coeffs[-1] == 323674802088
    assert P8(Fraction(-1)) == 2 ** 49


def test_conjectured_patterns_on_frozen_polynomials():
    """Conjectures, not proven identities: patterns that hold for every p_n
    computed so far (the frozen p_1..p_9), kept as regressions.

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
    with pytest.raises(ValueError, match="count table does not match n"):
        pn_consistent(2, tables[1])
    with pytest.raises(ValueError, match="m out of range"):
        _raw_sum(tables[1].counts, 1, 2, VARIANT_B, 3)


def test_corrupt_counts_detected():
    # Perturbing one count must break polynomial reduction or agreement.
    table = count_table(2)
    key = next(iter(table.counts))
    bad = dict(table.counts)
    bad[key] += 1
    with pytest.raises(ConsistencyError):
        pn_consistent(2, CountTable(2, bad))


# The first failure when one cell of count_table(2) gains a state: sums
# compared in integers still name the reference, the divergent sum and each
# differing coefficient of the divided polynomials, as in Fraction.
BUMPED_CELL_ERRORS = {
    (0, 4, 5, 6, 4): "A:m=0: zero binomial but nonzero sum ['0', '1', '-1']",
    (1, 4, 5, 5, 5): "A:m=1 and A:m=2 disagree at z^1: 2 vs 1; z^2: 1 vs 2",
    (0, 3, 6, 6, 3): "A:m=1 and B:m=0 disagree at z^1: 1 vs 0; z^2: 2 vs 3",
    (1, 3, 6, 5, 4): "A:m=1 and B:m=1 disagree at z^1: 1 vs 1/2; z^2: 2 vs 5/2",
    (2, 3, 6, 4, 5): "C:m=2: zero binomial but nonzero sum ['1', '2', '1']",
    (0, 2, 6, 5, 4): "A:m=0: zero binomial but nonzero sum ['0', '-1', '1']",
    (1, 2, 6, 4, 5): "A:m=1 and A:m=2 disagree at z^1: 0 vs 1; z^2: 3 vs 2",
    (1, 1, 5, 5, 5): "A:m=1 and A:m=2 disagree at z^0: 2 vs 1; z^1: 3 vs 1; z^2: 3 vs 2",
    (2, 2, 6, 3, 6): "A:m=1 and A:m=2 disagree at z^1: 1 vs 0; z^2: 2 vs 3",
    (2, 1, 5, 4, 6): "C:m=2: zero binomial but nonzero sum ['-1', '-2', '-1']",
}


@pytest.mark.parametrize("key", BUMPED_CELL_ERRORS)
def test_bumped_cell_error_is_pinned(key):
    counts = dict(count_table(2).counts)
    counts[key] += 1
    with pytest.raises(ConsistencyError) as info:
        pn_consistent(2, CountTable(2, counts))
    assert str(info.value) == BUMPED_CELL_ERRORS[key]


def test_first_consistency_error_follows_variant_then_m():
    # Bad cells under two values of m.  Too many color-1 faces at m=1 break
    # only variant B's sum; color-0 counts out of range at m=2 break only
    # variant A's, the larger one inserted first.  Sums run variant by
    # variant, m inside, cells in insertion order, so A at m=2 fails first
    # and names the first bad exponent it meets.
    bad = dict(count_table(3).counts)
    bad[(1, 4, 11, 40, 7)] = 1
    bad[(2, 5, 40, 10, 8)] = 1
    bad[(2, 5, 0, 10, 8)] = 1
    with pytest.raises(ConsistencyError) as info:
        pn_consistent(3, CountTable(3, bad))
    assert str(info.value) == "variant A, m=2: sum does not reduce to a polynomial"
    assert str(info.value.__cause__) == "exponent 32 outside [0, 6/2] has a nonzero count"
    with pytest.raises(ConsistencyError, match="variant B, m=1: sum does not reduce"):
        raw_poly(CountTable(3, bad), 3, 1, VARIANT_B)


def test_non_polynomial_sum_rejected():
    # Under variant B the single cell (m=0, l=2, k1=1) has exponent -4, so the
    # sum is (z+1)^10 / (z(z-1))^4, which no exact division can clear.
    table = CountTable(2, {(0, 2, 0, 1, 0): 1})
    with pytest.raises(ConsistencyError, match="does not reduce"):
        raw_poly(table, 2, 0, VARIANT_B)


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


def per_cell_sum(table, n, m, variant):
    """_raw_sum cell by cell: try both row offsets, test the row's
    residue mod 3 and the exponent's integrality on every nonzero cell, and
    assemble by the oracle's polynomial powers."""
    sums = {}
    for (cell_m, row, *ks), cnt in table.counts.items():
        if cell_m != m or not cnt:
            continue
        for off in variant.row_offsets():
            l = row - off
            if (l - n) % 3:
                continue
            k = ks[variant.color]
            e_num = variant.exponent_numerator(n, m, l, k)
            if e_num % 3:
                raise ConsistencyError(
                    f"variant {variant.tag}, m={m}, l={l}, k={k}: "
                    f"non-integer exponent {e_num}/3 on a nonzero term")
            sums[e_num // 3] = sums.get(e_num // 3, 0) + (-cnt if (n + l) % 2 else cnt)
    try:
        return assemble_by_poly_powers(sums, n)
    except SingularInputError:
        raise ConsistencyError(
            f"variant {variant.tag}, m={m}: sum does not reduce to a polynomial")


@cache
def cached_table(n):
    return count_table(n)


@st.composite
def perturbed_tables(draw):
    """count_table(2..4) with zeroed counts and extra cells spliced in at
    random places: any row, colors out of range, and a color shifted by a
    third, which makes a non-integer exponent."""
    n = draw(st.integers(2, 4))
    items = list(cached_table(n).counts.items())
    for i in draw(st.lists(st.integers(0, len(items) - 1), max_size=4)):
        items[i] = (items[i][0], 0)
    for _ in range(draw(st.integers(0, 4))):
        k = [draw(st.integers(-3, n * n + 3)) for _ in range(3)]
        if draw(st.booleans()):
            k[draw(st.integers(0, 2))] += draw(st.sampled_from([Fraction(1, 3), Fraction(2, 3)]))
        key = (draw(st.integers(0, n)), draw(st.integers(-1, 2 * n + 2)), *k)
        items.insert(draw(st.integers(0, len(items))), (key, draw(st.integers(-3, 3))))
    return n, CountTable(n, dict(items))


@settings(max_examples=60, deadline=None)
@given(perturbed_tables())
def test_raw_sum_matches_per_cell_reference(case):
    n, table = case
    for variant in VARIANTS:
        for m in range(n + 1):
            try:
                expected = per_cell_sum(table, n, m, variant)
            except ConsistencyError as err:
                with pytest.raises(ConsistencyError) as info:
                    raw_poly(table, n, m, variant)
                assert str(info.value) == str(err)
            else:
                assert raw_poly(table, n, m, variant) == expected


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
        assert Poly(_assemble(sums, n)) == expected


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


def test_symmetry_check_holds_on_determinant_route_n6_to_n10():
    for n in range(6, 11):
        assert symmetry_check(pn_via_T(n), n), n


@pytest.mark.parametrize("n", [6, 8])
def test_symmetry_check_rejects_unit_changes(n):
    poly = pn_via_T(n)
    top = n * (n - 1)
    for i in (0, top // 2, top):
        for delta in (1, -1):
            coeffs = list(poly.coeffs)
            coeffs[i] += delta
            assert not symmetry_check(Poly(coeffs), n), (i, delta)


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
    # The exact routes need neither the theta layer, nor the verify suites,
    # nor the per-state code: the count route builds no state.
    src = str(Path(ice_colors.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ice_colors.pn; "
            "print(sorted(m for m in ('ice_colors.theta', 'ice_colors.verify', "
            "'ice_colors.states') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
