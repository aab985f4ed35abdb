from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ice_colors.exact import (Poly, SingularInputError, det_exact,
                              format_fraction, interpolate)

from oracles import (cofactor_det, newton_interpolate, poly_add, poly_divmod,
                     poly_exact_div, poly_mul, poly_pow)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
small_polys = st.lists(fractions, max_size=5)


def test_det_identity():
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    assert det_exact(eye) == 1


def test_det_2x2():
    assert det_exact([[1, 2], [3, 4]]) == -2


def test_det_rejects_non_integer_entries():
    # Integer Bareiss would floor a rational entry in its exact divisions.
    hilbert = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    with pytest.raises(TypeError):
        det_exact(hilbert)
    with pytest.raises(TypeError):
        det_exact([[1, 2], [3, Fraction(4)]])


def test_det_empty_and_singular():
    assert det_exact([]) == 1
    assert det_exact([[1, 2], [2, 4]]) == 0


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-12, 12), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_det_matches_cofactor_expansion(rows):
    assert det_exact(rows) == cofactor_det(rows)


def test_interpolate_constant():
    assert interpolate([(0, 1), (1, 1)]) == Poly([1])


def test_interpolate_square():
    assert interpolate([(0, 0), (1, 1), (2, 4)]) == Poly([0, 0, 1])


def test_interpolate_duplicate_abscissa():
    with pytest.raises(SingularInputError):
        interpolate([(1, 2), (1, 3)])


@settings(max_examples=40)
@given(st.lists(fractions, min_size=1, max_size=6))
def test_interpolate_round_trip(coeffs):
    poly = Poly(coeffs)
    xs = [Fraction(k) for k in range(len(coeffs) + 1)]
    assert interpolate([(x, poly(x)) for x in xs]) == poly


@settings(max_examples=150)
@given(st.integers(-30, 30),
       st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
                min_size=1, max_size=9))
def test_interpolate_matches_newton_oracle(start, values):
    # Rational values at k consecutive integers from any start, negative too.
    points = [(start + i, y) for i, y in enumerate(values)]
    assert interpolate(points) == Poly(newton_interpolate(points))


@pytest.mark.parametrize("points", [
    [(0, 1), (2, 3)],                          # a gap
    [(0, 0), (1, 1), (3, 9)],                  # a gap after a step
    [(1, 1), (0, 2)],                          # decreasing
    [(Fraction(1, 2), 1), (Fraction(3, 2), 2)],  # unit steps off the integers
])
def test_interpolate_rejects_other_spacing(points):
    with pytest.raises(ValueError) as info:
        interpolate(points)
    assert type(info.value) is ValueError  # not the duplicate's SingularInputError


# The test oracles' coefficient-list arithmetic, which the reference count
# sums and symmetry image are built on; Poly(...) strips trailing zeros.
@settings(max_examples=334)  # three draws each: about 10^3 random values
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert Poly(poly_add(a, b)) == Poly(poly_add(b, a))
    assert Poly(poly_mul(a, b)) == Poly(poly_mul(b, a))
    assert Poly(poly_add(poly_add(a, b), c)) == Poly(poly_add(a, poly_add(b, c)))
    assert (Poly(poly_mul(a, poly_add(b, c)))
            == Poly(poly_add(poly_mul(a, b), poly_mul(a, c))))


@settings(max_examples=40)
@given(small_polys, small_polys)
def test_poly_divmod(a, b):
    if Poly(b) == Poly():
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, b)
    else:
        q, r = poly_divmod(a, b)
        assert Poly(poly_add(poly_mul(q, b), r)) == Poly(a)
        assert Poly(r).degree < Poly(b).degree
        assert Poly(poly_exact_div(poly_mul(a, b), b)) == Poly(a)
        if Poly(r) != Poly():
            with pytest.raises(SingularInputError):
                poly_exact_div(a, b)


def test_poly_degree_and_zero():
    assert Poly().degree == -1
    assert Poly([0, 0]) == Poly()
    assert Poly([3, 0, 1, 0]).degree == 2


def test_poly_pow_and_eval():
    p = Poly(poly_pow([1, 1], 3))
    assert p == Poly([1, 3, 3, 1])
    assert Poly(poly_pow([0, -1, 1], 0)) == Poly([1])
    assert p(Fraction(1, 2)) == Fraction(27, 8)


def test_poly_is_a_value_type():
    for name in ("__bool__", "__add__", "__radd__", "__neg__", "__sub__",
                 "__rsub__", "__mul__", "__rmul__", "__pow__", "__divmod__",
                 "exact_div"):
        assert not hasattr(Poly, name), name


def test_fraction_formatting():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"
