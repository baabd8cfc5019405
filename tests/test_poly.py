"""Exact-arithmetic properties of the rational polynomial layer."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxeig.poly import RationalPoly, as_rational, exact_rational, format_rational

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)

polys = st.builds(
    lambda cs: RationalPoly.from_coeffs(cs),
    st.lists(rationals, min_size=0, max_size=8),
)


# ---------------------------------------------------------------------------
# construction and normalization


def test_zero_and_degree_conventions():
    zero = RationalPoly.zero()
    assert zero.is_zero and zero.degree == -1 and zero.coeffs == ()
    assert RationalPoly.from_coeffs([0, 0, 0]).is_zero
    p = RationalPoly.from_coeffs([1, 0, Fraction(2, 3), 0])
    assert p.degree == 2
    assert p.coeff(1) == 0 and p.coeff(2) == Fraction(2, 3) and p.coeff(99) == 0


def test_monomial_and_constant():
    assert RationalPoly.monomial(3, 5) == RationalPoly.from_coeffs([0, 0, 0, 5])
    assert RationalPoly.constant(Fraction(1, 2)).degree == 0
    assert RationalPoly.one() == RationalPoly.constant(1)
    with pytest.raises(ValueError):
        RationalPoly.monomial(-1)


def test_variable_tags_are_enforced():
    p = RationalPoly.from_coeffs([1, 1], var="q")
    e = RationalPoly.from_coeffs([1, 1], var="eps")
    with pytest.raises(ValueError):
        _ = p + e
    with pytest.raises(ValueError):
        _ = p * e
    assert (p + e.with_var("q")).degree == 1


# ---------------------------------------------------------------------------
# ring axioms (all exact)


@settings(max_examples=60, derandomize=True)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero = RationalPoly.zero()
    one = RationalPoly.one()
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == zero


@settings(max_examples=40, derandomize=True)
@given(polys, rationals)
def test_scalar_operations_match_poly_operations(a, s):
    assert a * s == a * RationalPoly.constant(s)
    assert (a * s) * (1 / s if s else 1) == (a if s else zero_like(a))


def zero_like(a):
    return RationalPoly.zero(a.var)


# ---------------------------------------------------------------------------
# calculus


@settings(max_examples=60, derandomize=True)
@given(polys)
def test_integral_of_derivative_is_boundary_difference(p):
    assert p.differentiate().integrate_01() == p.eval(Fraction(1)) - p.eval(Fraction(0))


def test_integrate_01_closed_form():
    # integral of q^k over [0,1] is 1/(k+1)
    for k in range(8):
        assert RationalPoly.monomial(k).integrate_01() == Fraction(1, k + 1)


# ---------------------------------------------------------------------------
# evaluation


@settings(max_examples=60, derandomize=True)
@given(polys, rationals)
def test_eval_exact_on_rationals(p, x):
    expected = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert p.eval(x) == expected
    assert p(x) == expected


@settings(max_examples=60, derandomize=True)
@given(polys, st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_eval_float_is_correctly_rounded(p, x):
    # float evaluation must equal the float of the exact rational value
    exact = p.eval(Fraction(x))
    assert p.eval(x) == float(exact)


def test_eval_refuses_other_number_types():
    p = RationalPoly.from_coeffs([1, 2, 3])
    for x in (Decimal("0.5"), complex(1, 1), "1/2"):
        with pytest.raises(TypeError):
            p.eval(x)


@settings(max_examples=40, derandomize=True)
@given(polys, rationals, rationals, rationals)
def test_compose_scale_shift(p, a, b, t):
    composed = p.compose_scale_shift(a, b)
    assert composed.eval(t) == p.eval(a * t + b)


def test_compose_scale_shift_var_rename():
    p = RationalPoly.from_coeffs([0, 1], var="x")
    q = p.compose_scale_shift(2, 1, var="q")
    assert q.var == "q" and q.coeffs == (Fraction(1), Fraction(2))


# ---------------------------------------------------------------------------
# division


@settings(max_examples=60, derandomize=True)
@given(polys, polys)
def test_divmod_identity(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert a == q * b + r
    assert r.is_zero or r.degree < b.degree


@settings(max_examples=40, derandomize=True)
@given(polys)
def test_primitive_part_properties(p):
    prim = p.primitive_part()
    if p.is_zero:
        assert prim.is_zero
        return
    from math import gcd

    nums = [c.numerator for c in prim.coeffs]
    dens = {c.denominator for c in prim.coeffs}
    assert dens == {1}, "primitive part has integer coefficients"
    g = 0
    for n in nums:
        g = gcd(g, n)
    assert g == 1, "coefficients are coprime"
    # same sign everywhere: the scale factor is positive
    assert prim.leading * p.leading > 0


# ---------------------------------------------------------------------------
# formatting


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert as_rational("5/3") == Fraction(5, 3)


def test_exact_rational_takes_floats_at_their_binary_value():
    assert exact_rational(0.1) == Fraction(3602879701896397, 36028797018963968)
    assert exact_rational("0.1") == Fraction(1, 10)
    assert exact_rational(3) == Fraction(3)
    with pytest.raises(TypeError):
        as_rational(0.1)
    with pytest.raises(TypeError):
        exact_rational(None)


def test_str_smoke():
    p = RationalPoly.from_coeffs([1, 0, Fraction(-1, 6)], var="eps")
    text = str(p)
    assert "eps" in text and "1/6" in text
