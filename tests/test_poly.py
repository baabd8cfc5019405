"""Exact-arithmetic properties of the rational polynomial layer."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxeig.goldens import cell_matches
from boxeig.model import PotentialSpec
from boxeig.oracle import exact_linear
from boxeig.poly import RationalPoly, _horner, _horner_dyadic, as_rational, format_rational
from boxeig.rootfind import isolate_real_roots, refine_enclosure
from boxeig.series import build_series, solve_a1

from references import integrate_01, poly_divmod, primitive_part

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
    one = RationalPoly.constant(1)
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
# the integer storage against plain Fraction-list arithmetic

coeff_lists = st.lists(rationals, min_size=0, max_size=8)


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def list_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=80, derandomize=True)
@given(coeff_lists, coeff_lists, rationals, rationals)
def test_operations_match_fraction_list_arithmetic(a, b, s, x):
    p, q = RationalPoly.from_coeffs(a), RationalPoly.from_coeffs(b)
    assert p.coeffs == trimmed(a)
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    assert (p + q).coeffs == trimmed(u + w for u, w in zip_longest(a, b, fillvalue=0))
    assert (p - q).coeffs == trimmed(u - w for u, w in zip_longest(a, b, fillvalue=0))
    assert (p * q).coeffs == trimmed(list_mul(a, b))
    assert (p * s).coeffs == trimmed(s * c for c in a)
    assert p.differentiate().coeffs == trimmed(k * c for k, c in enumerate(a) if k)
    assert p.eval(x) == sum((c * x**k for k, c in enumerate(a)), Fraction(0))


@settings(max_examples=80, derandomize=True)
@given(coeff_lists, coeff_lists, rationals.filter(bool))
def test_storage_is_canonical_and_equal_polys_hash_equal(a, b, s):
    p, q = RationalPoly.from_coeffs(a), RationalPoly.from_coeffs(b)
    for r in (p, q, -p, p + q, p - q, p * q, p * s, p.differentiate(), primitive_part(p)):
        assert isinstance(r.scale, Fraction) and r.scale > 0
        if r.is_zero:
            assert r.ints == () and r.scale == 1
        else:
            assert r.ints[-1] != 0 and gcd(*r.ints) == 1
        assert r.coeffs == tuple(r.scale * c for c in r.ints)
    routes = [
        p * q,
        q * p,
        RationalPoly.from_coeffs(list_mul(a, b)),
        (p * s) * (q * (1 / s)),
        (p + q) * q - q * q,
        RationalPoly.from_coeffs(list_mul(a, b) + [0, 0]).with_var("eps").with_var("q"),
    ]
    assert all(r == routes[0] for r in routes)
    assert len({hash(r) for r in routes}) == 1
    assert p + q - q == p and (p * s) * (1 / s) == p
    assert hash(p + q - q) == hash(p)


# ---------------------------------------------------------------------------
# calculus


@settings(max_examples=60, derandomize=True)
@given(polys)
def test_integral_of_derivative_is_boundary_difference(p):
    assert integrate_01(p.differentiate()) == p.eval(Fraction(1)) - p.eval(Fraction(0))


def test_integrate_01_closed_form():
    # integral of q^k over [0,1] is 1/(k+1)
    for k in range(8):
        assert integrate_01(RationalPoly.monomial(k)) == Fraction(1, k + 1)


# ---------------------------------------------------------------------------
# evaluation


@settings(max_examples=60, derandomize=True)
@given(polys, rationals)
def test_eval_exact_on_rationals(p, x):
    expected = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert p.eval(x) == expected
    assert p(x) == expected


def test_dyadic_kernel_matches_integer_horner():
    # 2^(k deg) a(m/2^k) by shifts equals the general kernel at n/d = m/2^k,
    # bit for bit, on seeded integer lists of degree 0..34
    rng = random.Random(20261019)
    cases = [((), 5, 3), ((7,), -3, 40), ((-7,), 0, 0), ((0, 0, 1), 0, 9), ((1, -2, 1), 1, 0)]
    for _ in range(300):
        a = [rng.randint(-(10**30), 10**30) for _ in range(rng.randint(1, 35))]
        a[-1] = a[-1] or 1
        k = rng.choice((0, 1, 52, 118, rng.randint(2, 200)))
        m = rng.choice((0, 1, -1, rng.randint(-(1 << (k + 8)), 1 << (k + 8))))
        cases.append((tuple(a), m, k))
    for a, m, k in cases:
        assert _horner_dyadic(a, m, k) == _horner(a, m, 1 << k), (a, m, k)
    assert sum(m < 0 for _, m, _ in cases) > 50 and sum(m > 0 for _, m, _ in cases) > 50


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
            poly_divmod(a, b)
        return
    q, r = poly_divmod(a, b)
    assert a == q * b + r
    assert r.is_zero or r.degree < b.degree


@settings(max_examples=40, derandomize=True)
@given(polys)
def test_primitive_part_properties(p):
    prim = primitive_part(p)
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
    assert prim.coeffs[-1] * p.coeffs[-1] > 0


# ---------------------------------------------------------------------------
# formatting


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert as_rational("5/3") == Fraction(5, 3)


def test_a_float_is_refused():
    # every exact entry point takes ints, Fractions and rational strings, and
    # refuses a float rather than read its binary value
    assert as_rational("0.1") == Fraction(1, 10)
    assert as_rational(3) == Fraction(3)
    p = RationalPoly.from_coeffs([-2, 0, 1])
    series = build_series(PotentialSpec.linear(0), 4)
    refused = [
        lambda: as_rational(0.1),
        lambda: as_rational(None),
        lambda: p.eval(1.5),
        lambda: isolate_real_roots(p, (0.0, 2)),
        lambda: isolate_real_roots(p, (0, 2.0)),
        lambda: refine_enclosure(p, (1.0, 2), Fraction(1, 10)),
        lambda: refine_enclosure(p, (1, 2.0), Fraction(1, 10)),
        lambda: refine_enclosure(p, (1, 2), 0.1),
        lambda: solve_a1(series, (0.0, 20.0)),
        lambda: exact_linear(1.0),
        lambda: cell_matches("6.0", 6.0),
    ]
    for call in refused:
        with pytest.raises(TypeError):
            call()
    # the same calls on exact rationals go through
    assert p.eval(Fraction(3, 2)) == Fraction(1, 4)
    assert isolate_real_roots(p, (0, 2))[1] == ((0, 2),)
    lo, hi = refine_enclosure(p, (1, 2), Fraction(1, 10))
    assert lo < hi and lo * lo < 2 < hi * hi
    assert solve_a1(series, (0, 20)).eps == 6
    assert cell_matches("6.0", Fraction(6))


def test_str_smoke():
    p = RationalPoly.from_coeffs([1, 0, Fraction(-1, 6)], var="eps")
    text = str(p)
    assert "eps" in text and "1/6" in text
    assert str(RationalPoly.zero()) == "0"
