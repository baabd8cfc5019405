"""Certified real-root isolation and refinement."""

import ast
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxeig import rootfind
from boxeig.model import PotentialSpec
from boxeig.oracle import mpf_to_rational
from boxeig.poly import RationalPoly
from boxeig.estimates import DEFAULT_SELECTION, RootSelection, default_bracket, select_root
from boxeig.rayleigh_ritz import solve_secular
from boxeig.rootfind import isolate_real_roots, refine_enclosure, square_free_part, sturm_sequence
from boxeig.series import build_series, solve_a1
from boxeig.variational import solve_a2, solve_a3

from references import count_real_roots, poly_divmod, primitive_part, sign_variations
from test_rayleigh_ritz import secular_at
from test_variational import quotient_at


def poly_from_roots(roots, var="q"):
    p = RationalPoly.constant(1, var)
    for r in roots:
        p = p * RationalPoly.from_coeffs([-Fraction(r), 1], var)
    return p


def certified_midpoint(p, interval, tol=Fraction(1, 10**13)):
    """Float midpoint of the root's certified enclosure of width 2*tol."""
    a, b = refine_enclosure(p, interval, 2 * tol)
    return float((a + b) / 2)


# ---------------------------------------------------------------------------
# Sturm counting


def test_sturm_sequence_known_cubic():
    # (x-1)(x-2)(x-3): three roots in (0, 4], none in (3, 4]
    p = poly_from_roots([1, 2, 3])
    chain = sturm_sequence(p)
    assert sign_variations(chain, Fraction(0)) - sign_variations(chain, Fraction(4)) == 3
    assert count_real_roots(p, Fraction(0), Fraction(4)) == 3
    assert count_real_roots(p, Fraction(3), Fraction(4)) == 0
    # half-open convention (lo, hi]: root at the right endpoint counts
    assert count_real_roots(p, Fraction(0), Fraction(3)) == 3
    assert count_real_roots(p, Fraction(1), Fraction(3)) == 2


def test_sturm_counts_distinct_roots_of_multiple_root_poly():
    p = poly_from_roots([1, 1, 2])  # double root at 1
    assert count_real_roots(p, Fraction(0), Fraction(3)) == 2


def test_sturm_counts_at_a_multiple_root():
    # every member of the plain Sturm chain vanishes at the double root 1
    p = poly_from_roots([1, 1, 2])
    assert count_real_roots(p, Fraction(1), Fraction(3)) == 1
    assert count_real_roots(p, Fraction(0), Fraction(1)) == 1
    assert count_real_roots(p, Fraction(1, 2), Fraction(2)) == 2


def fraction_sturm_chain(p):
    """Reference chain in rational arithmetic: divide, negate, make primitive."""
    chain = [primitive_part(p)]
    d = p.differentiate()
    if d.is_zero:
        return chain
    chain.append(primitive_part(d))
    while True:
        _, r = poly_divmod(chain[-2], chain[-1])
        if r.is_zero:
            return chain
        chain.append(primitive_part(-r))


def seeded_polynomials():
    """400 seeded sparse rational polynomials of degree 0..10, leading sign +/-."""
    rng = random.Random(20261018)
    for _ in range(400):
        degree = rng.randint(0, 10)
        # sparse coefficients make remainders drop more than one degree
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 8)) if rng.random() < 0.6 else 0
            for _ in range(degree)
        ]
        coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 8)))
        yield RationalPoly.from_coeffs(coeffs)


def test_sturm_sequence_matches_fraction_reference_chain():
    sign_matters = 0  # steps with lc(b) < 0 and an even degree gap deg a - deg b
    for p in seeded_polynomials():
        expected = fraction_sturm_chain(p)
        assert sturm_sequence(p) == [[int(c) for c in q.coeffs] for q in expected], p
        sign_matters += sum(
            1
            for a, b in zip(expected[1:], expected[2:])
            if b.coeffs[-1] < 0 and (a.degree - b.degree) % 2 == 0
        )
    assert sign_matters >= 10


def test_sign_at_matches_rational_evaluation():
    rng = random.Random(20261019)
    for p in seeded_polynomials():
        a = p.ints
        points = [Fraction(0)] + [
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(6)
        ]
        for x in points:
            value = p.eval(x)
            assert rootfind._sign_at(a, x) == (value > 0) - (value < 0), (p, x)
        # an exact root, planted as a linear factor
        r = points[-1]
        assert rootfind._sign_at((p * RationalPoly.from_coeffs([-r, 1])).ints, r) == 0


def grid_scan_count(int_coeffs, lo_num, hi_num, denom, grid_points):
    """Exact root count of an integer polynomial on (lo, hi] by grid scan.

    Counts sign changes between consecutive nonzero exact evaluations, plus
    exact zeros landing on grid nodes (each root counted once: a node zero
    suppresses the flanking sign change it causes).  Node coordinates are
    k/denom; the evaluation uses integer Horner on the scaled form
    p(k/m) * m^deg, which has the sign of p.
    """
    deg = len(int_coeffs) - 1
    span = hi_num - lo_num

    def sign_at(k_num, m):
        acc = int_coeffs[-1]
        power = 1
        for j in range(deg - 1, -1, -1):
            power *= m
            acc = acc * k_num + int_coeffs[j] * power
        return (acc > 0) - (acc < 0)

    count = 0
    last_sign = sign_at(lo_num, denom)
    skip_next_change = False
    for i in range(1, grid_points + 1):
        # node lo + i*span/grid: rational with denominator denom*grid
        k = lo_num * grid_points + i * span
        s = sign_at(k, denom * grid_points)
        if s == 0:
            count += 1
            skip_next_change = True
            continue
        if last_sign != 0 and s != last_sign:
            if skip_next_change:
                skip_next_change = False
            else:
                count += 1
        elif skip_next_change:
            skip_next_change = False
        last_sign = s
    return count


def test_sturm_matches_grid_scan_on_random_polynomials():
    """Sturm count equals a 10^4-point exact grid scan on 100 seeded polys."""
    rng = random.Random(20260816)
    lo, hi = Fraction(-10), Fraction(10)
    checked = 0
    for _ in range(100):
        degree = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = RationalPoly.from_coeffs(coeffs)
        sturm_count = count_real_roots(p, lo, hi)
        scan = grid_scan_count(coeffs, -10, 10, 1, 10_000)
        assert sturm_count == scan, (coeffs, sturm_count, scan)
        # the isolator must report exactly the Sturm count of intervals
        assert len(isolate_real_roots(p, (lo, hi))[1]) == sturm_count
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# isolation


def test_isolation_separates_close_roots():
    p = poly_from_roots([Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6)])
    _, intervals = isolate_real_roots(p, (Fraction(0), Fraction(1)))
    assert len(intervals) == 2
    (a1, b1), (a2, b2) = intervals
    assert b1 <= a2, "intervals are disjoint and ordered"


def test_isolation_bisects_onto_a_multiple_root():
    # the first bisection point of (-2, 2) is the double root 0
    p = poly_from_roots([0, 0, 1, -1])
    isolated, intervals = isolate_real_roots(p, (Fraction(-2), Fraction(2)))
    assert intervals[1] == (Fraction(0), Fraction(0))
    assert [round(certified_midpoint(isolated, iv), 9) for iv in intervals] == [-1.0, 0.0, 1.0]


def test_isolation_endpoint_root_left():
    # root exactly at the left endpoint of the bracket is still reported
    p = poly_from_roots([0, Fraction(1, 2)])
    _, intervals = isolate_real_roots(p, (Fraction(0), Fraction(1)))
    roots = sorted(float((a + b) / 2) for a, b in intervals)
    assert len(roots) == 2
    assert abs(roots[0] - 0.0) < 1e-9 and abs(roots[1] - 0.5) < 1e-9


def test_root_beside_a_root_on_the_left_endpoint():
    # (0, 1] holds only 1/3, but p(0) = 0: refinement must not return 0
    p = poly_from_roots([0, Fraction(1, 3)])
    _, intervals = isolate_real_roots(p, (Fraction(0), Fraction(1)))
    values = [certified_midpoint(p, iv, Fraction(1, 10**12)) for iv in intervals]
    assert values[0] == 0.0 and abs(values[1] - 1 / 3) < 1e-11
    for a, b in intervals:
        assert a == b or (p.eval(a) != 0 and p.eval(b) != 0)


def test_isolation_endpoint_root_right():
    p = poly_from_roots([1])
    assert len(isolate_real_roots(p, (Fraction(0), Fraction(1)))[1]) == 1


def test_isolation_agrees_with_sturm_counts():
    # every seeded polynomial, and it times (x - r)^2 and times (x - r)^3;
    # r with denominator 1, 2, 4 or 8 lies on the bisection grid of (-20, 20)
    rng = random.Random(20261020)
    lo, hi = Fraction(-20), Fraction(20)
    exact_roots = 0
    for base in seeded_polynomials():
        r = Fraction(rng.randint(-150, 150), rng.choice((1, 2, 3, 4, 7, 8)))
        polys = [base * poly_from_roots([r] * m) for m in (2, 3)]
        if base.degree >= 1:
            polys.append(base)
        for p in polys:
            _, intervals = isolate_real_roots(p, (lo, hi))
            assert len(intervals) == count_real_roots(p, lo, hi) + (p.eval(lo) == 0), p
            ends = [x for iv in intervals for x in iv]
            assert ends == sorted(ends) and all(lo <= x <= hi for x in ends), p
            for a, b in intervals:
                if a == b:
                    assert p.eval(a) == 0, (p, a)
                    exact_roots += 1
                else:
                    assert p.eval(a) != 0 and p.eval(b) != 0, (p, a, b)
                    assert count_real_roots(p, a, b) == 1, (p, a, b)
    assert exact_roots > 100


@pytest.mark.parametrize(
    "roots, chains",
    [([1, 1, 2], 1), ([1, 2, Fraction(7, 3)], 0)],
    ids=["double-root", "square-free"],
)
def test_isolation_on_a_bracket_wider_than_the_float_range(sturm_calls, roots, chains):
    # separating 1 from 2 in (0, 10^400) takes about 1330 bisections; the
    # double root keeps two sign variations down to the depth limit, and the
    # fallback takes the square-free part from one Sturm chain
    p = poly_from_roots(roots)
    isolated, intervals = isolate_real_roots(p, (0, 10**400))
    assert len(intervals) == len(set(roots))
    assert sturm_calls == {"sturm_sequence": chains}
    # p shows no sign change at the double root; the square-free part that
    # isolation returns does, and refining on it builds no further chain
    for iv, root in zip(intervals, sorted(set(roots))):
        assert abs(certified_midpoint(isolated, iv, Fraction(1, 10**13)) - root) < 1e-12
    assert sturm_calls == {"sturm_sequence": chains}


# ---------------------------------------------------------------------------
# isolation on the dyadic hull, against Sturm counts


def roots_on_closed(p, a, b):
    """Distinct roots of p in [a, b], by Sturm counts."""
    at_a = p.eval(a) == 0
    return at_a + (count_real_roots(p, a, b) if a < b else 0)


def is_dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


@st.composite
def brackets(draw):
    """A bracket: ends with long, short or power-of-two denominators, width 10^-30 to 10^4."""
    kind = draw(st.sampled_from(("pi", "small", "dyadic", "float")))
    if kind == "pi":
        # the ends default_bracket makes: a float pi^2 times a rational
        lo = Fraction(math.pi) ** 2 * Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 9)))
    elif kind == "small":
        lo = Fraction(draw(st.integers(-100, 100)), draw(st.integers(1, 30)))
    elif kind == "dyadic":
        lo = Fraction(draw(st.integers(-2**12, 2**12)), 2 ** draw(st.integers(0, 12)))
    else:
        lo = Fraction(draw(st.floats(-300, 300, allow_nan=False)))
    width = Fraction(draw(st.integers(1, 10**4)), 10 ** draw(st.integers(0, 34)))
    if draw(st.booleans()):
        hi = lo + width
    else:
        # a long-denominator upper end, as default_bracket's (state+2)^2 pi^2 factor
        hi = max(lo + width, Fraction(math.pi) ** 2 * draw(st.integers(1, 40)))
    return lo, hi


@st.composite
def bracketed_polynomials(draw):
    """(p, lo, hi): p has roots at, just beside and between the bracket ends and its hull's."""
    lo, hi = draw(brackets())
    hull_lo, hull_hi = rootfind._dyadic_hull(lo, hi)
    width = hi - lo
    near = [
        lo, hi, hull_lo, hull_hi,
        lo - width / 2 ** 40, lo + width / 10**9, hi - width / 2**33, hi + width / 10**12,
        (hull_lo + lo) / 2, (hi + hull_hi) / 2, lo - width, hi + width,
    ]
    inside = st.integers(1, 999).map(lambda k: lo + width * Fraction(k, 1000))
    roots = draw(st.lists(st.sampled_from(near) | inside, min_size=1, max_size=5))
    p = poly_from_roots(r for r in roots for _ in range(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        # an irreducible quadratic or cubic factor, with roots no grid holds
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=3, max_size=4))
        if coeffs[-1]:
            p = p * RationalPoly.from_coeffs(coeffs)
    return p, lo, hi


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bracketed_polynomials())
def test_isolation_on_the_hull_agrees_with_sturm_counts(case):
    p, lo, hi = case
    isolated, intervals = isolate_real_roots(p, (lo, hi))
    assert len(intervals) == roots_on_closed(p, lo, hi)
    ends = [x for iv in intervals for x in iv]
    assert ends == sorted(ends) and all(lo <= x <= hi for x in ends)
    for a, b in intervals:
        # only a cut at the bracket leaves an end off the dyadic grid
        assert all(is_dyadic(x) or x in (lo, hi) for x in (a, b))
        if a == b:
            assert p.eval(a) == 0
        else:
            assert isolated.eval(a) * isolated.eval(b) < 0
            assert count_real_roots(p, a, b) == 1 and p.eval(a) != 0
    # asking for the first k roots gives the first k of the full isolation:
    # the same intervals on the same polynomial, else the same roots
    for k in range(1, len(intervals) + 2):
        first, found = isolate_real_roots(p, (lo, hi), limit=k)
        assert len(found) == min(k, len(intervals))
        if first == isolated:
            assert found == intervals[:k]
        for (a, b), (c, d) in zip(found, intervals):
            assert roots_on_closed(p, min(a, c), max(b, d)) == 1


def fraction_hull(lo, hi):
    """The dyadic hull by Fraction arithmetic: the reference for the integer one."""
    width = hi - lo
    e = width.numerator.bit_length() - width.denominator.bit_length()
    if Fraction(2) ** e > width:
        e -= 1
    step = Fraction(2) ** (e - rootfind.HULL_BITS)
    return (lo // step) * step, -(-hi // step) * step


@settings(max_examples=300, derandomize=True, deadline=None)
@given(brackets())
def test_the_integer_hull_equals_the_fraction_formula(bracket):
    lo, hi = bracket
    hull = rootfind._dyadic_hull(lo, hi)
    assert hull == fraction_hull(lo, hi)
    assert hull[0] <= lo < hi <= hull[1] and all(is_dyadic(x) for x in hull)


def test_the_early_stop_counts_only_roots_inside_the_bracket():
    # the hull of (1/3, 10) starts at 5/16, below the root 8/25, which must
    # not count towards the one root asked for
    p = poly_from_roots([Fraction(8, 25), 5])
    assert rootfind._dyadic_hull(Fraction(1, 3), Fraction(10)) == (Fraction(5, 16), Fraction(10))
    _, intervals = isolate_real_roots(p, (Fraction(1, 3), 10), limit=1)
    assert len(intervals) == 1 and roots_on_closed(p, *intervals[0]) == 1
    assert intervals[0][0] < 5 < intervals[0][1]
    with pytest.raises(ValueError, match="limit"):
        isolate_real_roots(p, (Fraction(1, 3), 10), limit=0)


def test_a_root_at_a_midpoint_comes_between_its_halves():
    # 0 is the first midpoint of (-2, 2), and the one root asked for beyond
    # -3/2 is -1 in the left half, not the midpoint met first
    p = poly_from_roots([-1, 0, 1])
    _, intervals = isolate_real_roots(p, (-2, 2))
    assert [a <= r <= b for (a, b), r in zip(intervals, (-1, 0, 1))] == [True] * 3
    assert intervals[1] == (0, 0)
    assert isolate_real_roots(p, (-2, 2), limit=2)[1] == intervals[:2]


# ---------------------------------------------------------------------------
# Bernstein bisection against the Taylor-shift bisection it replaced


def reference_taylor_shift1(a):
    """Coefficients of a(t + 1), ascending powers."""
    b = list(a)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += b[j + 1]
    return b


def reference_descartes(a, lo, hi, bounded):
    """Descartes bisection on monomial pieces, halved by integer Taylor shifts.

    q(t) = C^d a((A + B t) / C) carries (lo, hi) onto (0, 1) by homogeneous
    Horner; each piece is tested on the coefficients of
    (t + 1)^d q_k(1/(t + 1)) and halved into 2^d q_k(t/2) and its shift by 1.
    """
    d = len(a) - 1
    width = hi - lo
    den = math.lcm(lo.denominator, width.denominator)
    shift = lo.numerator * (den // lo.denominator)
    scale = width.numerator * (den // width.denominator)
    q = [a[-1]]
    power = 1
    for coeff in reversed(a[:-1]):
        power *= den
        q = [shift * x + scale * y for x, y in zip(q + [0], [0] + q)]
        q[0] += coeff * power
    g = math.gcd(*q)
    q = [x // g for x in q]
    max_depth = rootfind.DESCARTES_DEPTH_BITS + int(width).bit_length()
    stack = [(q, 0, 0)]
    while stack:
        q, k, c = stack.pop()
        if q is None:
            m = lo + width * Fraction(c, 1 << k)
            yield (m, m)
            continue
        v = reference_taylor_shift1(q[::-1])
        signs = [s > 0 for s in v if s]
        variations = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
        if variations == 0:
            continue
        if variations == 1 and v[0] and v[-1]:
            yield (lo + width * Fraction(c, 1 << k), lo + width * Fraction(c + 1, 1 << k))
            continue
        if bounded and k == max_depth:
            yield None
            return
        left = [y << (d - i) for i, y in enumerate(q)]
        right = reference_taylor_shift1(left)
        stack.append((right, k + 1, 2 * c + 1))
        if right[0] == 0:
            stack.append((None, k + 1, 2 * c + 1))
        stack.append((left, k + 1, 2 * c))


@st.composite
def descartes_cases(draw):
    """(a, lo, hi): a of degree 1..40 from rational linear factors, some repeated.

    The bracket starts at 0, at a nonzero dyadic or at a non-dyadic rational;
    the roots lie on its dyadic midpoints, at its ends, inside it or near it.
    """
    start = draw(st.sampled_from(("zero", "dyadic", "rational")))
    if start == "zero":
        lo = Fraction(0)
    elif start == "dyadic":
        lo = Fraction(draw(st.integers(-2**10, 2**10).filter(bool)), 2 ** draw(st.integers(0, 10)))
    else:
        lo = draw(
            st.builds(Fraction, st.integers(-999, 999), st.sampled_from((3, 7, 10, 96, 1000)))
            .filter(lambda x: not is_dyadic(x))
        )
    width = Fraction(draw(st.integers(1, 10**4)), draw(st.sampled_from((1, 3, 2**5, 10**3, 2**20))))
    hi = lo + width
    midpoint = st.integers(1, 8).flatmap(
        lambda k: st.integers(0, 2 ** (k - 1) - 1).map(lambda c: lo + width * Fraction(2 * c + 1, 2**k))
    )
    inside = st.integers(1, 999).map(lambda k: lo + width * Fraction(k, 1000))
    near = st.sampled_from((lo, hi, lo - width / 3, hi + width / 7))
    roots = draw(st.lists(st.tuples(midpoint | inside | near, st.integers(1, 3)), min_size=1, max_size=16))
    p = poly_from_roots([r for r, m in roots for _ in range(m)][:40])
    return list(p.ints), lo, hi


@settings(max_examples=150, derandomize=True, deadline=None)
@given(descartes_cases())
def test_bernstein_bisection_yields_what_taylor_shift_bisection_yields(case):
    a, lo, hi = case
    # bounded on a, which gives up (None) at a multiple root off the midpoints
    assert list(rootfind._descartes(a, lo, hi, True)) == list(reference_descartes(a, lo, hi, True))
    # unbounded on the square-free part, as isolation's fallback runs it
    b = square_free_part(RationalPoly.from_coeffs(a)).ints
    assert list(rootfind._descartes(b, lo, hi, False)) == list(reference_descartes(b, lo, hi, False))


def test_a_bounded_search_gives_up_in_both_bisections():
    # a double root at 1/3 of (5/7, 5/7 + 3) keeps two variations at every depth
    a = poly_from_roots([Fraction(12, 7), Fraction(12, 7), Fraction(5, 7), 3]).ints
    lo, hi = Fraction(5, 7), Fraction(26, 7)
    found = list(rootfind._descartes(a, lo, hi, True))
    assert found[-1] is None and found == list(reference_descartes(a, lo, hi, True))


def test_bernstein_bisection_of_a2_at_n64(monkeypatch):
    # A2's S at N = 64, lambda = 2000 (degree 122) on its default bracket's
    # hull: the reference's intervals, one Taylor shift to make q Bernstein,
    # and a pinned number of de Casteljau splits
    ramp = PotentialSpec.linear(2000)
    s = quotient_at(ramp, 64).stationarity_polynomial()
    hull = rootfind._dyadic_hull(*default_bracket(ramp))
    counts = _count_calls(monkeypatch, ("_halves", "_taylor_shift1"))
    found = list(rootfind._descartes(s.ints, *hull, True))
    assert s.degree == 122 and counts == {"_halves": 76, "_taylor_shift1": 1}
    assert found == list(reference_descartes(s.ints, *hull, True))


def test_isolation_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        isolate_real_roots(RationalPoly.zero(), (Fraction(0), Fraction(1)))


def test_constant_has_no_roots():
    assert isolate_real_roots(RationalPoly.constant(5), (Fraction(0), Fraction(1)))[1] == ()


# ---------------------------------------------------------------------------
# square-free part


def test_square_free_part():
    p = poly_from_roots([1, 1, 1, 2])
    sf = square_free_part(p)
    assert sf.degree == 2
    assert sf.eval(Fraction(1)) == 0 and sf.eval(Fraction(2)) == 0


def test_square_free_part_agrees_with_sturm_counts():
    # every seeded polynomial times (x - r)^m, m = 1, 2, 3
    rng = random.Random(20261021)
    lo, hi = Fraction(-20), Fraction(20)
    repeated = 0
    for base in seeded_polynomials():
        r = Fraction(rng.randint(-150, 150), rng.choice((1, 2, 3, 4, 7, 8)))
        for m in (1, 2, 3):
            p = base * poly_from_roots([r] * m)
            sf = square_free_part(p)
            _, rem = poly_divmod(p, sf)
            assert rem.is_zero, p
            assert len(sturm_sequence(sf)[-1]) == 1, p
            assert count_real_roots(sf, lo, hi) == count_real_roots(p, lo, hi), p
            repeated += sf.degree < p.degree
    assert repeated >= 800


# ---------------------------------------------------------------------------
# refinement certificates


def test_refine_enclosure_is_certified():
    p = poly_from_roots([2])  # root exactly 2; perturb to irrational-free case
    p = RationalPoly.from_coeffs([-2, 0, 1])  # q^2 - 2, root sqrt(2)
    width = Fraction(1, 10**30)
    lo, hi = refine_enclosure(p, (Fraction(1), Fraction(2)), width)
    assert hi - lo <= width
    # certificate: exact sign change across the enclosure
    assert p.eval(lo) * p.eval(hi) < 0
    # and it contains sqrt(2)
    assert lo * lo < 2 < hi * hi


@pytest.mark.parametrize(
    "interval",
    [(Fraction(1414213562373, 10**12), Fraction(2)), (Fraction(1), Fraction(1414213562374, 10**12))],
    ids=["left", "right"],
)
def test_refine_enclosure_root_nearer_an_end_than_the_grid_step(interval):
    # width 1/2 puts the grid at 2^-33; sqrt(2) lies within 1e-12 of one end
    p = RationalPoly.from_coeffs([-2, 0, 1])
    lo, hi = refine_enclosure(p, interval, Fraction(1, 2))
    assert interval[0] <= lo < hi <= interval[1] and hi - lo < Fraction(1, 2**33)
    assert p.eval(lo) < 0 < p.eval(hi)


def test_refine_enclosure_finds_a_rational_root_on_its_grid():
    # (q - 13/2)(q^2 - 2) changes sign on (6, 7) only at 13/2
    p = poly_from_roots([Fraction(13, 2)]) * RationalPoly.from_coeffs([-2, 0, 1])
    assert refine_enclosure(p, (6, 7), Fraction(1, 10**12)) == (Fraction(13, 2),) * 2


def test_refine_enclosure_returns_a_root_at_the_upper_end():
    # q - 2 is nonzero at 1 and zero at 2
    assert refine_enclosure(poly_from_roots([2]), (1, 2), Fraction(1, 10**12)) == (2, 2)


def test_refine_enclosure_keeps_an_interval_that_holds_no_grid_point():
    # width 1/2 puts the grid at 2^-33, wider than the 1e-12 interval
    interval = (Fraction(1414213562373, 10**12), Fraction(1414213562374, 10**12))
    assert math.floor(interval[1] * 2**33) < math.ceil(interval[0] * 2**33)
    p = RationalPoly.from_coeffs([-2, 0, 1])
    assert refine_enclosure(p, interval, Fraction(1, 2)) == interval


def grid_step(root):
    """Values -1 below the grid index ``root``, 0 at it and 99 above, with the probes made."""
    probes = []

    def value(m):
        probes.append(m)
        return -1 if m < root else 99 if m > root else 0

    return value, probes


@pytest.mark.parametrize(
    "root, probes",
    # from (0, -1) and (100, 99) the secant guess is 1, the window of
    # 100/4 cells beside it ends at 26, and 63 halves what is left
    [(26, [1, 26]), (63, [1, 26, 63])],
    ids=["window", "halving"],
)
def test_refine_on_grid_stops_at_a_zero_probe(root, probes):
    value, seen = grid_step(root)
    assert rootfind._refine_on_grid(value, 0, -1, 100, 99) == (root, root)
    assert seen == probes


@functools.cache
def seeded_isolating_intervals(shift):
    """(square-free part, isolating interval) pairs of the seeded polynomials.

    Isolation runs on the bracket (-100, 100) + shift; a shift of 1/3 gives
    interval ends that lie on no dyadic grid.
    """
    pairs = []
    for p in seeded_polynomials():
        if p.degree >= 1:
            sf = square_free_part(p)
            _, intervals = isolate_real_roots(sf, (-100 + shift, 100 + shift))
            pairs += [(sf, iv) for iv in intervals]
    return tuple(pairs)


def test_refine_enclosure_on_every_isolating_interval():
    width = Fraction(1, 10**12)
    intervals = seeded_isolating_intervals(0)
    for sf, (a, b) in intervals:
        lo, hi = refine_enclosure(sf, (a, b), width)
        assert a <= lo <= hi <= b and hi - lo <= width, (sf, a, b)
        if lo == hi:
            assert sf.eval(lo) == 0, (sf, lo)
        else:
            assert sf.eval(lo) * sf.eval(hi) < 0, (sf, lo, hi)
            assert count_real_roots(sf, lo, hi) == 1, (sf, lo, hi)
    assert len(intervals) > 400


# ---------------------------------------------------------------------------
# refinement against plain bisection on the same grid


def bisection_enclosure(p, interval, width):
    """Reference refinement: plain bisection on the grid m/2^k.

    Probes one Fraction point at a time with the general sign primitive and
    returns (enclosure, number of grid probes).
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    a = p.ints
    slo, shi = rootfind._sign_at(a, lo), rootfind._sign_at(a, hi)
    if slo == 0:
        return (lo, lo), 0
    if shi == 0:
        return (hi, hi), 0
    assert slo != shi
    cells = -(-(width.denominator << rootfind.GUARD_BITS) // width.numerator)
    scale = 1 << (cells - 1).bit_length()
    i = -(-lo.numerator * scale // lo.denominator)
    j = hi.numerator * scale // hi.denominator
    if i > j:
        return (lo, hi), 0
    x = Fraction(i, scale)
    s = rootfind._sign_at(a, x)
    if s == 0:
        return (x, x), 1
    if s != slo:
        return (lo, x), 1
    x = Fraction(j, scale)
    s = rootfind._sign_at(a, x)
    if s == 0:
        return (x, x), 2
    if s == slo:
        return (x, hi), 2
    probes = 2
    while j - i > 1:
        m = (i + j) >> 1
        x = Fraction(m, scale)
        s = rootfind._sign_at(a, x)
        probes += 1
        if s == 0:
            return (x, x), probes
        if s == slo:
            i = m
        else:
            j = m
    return (Fraction(i, scale), Fraction(j, scale)), probes


def test_refinement_returns_the_bisection_cell():
    # every seeded isolating interval, with dyadic ends and with ends shifted
    # by 1/3, at a coarse and at the finest width the CLI asks for
    widths = (Fraction(1, 10**12), Fraction(2, 10**26))
    on_grid = 0  # exact roots that the search meets on the grid
    for shift in (0, Fraction(1, 3)):
        for p, interval in seeded_isolating_intervals(shift):
            for width in widths:
                cell, _ = bisection_enclosure(p, interval, width)
                assert refine_enclosure(p, interval, width) == cell, (p, interval, width)
                on_grid += cell[0] == cell[1] != interval[0]
    assert len(seeded_isolating_intervals(0)) == 685 and on_grid > 100

    # a root on the grid end i or j (the grid is 2^-52 at width 2^-20), the
    # root sqrt(2) within one cell of an end, and an interval inside one cell
    width = Fraction(1, 2**20)
    r, below_a_cell = Fraction(5, 8), Fraction(1, 3 * 2**52)
    linear = poly_from_roots([r]) * RationalPoly.from_coeffs([-2, 0, 1])
    sqrt2 = RationalPoly.from_coeffs([-2, 0, 1])
    cases = [
        (linear, (r - below_a_cell, r + Fraction(1, 2)), (r, r)),
        (linear, (r - 1, r + below_a_cell), (r, r)),
        (sqrt2, (Fraction(14142135623730950, 10**16), 2), None),
        (sqrt2, (1, Fraction(14142135623730951, 10**16)), None),
    ]
    third = (Fraction(1, 3) - below_a_cell, Fraction(1, 3) + below_a_cell)
    cases.append((poly_from_roots([Fraction(1, 3)]), third, third))
    for p, interval, expected in cases:
        cell, _ = bisection_enclosure(p, interval, width)
        assert refine_enclosure(p, interval, width) == cell, (p, interval)
        assert expected is None or cell == expected

    # a degree-34 stationarity polynomial of A2 (lambda = 1, N = 20)
    p = quotient_at(PotentialSpec.linear(1), 20).stationarity_polynomial()
    isolated, intervals = isolate_real_roots(p, (0, 300))
    assert p.degree == 34 and intervals
    for interval in intervals:
        for width in widths:
            cell, _ = bisection_enclosure(isolated, interval, width)
            assert refine_enclosure(isolated, interval, width) == cell, interval


def test_refinement_probes_at_most_half_the_bisection_count(monkeypatch):
    # bisection takes about 93 probes per call here
    width = Fraction(2, 10**26)
    intervals = seeded_isolating_intervals(0)
    bisection = sum(bisection_enclosure(p, iv, width)[1] for p, iv in intervals)
    calls = _count_calls(monkeypatch, ("_horner_dyadic",))
    for p, interval in intervals:
        refine_enclosure(p, interval, width)
    assert bisection > 80 * len(intervals)
    assert 2 * calls["_horner_dyadic"] <= bisection


def test_refine_float_result():
    p = RationalPoly.from_coeffs([-2, 0, 1])
    r = certified_midpoint(p, (Fraction(1), Fraction(2)), Fraction(1, 10**13))
    assert abs(r - 2**0.5) < 1e-12


def test_refine_rejects_an_interval_without_a_root():
    p = poly_from_roots([Fraction(1, 3), Fraction(1, 3)])
    assert certified_midpoint(p, (Fraction(1, 3), Fraction(1, 3))) == 1 / 3
    for interval in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
        with pytest.raises(ValueError):
            certified_midpoint(p, interval)


def test_refine_even_multiplicity_root(sturm_calls):
    # (q - 1/3)^2 has no sign change, so refinement on it is refused; the
    # square-free part that isolation returns crosses zero at the root
    p = poly_from_roots([Fraction(1, 3), Fraction(1, 3)])
    isolated, intervals = isolate_real_roots(p, (Fraction(0), Fraction(1)))
    assert len(intervals) == 1
    assert sturm_calls == {"sturm_sequence": 1}
    with pytest.raises(ValueError, match="sign change"):
        certified_midpoint(p, intervals[0], Fraction(1, 10**12))
    r = certified_midpoint(isolated, intervals[0], Fraction(1, 10**12))
    assert abs(r - 1 / 3) < 1e-11
    assert sturm_calls == {"sturm_sequence": 1}


def test_select_root_builds_one_sturm_chain_for_an_even_multiplicity_root(sturm_calls):
    # isolation takes the square-free part of (q - 1/3)^2 from one chain and
    # refinement runs on that part, so no retry builds a second one
    p = poly_from_roots([Fraction(1, 3), Fraction(1, 3)])
    tol = Fraction(1, 10**12)
    lo, hi = select_root(p, (Fraction(0), Fraction(1)), 0, DEFAULT_SELECTION, tol)
    assert lo <= Fraction(1, 3) <= hi and hi - lo <= 2 * tol
    assert sturm_calls == {"sturm_sequence": 1}


def test_rational_root_detected_exactly():
    p = poly_from_roots([Fraction(6)])  # linear factor, root exactly 6
    _, intervals = isolate_real_roots(p, (Fraction(0), Fraction(10)))
    assert [certified_midpoint(p, iv, Fraction(1, 10**12)) for iv in intervals] == [6.0]
    # a root sitting exactly on the bracket's left endpoint is reported
    # through a degenerate interval, since (lo, hi] would exclude it
    _, intervals = isolate_real_roots(p, (Fraction(6), Fraction(10)))
    assert intervals == ((Fraction(6), Fraction(6)),)
    assert [certified_midpoint(p, iv, Fraction(1, 10**12)) for iv in intervals] == [6.0]


# ---------------------------------------------------------------------------
# work done per solve: isolate once, certify only the chosen root


def _count_calls(monkeypatch, names):
    """Count calls of the named functions made through the module."""
    counts = dict.fromkeys(names, 0)
    for name in counts:
        original = getattr(rootfind, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(rootfind, name, counted)
    return counts


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of refine_enclosure and sturm_sequence made through the module."""
    return _count_calls(monkeypatch, ("refine_enclosure", "sturm_sequence"))


@pytest.fixture
def sturm_calls(monkeypatch):
    """Count Sturm chain builds made through the module."""
    return _count_calls(monkeypatch, ("sturm_sequence",))


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_a1(build_series(PotentialSpec.linear(1), 12)),
        lambda: solve_a3(quotient_at(PotentialSpec.linear(1), 10)),
        # W(eps) = eps at every fixed point, so min-w is the smallest policy
        lambda: solve_a3(quotient_at(PotentialSpec.linear(1), 10), selection=RootSelection("min-w")),
        lambda: solve_secular(secular_at(PotentialSpec.linear(1), 6)),
    ],
    ids=["a1", "a3", "a3-min-w", "rr"],
)
def test_index_policy_solve_refines_one_root(call_counts, solve):
    est = solve()
    assert est is not None
    assert call_counts == {"refine_enclosure": 1, "sturm_sequence": 0}


@pytest.mark.parametrize("n", [20, 30])
def test_a2_refines_only_the_valleys_of_w(call_counts, n):
    # S has four roots in the default bracket at lambda = 1, where W has a
    # valley, a peak, a valley and a peak: the two valleys are compared at
    # coarse enclosures and the winner is refined once more, 3 refinements
    # where refining every candidate and then the winner took 5
    assert solve_a2(quotient_at(PotentialSpec.linear(1), n)) is not None
    assert call_counts == {"refine_enclosure": 3, "sturm_sequence": 0}


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_a2(quotient_at(PotentialSpec.linear(1), 20)),
        lambda: solve_a2(quotient_at(PotentialSpec.linear(1), 30)),
        lambda: solve_a1(build_series(PotentialSpec.linear(1), 12)),
        lambda: solve_a3(quotient_at(PotentialSpec.linear(1), 10)),
        lambda: solve_secular(secular_at(PotentialSpec.linear(1), 6)),
    ],
    ids=["a2-n20", "a2-n30", "a1", "a3", "rr"],
)
def test_solver_isolation_builds_no_sturm_chain(sturm_calls, solve):
    assert solve() is not None
    assert sturm_calls == {"sturm_sequence": 0}


def test_a_multiple_root_builds_one_sturm_chain(sturm_calls):
    # Descartes bisection cannot separate a double root from itself; the
    # square-free part comes from the one chain
    isolated, intervals = isolate_real_roots(poly_from_roots([1, 1, 2]), (0, 10))
    assert len(intervals) == 2
    assert sturm_calls == {"sturm_sequence": 1}
    # the intervals come with the square-free part they were isolated on
    assert isolated.degree == 2 and isolated.eval(1) == isolated.eval(2) == 0


# ---------------------------------------------------------------------------
# exact float conversion (the oracle's mpf results, as renderers take them)


def test_mpf_to_rational_is_exact():
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40
    x = ctx.mpf(1) / 3
    fr = mpf_to_rational(x)
    # binary float: denominator is a power of two and value reproduces x
    assert fr.denominator & (fr.denominator - 1) == 0
    assert ctx.mpf(fr.numerator) / fr.denominator == x
    assert mpf_to_rational(ctx.mpf(0)) == 0
    assert mpf_to_rational(ctx.mpf("-2.5")) == Fraction(-5, 2)


# ---------------------------------------------------------------------------
# one exact arithmetic


def test_rootfind_imports_no_mpmath():
    # counting, isolation and refinement stay on exact integers and rationals
    tree = ast.parse(open(rootfind.__file__, encoding="utf-8").read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert modules and not [m for m in modules if m.split(".")[0] == "mpmath"]
