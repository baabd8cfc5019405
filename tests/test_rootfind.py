"""Certified real-root isolation and refinement."""

import random
from fractions import Fraction

import pytest

from boxeig import rootfind
from boxeig.model import PotentialSpec
from boxeig.poly import RationalPoly
from boxeig.rayleigh_ritz import solve_rr
from boxeig.rootfind import (
    count_real_roots,
    isolate_real_roots,
    mpf_to_rational,
    refine,
    refine_enclosure,
    sturm_sequence,
    sign_variations,
    square_free_decomposition,
    square_free_part,
)
from boxeig.series import solve_a1
from boxeig.variational import solve_a3


def poly_from_roots(roots, var="q"):
    p = RationalPoly.one(var)
    for r in roots:
        p = p * RationalPoly.from_coeffs([-Fraction(r), 1], var)
    return p


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
    chain = [p.primitive_part()]
    d = p.differentiate()
    if d.is_zero:
        return chain
    chain.append(d.primitive_part())
    while True:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero:
            return chain
        chain.append((-r).primitive_part())


def test_sturm_sequence_matches_fraction_reference_chain():
    rng = random.Random(20261018)
    sign_matters = 0  # steps with lc(b) < 0 and an even degree gap deg a - deg b
    for _ in range(400):
        degree = rng.randint(0, 10)
        # sparse coefficients make remainders drop more than one degree
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 8)) if rng.random() < 0.6 else 0
            for _ in range(degree)
        ]
        coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 8)))
        p = RationalPoly.from_coeffs(coeffs)
        expected = fraction_sturm_chain(p)
        assert sturm_sequence(p) == expected, coeffs
        sign_matters += sum(
            1
            for a, b in zip(expected[1:], expected[2:])
            if b.leading < 0 and (a.degree - b.degree) % 2 == 0
        )
    assert sign_matters >= 10


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
        report = isolate_real_roots(p, (lo, hi), tol=Fraction(1, 10**6))
        assert len(report.isolator_intervals) == sturm_count
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# isolation


def test_isolation_separates_close_roots():
    p = poly_from_roots([Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**6)])
    report = isolate_real_roots(p, (Fraction(0), Fraction(1)), tol=Fraction(1, 10**12))
    assert len(report.isolator_intervals) == 2
    (a1, b1), (a2, b2) = report.isolator_intervals
    assert b1 <= a2, "intervals are disjoint and ordered"


def test_isolation_bisects_onto_a_multiple_root():
    # the first bisection point of (-2, 2) is the double root 0
    p = poly_from_roots([0, 0, 1, -1])
    report = isolate_real_roots(p, (Fraction(-2), Fraction(2)), tol=Fraction(1, 10**12))
    assert report.isolator_intervals[1] == (Fraction(0), Fraction(0))
    assert [(round(v, 9), m) for v, m in report.roots] == [(-1.0, 1), (0.0, 2), (1.0, 1)]


def test_isolation_endpoint_root_left():
    # root exactly at the left endpoint of the bracket is still reported
    p = poly_from_roots([0, Fraction(1, 2)])
    report = isolate_real_roots(p, (Fraction(0), Fraction(1)), tol=Fraction(1, 10**9))
    roots = sorted(float((a + b) / 2) for a, b in report.isolator_intervals)
    assert len(roots) == 2
    assert abs(roots[0] - 0.0) < 1e-9 and abs(roots[1] - 0.5) < 1e-9


def test_root_beside_a_root_on_the_left_endpoint():
    # (0, 1] holds only 1/3, but p(0) = 0: refinement must not return 0
    p = poly_from_roots([0, Fraction(1, 3)])
    report = isolate_real_roots(p, (Fraction(0), Fraction(1)), tol=Fraction(1, 10**12))
    values = [v for v, _ in report.roots]
    assert values[0] == 0.0 and abs(values[1] - 1 / 3) < 1e-11
    for a, b in report.isolator_intervals:
        assert a == b or (p.eval(a) != 0 and p.eval(b) != 0)


def test_isolation_endpoint_root_right():
    p = poly_from_roots([1])
    report = isolate_real_roots(p, (Fraction(0), Fraction(1)), tol=Fraction(1, 10**9))
    assert len(report.isolator_intervals) == 1


def test_isolation_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        isolate_real_roots(RationalPoly.zero(), (Fraction(0), Fraction(1)))


def test_constant_has_no_roots():
    report = isolate_real_roots(
        RationalPoly.constant(5), (Fraction(0), Fraction(1)), tol=Fraction(1, 10**6)
    )
    assert report.isolator_intervals == ()


# ---------------------------------------------------------------------------
# multiplicity


def test_multiplicity_hints():
    p = poly_from_roots([1, 1, -2])  # double root at 1, simple at -2
    report = isolate_real_roots(p, (Fraction(-3), Fraction(3)), tol=Fraction(1, 10**10))
    roots = sorted(report.roots, key=lambda t: t[0])
    assert len(roots) == 2
    (r1, m1), (r2, m2) = roots
    assert abs(r1 + 2) < 1e-9 and m1 == 1
    assert abs(r2 - 1) < 1e-9 and m2 == 2


def test_square_free_decomposition():
    p = poly_from_roots([1, 1, 1, 2, 2, -1, Fraction(1, 2)])
    factors = square_free_decomposition(p)
    assert [f.degree for f in factors] == [2, 1, 1]
    assert factors[0] == poly_from_roots([-1, Fraction(1, 2)]).primitive_part()
    assert factors[1].eval(Fraction(2)) == 0 and factors[2].eval(Fraction(1)) == 0
    product = factors[0] * factors[1] ** 2 * factors[2] ** 3
    assert (p.divexact(product)).degree == 0


def test_square_free_part():
    p = poly_from_roots([1, 1, 1, 2])
    sf = square_free_part(p)
    assert sf.degree == 2
    assert sf.eval(Fraction(1)) == 0 and sf.eval(Fraction(2)) == 0


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


def test_refine_float_result():
    p = RationalPoly.from_coeffs([-2, 0, 1])
    r = refine(p, (Fraction(1), Fraction(2)), tol=Fraction(1, 10**13))
    assert abs(r - 2**0.5) < 1e-12


def test_refine_rejects_an_interval_without_a_root():
    p = poly_from_roots([Fraction(1, 3), Fraction(1, 3)])
    assert refine(p, (Fraction(1, 3), Fraction(1, 3))) == 1 / 3
    for interval in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
        with pytest.raises(ValueError):
            refine(p, interval)


def test_refine_even_multiplicity_root():
    # (q - 1/3)^2 has no sign change; refinement must fall back to the
    # square-free part and still locate the root
    p = poly_from_roots([Fraction(1, 3), Fraction(1, 3)])
    report = isolate_real_roots(p, (Fraction(0), Fraction(1)), tol=Fraction(1, 10**12))
    assert len(report.isolator_intervals) == 1
    (r, mult) = report.roots[0]
    assert abs(r - 1 / 3) < 1e-11
    assert mult == 2


def test_rational_root_detected_exactly():
    p = poly_from_roots([Fraction(6)])  # linear factor, root exactly 6
    report = isolate_real_roots(p, (Fraction(0), Fraction(10)), tol=Fraction(1, 10**12))
    assert report.roots == ((6.0, 1),)
    # a root sitting exactly on the bracket's left endpoint is reported
    # through a degenerate interval, since (lo, hi] would exclude it
    report = isolate_real_roots(p, (Fraction(6), Fraction(10)), tol=Fraction(1, 10**12))
    assert report.isolator_intervals == ((Fraction(6), Fraction(6)),)
    assert report.roots == ((6.0, 1),)


# ---------------------------------------------------------------------------
# work done per solve: isolate once, certify only the chosen root


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of refine_enclosure and poly_gcd made through the module."""
    counts = {"refine_enclosure": 0, "poly_gcd": 0}
    for name in counts:
        original = getattr(rootfind, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(rootfind, name, counted)
    return counts


def test_isolation_refines_nothing_until_roots_is_read(call_counts):
    p = poly_from_roots([1, 1, -2, Fraction(7, 3)])  # double root at 1
    report = isolate_real_roots(p, (Fraction(-3), Fraction(3)), tol=Fraction(1, 10**12))
    assert len(report.isolator_intervals) == 3
    assert call_counts == {"refine_enclosure": 0, "poly_gcd": 0}
    values = [v for v, _ in report.roots]
    assert [m for _, m in report.roots] == [1, 2, 1]
    for got, want in zip(values, (-2, 1, 7 / 3)):
        assert abs(got - want) < 1e-11
    # one square-free decomposition serves every multiplicity
    gcds = call_counts["poly_gcd"]
    assert report.roots is report.roots
    assert call_counts["poly_gcd"] == gcds


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_a1(PotentialSpec.linear(1), 12),
        lambda: solve_a3(PotentialSpec.linear(1), 10),
        lambda: solve_rr(PotentialSpec.linear(1), 6),
    ],
    ids=["a1", "a3", "rr"],
)
def test_index_policy_solve_refines_one_root(call_counts, solve):
    est = solve()
    assert est is not None
    assert call_counts == {"refine_enclosure": 1, "poly_gcd": 0}


# ---------------------------------------------------------------------------
# exact float conversion


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
