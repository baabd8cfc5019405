"""Certified real-root isolation and refinement."""

import ast
import functools
import random
from fractions import Fraction

import pytest

from boxeig import rootfind
from boxeig.model import PotentialSpec
from boxeig.oracle import mpf_to_rational
from boxeig.poly import RationalPoly
from boxeig.estimates import DEFAULT_SELECTION, select_root
from boxeig.rayleigh_ritz import build_secular, solve_secular
from boxeig.rootfind import (
    count_real_roots,
    isolate_real_roots,
    refine_enclosure,
    sturm_sequence,
    sign_variations,
    square_free_part,
)
from boxeig.series import build_series, solve_a1
from boxeig.variational import solve_a2, solve_a3

from test_variational import quotient_at


def poly_from_roots(roots, var="q"):
    p = RationalPoly.one(var)
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
            if b.leading < 0 and (a.degree - b.degree) % 2 == 0
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
            _, rem = p.divmod(sf)
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
        lambda: solve_secular(build_secular(PotentialSpec.linear(1), 6)),
    ],
    ids=["a1", "a3", "rr"],
)
def test_index_policy_solve_refines_one_root(call_counts, solve):
    est = solve()
    assert est is not None
    assert call_counts == {"refine_enclosure": 1, "sturm_sequence": 0}


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_a2(quotient_at(PotentialSpec.linear(1), 20)),
        lambda: solve_a2(quotient_at(PotentialSpec.linear(1), 30)),
        lambda: solve_a1(build_series(PotentialSpec.linear(1), 12)),
        lambda: solve_a3(quotient_at(PotentialSpec.linear(1), 10)),
        lambda: solve_secular(build_secular(PotentialSpec.linear(1), 6)),
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
