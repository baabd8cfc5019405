"""Certified real-root location for polynomials with rational coefficients.

Every computation works on the coprime integer coefficients that
:class:`~boxeig.poly.RationalPoly` stores (the polynomial divided by its
positive scale, so every sign is kept).  A Sturm sequence is an integer
primitive pseudo-remainder sequence, and the one sign primitive evaluates an
integer polynomial at a rational point n/d by the integer Horner kernel of
``poly`` on the homogenised form, so no step pays a gcd.  Sign-variation counts
(and hence root counts on half-open intervals) carry no rounding error.

Isolation is Descartes bisection (Collins & Akritas 1976; Rouillier &
Zimmermann 2004) on the integer polynomial q(t) that carries the bracket
onto (0, 1).  A piece is dropped when the coefficients of (t + 1)^d q(1/(t + 1))
show no sign variation and kept when they show one; otherwise it is halved by
integer Taylor shifts, with an exact root at a midpoint recorded as it is met.
The pieces are the same dyadic subdivisions of the bracket that Sturm
bisection would visit, and no Sturm chain is built.  Near a multiple root
the variations never drop below two, so a depth limit stops the search, and
it is run again, without a limit, on the square-free part p / gcd(p, p').
That part has one source: the Sturm chain of p, whose last member is
gcd(p, p'), divided through by that member.  Isolation returns the isolating
intervals of the distinct roots (no multiplicities) with the polynomial it
isolated them on, p or that square-free part.  The latter changes sign across
every nondegenerate interval, so refinement on it builds no second chain.
Isolation refines nothing, so a solver certifies only the root it picks.

Refinement returns one cell of the dyadic grid m/2^k, 2^-k the first power
of two GUARD_BITS bits below the requested width: the cell that holds the
root, clipped to the isolating interval, or (r, r) for a root r on the grid.
It searches the grid indices m and reads the exact integer values
V(m) = 2^(k deg) p(m/2^k), which the shift-Horner kernel of ``poly`` computes
without a Fraction; an interval end off the grid takes one general sign.
The search is quadratic interval refinement (J. Abbott, ACM Commun. Comput.
Algebra 48, 2014; Kerber & Sagraloff, ISSAC 2011).  From the values at the
two ends of the index range it takes the secant guess and tests a window of
1/n of the range beside it, on the side that the sign at the guess points
to.  A sign change in the window squares n; otherwise n falls to its square
root and the range is halved once.  Near a simple root the window keeps
catching it, so the correct bits double per step.  Every step keeps opposite
signs at the two ends, so any such search ends on the same cell.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .poly import (
    RationalPoly,
    _horner,
    _horner_dyadic,
    _int_divexact,
    _int_prem,
    exact_rational,
)

# Refinement searches a grid this many bits below the requested enclosure
# width, so an enclosure midpoint is about ten digits more accurate than the
# width promises; residuals at secular roots (tests/test_rayleigh_ritz.py)
# rely on it.
GUARD_BITS = 32

# Descartes bisection of a bracket of width w gives up below pieces of width
# w / 2^(DESCARTES_DEPTH_BITS + bit length of floor(w)), about 2^-64 of the
# bracket or of one unit, whichever is smaller; only a multiple root (or two
# roots closer than that) keeps a piece alive so deep.
DESCARTES_DEPTH_BITS = 64

Interval = tuple[Fraction, Fraction]


def _sign_at(a: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial a at x = n/d (d > 0), read off d^deg a(n/d)."""
    value = _horner(a, x.numerator, x.denominator)
    return (value > 0) - (value < 0)


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed primitive remainder sequence a, b, ... of integer lists.

    Needs deg a >= deg b.  Each member after b is the pseudo-remainder
    lc(b)^(delta+1) a mod b of the two before it, divided by its content,
    with its sign chosen so that it is a positive multiple of -(a mod b).
    The last member is a gcd of a and b.
    """
    seq = [a]
    while b:
        seq.append(b)
        r = _int_prem(a, b)
        if r:
            # r is lc(b)^(delta+1) times a mod b, and the member is -(a mod b)
            # made primitive: divide by -content unless that factor is negative
            g = gcd(*r)
            if b[-1] > 0 or (len(a) - len(b)) % 2:
                g = -g
            r = [c // g for c in r]
        a, b = b, r
    return seq


def sturm_sequence(p: RationalPoly) -> list[list[int]]:
    """Sturm chain of p: the remainder sequence of (p, p') on integers.

    Every member is a primitive integer coefficient list, ascending powers.
    """
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    return _remainder_sequence(list(p.ints), list(p.differentiate().ints))


def _counting_chain(p: RationalPoly) -> list[list[int]]:
    """Sturm chain of p divided through by its last member, gcd(p, p').

    Every member of p's own chain vanishes at a multiple root of p, so sign
    variations there would count nothing; the divided chain is the chain of
    the square-free part and counts distinct roots at every point.
    """
    chain = sturm_sequence(p)
    g = chain[-1]
    if len(g) < 2:
        return chain
    return [_int_divexact(q, g) for q in chain]


def sign_variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    """Number of sign changes in the integer chain evaluated at x (zeros skipped)."""
    signs = [s for s in (_sign_at(a, x) for a in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: RationalPoly, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    lo, hi = exact_rational(lo), exact_rational(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    chain = _counting_chain(p)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def square_free_part(p: RationalPoly) -> RationalPoly:
    """p with repeated factors collapsed to multiplicity one.

    The first member of the counting chain, p / gcd(p, p') as a primitive
    integer polynomial; its sign may differ from that of p.
    """
    return RationalPoly.from_coeffs(_counting_chain(p)[0], p.var)


def isolate_real_roots(
    p: RationalPoly, bracket: tuple
) -> tuple[RationalPoly, tuple[Interval, ...]]:
    """Isolating intervals for every distinct real root of p in the bracket.

    Returns them with the polynomial they were isolated on: p, or its
    square-free part when p has a multiple root in the bracket.  That
    polynomial changes sign across each interval, except for degenerate
    intervals (r, r) at exact rational roots r; it is the one to refine.
    Roots landing exactly on a bracket endpoint are reported as inside.  The
    intervals are ascending and p is nonzero at both ends of each
    nondegenerate one.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = exact_rational(bracket[0]), exact_rational(bracket[1])
    if lo >= hi:
        raise ValueError("bracket must satisfy lo < hi")

    intervals: list[Interval] = []
    isolated = p
    if p.degree >= 1:
        a = p.ints
        found = _descartes(a, lo, hi, bounded=True)
        if found is None:
            isolated = square_free_part(p)
            found = _descartes(isolated.ints, lo, hi, bounded=False)
        intervals += found
        intervals += [(x, x) for x in (lo, hi) if _sign_at(a, x) == 0]
    intervals.sort()
    return isolated, tuple(intervals)


def _taylor_shift1(a: Sequence[int]) -> list[int]:
    """Coefficients of a(t + 1), ascending powers, by d(d + 1)/2 additions."""
    b = list(a)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += b[j + 1]
    return b


def _descartes(
    a: Sequence[int], lo: Fraction, hi: Fraction, bounded: bool
) -> list[Interval] | None:
    """Isolating intervals of the distinct roots of a in the open bracket (lo, hi).

    ``a`` is a primitive integer coefficient sequence.  With lo = A/C and
    hi - lo = B/C, q(t) = C^d a((A + B t) / C) has the roots of a in (lo, hi)
    in (0, 1).  A
    piece lo + (hi - lo) [c/2^k, (c + 1)/2^k] is held as (q_k, k, c), q_k an
    integer polynomial whose roots in (0, 1) are those of a in the piece.
    The sign variations of (t + 1)^d q_k(1/(t + 1)) bound the number of those
    roots and share its parity: none drops the piece, and one keeps it when
    q_k is nonzero at both ends.  A piece with one root and a root at an end
    is bisected on, so that refinement, which reads a zero at an endpoint as
    the root, cannot return that end for it.  An exact root at a midpoint is
    recorded as (m, m).

    When ``bounded``, returns None instead of bisecting a piece at depth
    DESCARTES_DEPTH_BITS + bit length of floor(hi - lo): a multiple root
    keeps two or more variations at every depth.
    """
    d = len(a) - 1
    width = hi - lo
    den = lcm(lo.denominator, width.denominator)
    shift = lo.numerator * (den // lo.denominator)
    scale = width.numerator * (den // width.denominator)
    # homogeneous Horner: q <- q (shift + scale t) + a_i den^(d - i)
    q = [a[-1]]
    power = 1
    for coeff in reversed(a[:-1]):
        power *= den
        q = [shift * x + scale * y for x, y in zip(q + [0], [0] + q)]
        q[0] += coeff * power
    g = gcd(*q)
    q = [x // g for x in q]

    max_depth = DESCARTES_DEPTH_BITS + int(width).bit_length()
    out: list[Interval] = []
    stack = [(q, 0, 0)]
    while stack:
        q, k, c = stack.pop()
        # coefficients of (t + 1)^d q(1/(t + 1)): its ends are q(1) and q(0)
        v = _taylor_shift1(q[::-1])
        signs = [x > 0 for x in v if x]
        variations = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
        if variations == 0:
            continue
        if variations == 1 and v[0] and v[-1]:
            out.append((lo + width * Fraction(c, 1 << k), lo + width * Fraction(c + 1, 1 << k)))
            continue
        if bounded and k == max_depth:
            return None
        left = [x << (d - i) for i, x in enumerate(q)]  # 2^d q(t/2)
        right = _taylor_shift1(left)  # 2^d q((t + 1)/2)
        if right[0] == 0:
            m = lo + width * Fraction(2 * c + 1, 2 << k)
            out.append((m, m))
        stack.append((right, k + 1, 2 * c + 1))
        stack.append((left, k + 1, 2 * c))
    return out


def refine_enclosure(p: RationalPoly, interval: tuple, width) -> Interval:
    """Shrink an isolating interval to a certified enclosure of width <= width.

    Requires an exact sign change (or an exact root at an endpoint, which is
    returned degenerately) and raises ValueError without one.  The result is
    the one cell of the grid m/2^k, 2^-k the first power of two GUARD_BITS
    bits below ``width``, that holds the root, clipped to the interval; or
    (r, r) for a root r on the grid.  Its endpoints carry exactly verified
    opposite signs of p.  The cell is found by quadratic interval refinement
    on the grid indices, reading the exact integer values 2^(k deg) p(m/2^k)
    (see the module docstring).
    """
    lo, hi = exact_rational(interval[0]), exact_rational(interval[1])
    width = exact_rational(width)
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    a = p.ints
    # the grid m / 2^k, for the smallest k with 2^k >= 2^GUARD_BITS / width
    cells = -(-(width.denominator << GUARD_BITS) // width.numerator)
    k = (cells - 1).bit_length()
    scale = 1 << k
    i = -(-(lo.numerator << k) // lo.denominator)  # ceil(lo 2^k)
    j = (hi.numerator << k) // hi.denominator  # floor(hi 2^k)
    # an end on the grid is read once, as the value at its index
    vi = _horner_dyadic(a, i, k) if not scale % lo.denominator else None
    vj = _horner_dyadic(a, j, k) if not scale % hi.denominator else None
    slo = _sign_at(a, lo) if vi is None else (vi > 0) - (vi < 0)
    shi = _sign_at(a, hi) if vj is None else (vj > 0) - (vj < 0)
    if slo == 0:
        return (lo, lo)
    if shi == 0:
        return (hi, hi)
    if slo == shi:
        raise ValueError("interval endpoints do not bracket a sign change")
    if i > j:
        return (lo, hi)
    up = slo > 0
    if vi is None:
        vi = _horner_dyadic(a, i, k)
        if not vi:
            return (Fraction(i, scale),) * 2
        if (vi > 0) != up:
            return (lo, Fraction(i, scale))
    if vj is None:
        vj = vi if j == i else _horner_dyadic(a, j, k)
        if not vj:
            return (Fraction(j, scale),) * 2
        if (vj > 0) == up:
            return (Fraction(j, scale), hi)

    # invariant: vi has sign slo and vj the opposite sign
    n = 4
    while j - i > 1:
        # the secant guess, rounded to the grid and kept inside (i, j)
        num, den = (j - i) * vi, vi - vj
        if den < 0:
            num, den = -num, -den
        m = min(max(i + (2 * num + den) // (2 * den), i + 1), j - 1)
        w = max((j - i) // n, 1)
        vm = _horner_dyadic(a, m, k)
        if not vm:
            return (Fraction(m, scale),) * 2
        # then the far end of a window of w cells beside it, on the root's side
        if (vm > 0) == up:
            i, vi, m = m, vm, m + w
        else:
            j, vj, m = m, vm, m - w
        if i < m < j:
            vm = _horner_dyadic(a, m, k)
            if not vm:
                return (Fraction(m, scale),) * 2
            if (vm > 0) == up:
                i, vi = m, vm
            else:
                j, vj = m, vm
        if j - i <= w:
            n *= n
            continue
        # the window missed: halve the range once
        n = max(isqrt(n), 4)
        m = (i + j) >> 1
        vm = _horner_dyadic(a, m, k)
        if not vm:
            return (Fraction(m, scale),) * 2
        if (vm > 0) == up:
            i, vi = m, vm
        else:
            j, vj = m, vm
    return (Fraction(i, scale), Fraction(j, scale))


def __getattr__(name: str):
    # mpf_to_rational lives in oracle, the one module that makes an mpf;
    # perfbench/derive_reference.py still imports it from here
    if name == "mpf_to_rational":
        from .oracle import mpf_to_rational

        return mpf_to_rational
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
