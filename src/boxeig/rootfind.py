"""Certified real-root location for polynomials with rational coefficients.

Every computation works on the coprime integer coefficients that
:class:`~boxeig.poly.RationalPoly` stores (the polynomial divided by its
positive scale, so every sign is kept).  A Sturm sequence is an integer
primitive pseudo-remainder sequence, built only for its last member, the gcd
that :func:`square_free_part` divides out.  The one sign primitive evaluates
an integer polynomial at a rational point n/d by the integer Horner kernel of
``poly`` on the homogenised form, so no step pays a gcd and no sign carries a
rounding error.  Brackets, interval ends and widths are ints, Fractions or
rational strings; a float is refused.

Isolation is Descartes bisection (Collins & Akritas 1976; Rouillier &
Zimmermann 2004) in the Bernstein basis (Mourrain, Rouillier & Roy 2005).
The bracket's dyadic hull (see HULL_BITS) is mapped onto (0, 1) by powers of
its grid integers, with an integer Taylor shift only when it does not start
at 0, and the polynomial is made Bernstein once.  A piece is dropped when its
integer Bernstein coefficients show no sign variation, kept when they show
one, and otherwise halved by one de Casteljau triangle of sums.  Pieces are
searched left to right, so the search can stop once it holds as many roots
as a solver asks for.  An isolating interval that straddles a bracket end is
cut there; every other end is dyadic, and no Sturm chain is built.  Near a
multiple root the variations never drop below two, so a depth limit stops
the search, and it is run again, without one, on the square-free part
p / gcd(p, p'), the gcd being the last member of the Sturm chain of p.
Refinement runs on the polynomial that isolation ran on, so it builds no
second chain.  Isolation refines nothing: a solver refines only the roots
its selection leaves in contention (``estimates.select_root``).

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
signs at the two ends, so any such search ends on the same cell.  The loop
(:func:`_refine_on_grid`) reads its values through a callable, so the ramp
oracle runs the same search on its wall series.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from typing import Callable, Iterator, Sequence

from .poly import (
    RationalPoly,
    _horner,
    _horner_dyadic,
    _int_divexact,
    _int_prem,
    as_rational,
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

# Descartes bisection runs on the bracket rounded outward to the grid of the
# largest power of two at most 2^-HULL_BITS of its width.  A bracket end with
# a long denominator (default_bracket's float pi^2 has 94 bits) then puts none
# of its bits into the coefficients of the transformed polynomial, and the
# hull is wider than the bracket by at most 2^(1 - HULL_BITS) of its width.
HULL_BITS = 8

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


def square_free_part(p: RationalPoly) -> RationalPoly:
    """p with repeated factors collapsed to multiplicity one.

    p / gcd(p, p'), with the gcd the last member of p's Sturm chain, as a
    primitive integer polynomial whose sign may differ from that of p; p
    itself when the gcd is a constant.
    """
    g = sturm_sequence(p)[-1]
    if len(g) < 2:
        return p
    return RationalPoly.from_coeffs(_int_divexact(p.ints, g), p.var)


def isolate_real_roots(
    p: RationalPoly, bracket: tuple, limit: int | None = None
) -> tuple[RationalPoly, tuple[Interval, ...]]:
    """Isolating intervals for the distinct real roots of p in the bracket.

    Returns them with the polynomial they were isolated on: p, or its
    square-free part when p has a multiple root among those searched.  That
    polynomial changes sign across each interval, except for degenerate
    intervals (r, r) at exact rational roots r; it is the one to refine.
    Roots landing exactly on a bracket endpoint are reported as inside.  The
    intervals are ascending and p is nonzero at both ends of each
    nondegenerate one.  With a ``limit``, only the first ``limit`` roots are
    returned, and the search stops once it holds them.

    The search runs on the bracket's dyadic hull (see :func:`_dyadic_hull`),
    so its pieces have dyadic ends; an interval that straddles lo or hi is
    cut there.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = as_rational(bracket[0]), as_rational(bracket[1])
    if lo >= hi:
        raise ValueError("bracket must satisfy lo < hi")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if p.degree < 1:
        return p, ()

    a = p.ints
    at_lo, at_hi = (_sign_at(a, x) == 0 for x in (lo, hi))
    want = None if limit is None else limit - at_lo
    isolated, found = p, []
    if want != 0:
        found = _isolate(a, lo, hi, True, want)
        if found is None:
            isolated = square_free_part(p)
            found = _isolate(isolated.ints, lo, hi, False, want)
    intervals = [(lo, lo)] * at_lo + found + [(hi, hi)] * at_hi
    return isolated, tuple(intervals[:limit])


def _dyadic_hull(lo: Fraction, hi: Fraction) -> Interval:
    """(lo, hi) rounded outward to the grid 2^e, 2^e <= (hi - lo) / 2^HULL_BITS < 2^(e+1)."""
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    num, den = c * b - a * d, b * d  # the width, unreduced
    e = num.bit_length() - den.bit_length()
    if den << max(e, 0) > num << max(-e, 0):
        e -= 1
    up, down = max(HULL_BITS - e, 0), max(e - HULL_BITS, 0)
    left, right = (a << up) // (b << down), -((-c << up) // (d << down))
    return Fraction(left << down, 1 << up), Fraction(right << down, 1 << up)


def _isolate(
    a: Sequence[int], lo: Fraction, hi: Fraction, bounded: bool, limit: int | None
) -> list[Interval] | None:
    """The first ``limit`` isolating intervals of a that hold a root in (lo, hi).

    The search runs on the dyadic hull of (lo, hi).  An interval that
    straddles lo or hi is cut there, and kept when a changes sign across
    what is left; a root exactly at lo or hi is left to the caller.  None
    when :func:`_descartes` gives up (see ``bounded``).
    """
    out: list[Interval] = []
    for piece in _descartes(a, *_dyadic_hull(lo, hi), bounded):
        if piece is None:
            return None
        left, right = piece
        if right <= lo:
            continue
        if left >= hi:
            break
        if left < lo or right > hi:
            left, right = max(left, lo), min(right, hi)
            sl, sr = _sign_at(a, left), _sign_at(a, right)
            if not sl or not sr or sl == sr:
                continue
        out.append((left, right))
        if len(out) == limit:
            break
    return out


def _taylor_shift1(a: Sequence[int]) -> list[int]:
    """Coefficients of a(t + 1), ascending powers, by d(d + 1)/2 additions."""
    b = list(a)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += b[j + 1]
    return b


def _halves(b: list[int], d: int) -> tuple[list[int], list[int]]:
    """2^d times the Bernstein coefficients of both halves of (0, 1), by one de Casteljau triangle.

    Overwrites b with each row of sums in turn: row r starts with 2^r times
    coefficient r of the left half and ends with 2^r times d - r of the right.
    """
    left, right = [b[0] << d], [b[-1] << d]
    for r in range(d, 0, -1):  # b becomes row d - r + 1
        for i in range(r):
            b[i] += b[i + 1]
        left.append(b[0] << (r - 1))
        right.append(b[r - 1] << (r - 1))
    return left, right[::-1]


def _descartes(
    a: Sequence[int], lo: Fraction, hi: Fraction, bounded: bool
) -> Iterator[Interval | None]:
    """Isolating intervals of the distinct roots of a in the open bracket (lo, hi), ascending.

    ``a`` is a primitive integer coefficient sequence.  With lo = s/D and
    hi = (s + w)/D, q(t) = D^d a((s + w t)/D) has the roots of a in (lo, hi)
    in (0, 1).  A piece lo + (hi - lo) [c/2^k, (c + 1)/2^k] is held as (b, k, c),
    b the integer Bernstein coefficients on (0, 1) of a polynomial with the
    piece's roots of a there; their sign variations bound the number of those
    roots and share its parity.  None drops the piece.  One keeps it when b_0
    and b_d, its end values, are nonzero, since refinement reads a zero at an
    end as the root.  More bisect it by :func:`_halves`.  The left half is
    searched first, and an exact root at a midpoint is yielded as (m, m)
    between the halves, so the intervals come in ascending order and a caller
    may stop after any of them.

    When ``bounded``, yields None and stops instead of bisecting a piece at
    depth DESCARTES_DEPTH_BITS + bit length of floor(hi - lo): a multiple
    root keeps two or more variations at every depth.
    """
    d, width = len(a) - 1, hi - lo
    den = lcm(lo.denominator, hi.denominator)
    s, w = int(lo * den), int(width * den)
    q = [x * den ** (d - i) for i, x in enumerate(a)]  # den^d a(u / den)
    for i in range(d if s else 0):  # its Taylor shift by s
        for j in range(d - 1, i - 1, -1):
            q[j] += s * q[j + 1]
    # q(t) = den^d a((s + w t) / den); (t + 1)^d q(1/(t + 1)) = sum C(d, i) b_i t^(d - i)
    v = _taylor_shift1([x * w**i for x, i in zip(reversed(q), range(d, -1, -1))])
    b = [x * factorial(i) * factorial(d - i) for i, x in enumerate(reversed(v))]  # d! b_i
    g = gcd(*b)
    b = [x // g for x in b]

    max_depth = DESCARTES_DEPTH_BITS + int(width).bit_length()
    stack: list[tuple[list[int] | None, int, int]] = [(b, 0, 0)]
    while stack:
        b, k, c = stack.pop()
        if b is None:  # an exact root at the midpoint of a bisected piece
            yield (lo + width * Fraction(c, 1 << k),) * 2
            continue
        signs = [x > 0 for x in b if x]
        variations = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
        if variations == 0:
            continue
        if variations == 1 and b[0] and b[-1]:
            yield (lo + width * Fraction(c, 1 << k), lo + width * Fraction(c + 1, 1 << k))
            continue
        if bounded and k == max_depth:
            yield None
            return
        left, right = _halves(b, d)
        stack.append((right, k + 1, 2 * c + 1))
        if right[0] == 0:
            stack.append((None, k + 1, 2 * c + 1))
        stack.append((left, k + 1, 2 * c))


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
    lo, hi = as_rational(interval[0]), as_rational(interval[1])
    width = as_rational(width)
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

    i, j = _refine_on_grid(lambda m: _horner_dyadic(a, m, k), i, vi, j, vj)
    return (Fraction(i, scale), Fraction(j, scale))


def _refine_on_grid(value: Callable[[int], int], i: int, vi: int, j: int, vj: int) -> tuple[int, int]:
    """The cell (m, m + 1) of the grid indices in [i, j] where ``value`` changes sign.

    ``value(m)`` is an exact integer with the sign of the function at index m,
    and vi = value(i), vj = value(j) have opposite signs, i < j.  Returns
    (m, m) instead at an index m where ``value`` is zero.  The search is the
    quadratic interval refinement of the module docstring; every step keeps
    opposite signs at i and j.
    """
    up = vi > 0
    n = 4
    while j - i > 1:
        # the secant guess, rounded to the grid and kept inside (i, j)
        num, den = (j - i) * vi, vi - vj
        if den < 0:
            num, den = -num, -den
        m = min(max(i + (2 * num + den) // (2 * den), i + 1), j - 1)
        w = max((j - i) // n, 1)
        vm = value(m)
        if not vm:
            return (m, m)
        # then the far end of a window of w cells beside it, on the root's side
        if (vm > 0) == up:
            i, vi, m = m, vm, m + w
        else:
            j, vj, m = m, vm, m - w
        if i < m < j:
            vm = value(m)
            if not vm:
                return (m, m)
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
        vm = value(m)
        if not vm:
            return (m, m)
        if (vm > 0) == up:
            i, vi = m, vm
        else:
            j, vj = m, vm
    return (i, j)


def __getattr__(name: str):
    # mpf_to_rational lives in oracle, the one module that makes an mpf;
    # perfbench/derive_reference.py still imports it from here
    if name == "mpf_to_rational":
        from .oracle import mpf_to_rational

        return mpf_to_rational
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
