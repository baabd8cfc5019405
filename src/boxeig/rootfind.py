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
searched left to right and handed on as they are found (:func:`real_roots`),
so a solver can stop the search once it holds the roots it asks for.  Each
piece is compared with the bracket ends as integers over its power-of-two
denominator, and cut at an end that it straddles; every other end is
dyadic, one Fraction is built per end handed on, and no Sturm chain is
built.  Near a multiple root the variations never drop below two, so a
depth limit stops the search, and it is run again, without one, on the
square-free part p / gcd(p, p'), the gcd being the last member of the Sturm
chain of p.  Refinement runs on the polynomial that isolation ran on, so it
builds no second chain.  Isolation refines nothing: a solver refines the
root its selection certifies, or those it leaves in contention
(``estimates.select_root``).  The same search, when it finds no root and
the ends are positive, certifies that a polynomial is positive on an
interval (:func:`positive_on`).

Refinement returns one cell of the dyadic grid m/2^k, 2^-k the first power
of two GUARD_BITS bits below the requested width: the cell that holds the
root, clipped to the isolating interval, or (r, r) for a root r on the grid.
So the cell for a wider width is read off it, with no evaluation
(:func:`coarsen`).  It searches the grid indices m and reads the exact
integer values V(m) = 2^(k deg) p(m/2^k), which the shift-Horner kernel of
``poly`` computes without a Fraction; an interval end off the grid takes one
general sign.
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

Floats steer refinement and exact signs decide it (Kobel, Rouillier &
Sagraloff, ISSAC 2016): a float Newton iteration (:func:`_float_guess`) hands
the loop a guess of the root's grid index g, an int, and the loop probes
g -/+ |g| 2^-GUESS_BITS first.  Floats only choose probe points; every end
kept has an exactly verified sign, so the cell is the one found unseeded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial, gcd, isqrt
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

# Refinement probes GUESS_BITS bits of its float guess g of the root's grid
# index: g -/+ |g| 2^-GUESS_BITS.  Float Newton is good to about 2^-50.
GUESS_BITS = 40

Interval = tuple[Fraction, Fraction]


def _sign_at(a: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial a at x = n/d (d > 0), read off d^deg a(n/d)."""
    value = _horner(a, x.numerator, x.denominator)
    return (value > 0) - (value < 0)


def _is_root(a: Sequence[int], x: Fraction) -> bool:
    """Whether x is a root of a; by the rational root theorem x = n/d in
    lowest terms can be one only if d | a[-1] and n | a[0]."""
    n, d = x.numerator, x.denominator
    if a[-1] % d or (n and a[0] % n):
        return False
    return not _horner(a, n, d)


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


def real_roots(p: RationalPoly, bracket: tuple) -> Iterator[Interval | None]:
    """The isolating intervals of :func:`isolate_real_roots` on p, lazily, as its first search finds them.

    That search is bounded: near a multiple root it yields None and stops,
    and only :func:`isolate_real_roots` runs the square-free fallback.  A
    zero p or an empty bracket is refused at once.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = as_rational(bracket[0]), as_rational(bracket[1])
    if lo >= hi:
        raise ValueError("bracket must satisfy lo < hi")
    return _roots(p.ints, lo, hi, True) if p.degree > 0 else iter(())


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
    cut there.  Its first ``limit`` items are those of :func:`real_roots`,
    unless that gives up before them.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    found = list(islice(real_roots(p, bracket), limit))
    if not found or found[-1] is not None:
        return p, tuple(found)
    return _square_free_roots(p, bracket, limit)


def _square_free_roots(p: RationalPoly, bracket: tuple, limit: int | None = None):
    """:func:`isolate_real_roots` once its bounded search gave up: unbounded, on the square-free part."""
    isolated = square_free_part(p)
    lo, hi = as_rational(bracket[0]), as_rational(bracket[1])
    return isolated, tuple(islice(_roots(isolated.ints, lo, hi, False), limit))


def positive_on(a: Sequence[int], lo, hi) -> bool:
    """Whether a is positive on the dyadic hull of [lo, hi]: at both ends, and no root between.

    The no-root test is a Descartes search (:func:`_descartes`) that yields
    nothing; False where it gives up.  ``a`` is an integer coefficient list,
    trailing zeros allowed.
    """
    left, right, e = _dyadic_hull(as_rational(lo), as_rational(hi))
    if _horner_dyadic(a, left, e) <= 0 or _horner_dyadic(a, right, e) <= 0:
        return False
    return next(_descartes(a, left, right, 1 << e, True), False) is False


def _dyadic_hull(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(lo, hi) rounded outward to the grid 2^g, 2^g <= (hi - lo) / 2^HULL_BITS < 2^(g+1).

    As integers (left, right, e) over one power of two: the hull is
    [left / 2^e, right / 2^e], e >= 0.
    """
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    num, den = c * b - a * d, b * d  # the width, unreduced
    g = num.bit_length() - den.bit_length()
    if den << max(g, 0) > num << max(-g, 0):
        g -= 1
    up, down = max(HULL_BITS - g, 0), max(g - HULL_BITS, 0)
    left, right = (a << up) // (b << down), -((-c << up) // (d << down))
    return left << down, right << down, up


def _roots(a: Sequence[int], lo: Fraction, hi: Fraction, bounded: bool) -> Iterator[Interval | None]:
    """Isolating intervals of the distinct roots of a in [lo, hi], ascending.

    (lo, lo) first and (hi, hi) last for a root at a bracket end.  Between
    them, the pieces of :func:`_descartes` on the dyadic hull of (lo, hi),
    compared with lo and hi on integers over the piece's power-of-two
    denominator, cut there, and kept after a cut when a changes sign across
    what is left; one Fraction per end.  None, last, where
    :func:`_descartes` gives up (see ``bounded``).
    """
    if _is_root(a, lo):
        yield lo, lo
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    s, t, e = _dyadic_hull(lo, hi)
    for piece in _descartes(a, s, t, 1 << e, bounded):
        if piece is None:
            yield None
            return
        x, y, k = piece
        f = e + k  # the piece is [x / 2^f, y / 2^f]
        if y * ld <= ln << f:
            continue
        if x * hd >= hn << f:
            break
        cut_lo, cut_hi = x * ld < ln << f, y * hd > hn << f
        left = lo if cut_lo else Fraction(x, 1 << f)
        right = hi if cut_hi else Fraction(y, 1 << f)
        if cut_lo or cut_hi:
            sl, sr = _sign_at(a, left), _sign_at(a, right)
            if not sl or not sr or sl == sr:
                continue
        yield left, right
    if _is_root(a, hi):
        yield hi, hi


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
    a: Sequence[int], left: int, right: int, den: int, bounded: bool
) -> Iterator[tuple[int, int, int] | None]:
    """Isolating intervals of the distinct roots of a in (left / den, right / den), ascending.

    ``a`` is an integer coefficient sequence, not all zero, and an interval
    is yielded as integers (l, r, k) over den 2^k: (l / (den 2^k), r / (den 2^k)).
    With s = left and w = right - left, q(t) = den^d a((s + w t) / den) has
    the roots of a in the bracket in (0, 1).  A piece
    [s 2^k + w c, s 2^k + w (c + 1)] / (den 2^k) is held as (b, k, c),
    b the integer Bernstein coefficients on (0, 1) of a polynomial with the
    piece's roots of a there; their sign variations bound the number of those
    roots and share its parity.  None drops the piece.  One keeps it when b_0
    and b_d, its end values, are nonzero, since refinement reads a zero at an
    end as the root.  More bisect it by :func:`_halves`.  The left half is
    searched first, and an exact root at a midpoint is yielded as (m, m, k)
    between the halves, so the intervals come in ascending order and a caller
    may stop after any of them.

    When ``bounded``, yields None and stops instead of bisecting a piece at
    depth DESCARTES_DEPTH_BITS + bit length of the bracket's width, rounded
    down: a multiple root keeps two or more variations at every depth.
    """
    d, s, w = len(a) - 1, left, right - left
    q = [x * den ** (d - i) for i, x in enumerate(a)]  # den^d a(u / den)
    for i in range(d if s else 0):  # its Taylor shift by s
        for j in range(d - 1, i - 1, -1):
            q[j] += s * q[j + 1]
    # q(t) = den^d a((s + w t) / den); (t + 1)^d q(1/(t + 1)) = sum C(d, i) b_i t^(d - i)
    v = _taylor_shift1([x * w**i for x, i in zip(reversed(q), range(d, -1, -1))])
    b = [x * factorial(i) * factorial(d - i) for i, x in enumerate(reversed(v))]  # d! b_i
    g = gcd(*b)
    b = [x // g for x in b]

    max_depth = DESCARTES_DEPTH_BITS + (w // den).bit_length()
    stack: list[tuple[list[int] | None, int, int]] = [(b, 0, 0)]
    while stack:
        b, k, c = stack.pop()
        m = (s << k) + w * c  # the piece's left end, over den 2^k
        if b is None:  # an exact root at the midpoint of a bisected piece
            yield m, m, k
            continue
        signs = [x > 0 for x in b if x]
        variations = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
        if variations == 0:
            continue
        if variations == 1 and b[0] and b[-1]:
            yield m, m + w, k
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
    on the grid indices, reading the exact integer values 2^(k deg) p(m/2^k),
    and seeded by a float guess (see the module docstring).
    """
    lo, hi = as_rational(interval[0]), as_rational(interval[1])
    width = as_rational(width)
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    a = p.ints
    k = _grid_bits(width)
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

    guess = _float_guess(a, k, i, vi, j, vj)
    i, j = _refine_on_grid(lambda m: _horner_dyadic(a, m, k), i, vi, j, vj, guess)
    return (Fraction(i, scale), Fraction(j, scale))


def coarsen(cell: Interval, interval: Interval, width) -> Interval:
    """``refine_enclosure(p, interval, width)``, read off ``cell``, what it returned at a width no larger.

    ``interval`` is nondegenerate.  The grid of ``width`` lies on cell's grid.
    """
    k = _grid_bits(as_rational(width))
    lo, hi = cell
    if lo == hi and not (1 << k) % lo.denominator:
        return cell
    m = (lo.numerator << k) // lo.denominator
    return max(Fraction(m, 1 << k), interval[0]), min(Fraction(m + 1, 1 << k), interval[1])


def _grid_bits(width: Fraction) -> int:
    """The smallest k with 2^k >= 2^GUARD_BITS / width: refinement's grid is m / 2^k."""
    return (-(-(width.denominator << GUARD_BITS) // width.numerator) - 1).bit_length()


def _float_guess(a: Sequence[int], k: int, i: int, vi: int, j: int, vj: int) -> int | None:
    """A grid index near the root of a between i and j (values vi, vj), or None.

    At most 30 Newton steps in floats on a shifted into float range, from
    the secant point, with bisection when a step leaves the bracket that the
    float signs keep.  None for a line, for a range too narrow for the
    guess's probes, and where a float overflows or is not finite.
    """
    if len(a) < 3 or j - i <= max(abs(i), abs(j)) >> (GUESS_BITS - 2):
        return None
    try:
        bits = max(map(int.bit_length, a))
        shift, scale = max(bits - 1000, 0), 2.0 ** -min(bits, 1000)
        f = [(c >> shift) * scale for c in reversed(a)]
        lo, hi, up = i / (1 << k), j / (1 << k), vi > 0
        x = lo + (hi - lo) * (vi / (vi - vj))
        for _ in range(30):
            v = dv = 0.0
            for c in f:
                dv = dv * x + v
                v = v * x + c
            lo, hi = (x, hi) if (v > 0) == up else (lo, x)
            step = v / dv if dv else hi - lo
            tol = abs(x) * 2.0**-48
            if abs(step) <= tol or hi - lo <= 64 * tol:
                break
            x -= step
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        num, den = x.as_integer_ratio()
    except (OverflowError, ValueError):  # a float out of range, inf or nan
        return None
    return (num << k) // den


def _refine_on_grid(
    value: Callable[[int], int], i: int, vi: int, j: int, vj: int, guess: int | None = None
) -> tuple[int, int]:
    """The cell (m, m + 1) of the grid indices in [i, j] where ``value`` changes sign.

    ``value(m)`` is an exact integer with the sign of the function at index m,
    and vi = value(i), vj = value(j) have opposite signs, i < j.  Returns
    (m, m) instead at an index m where ``value`` is zero.  The search is the
    quadratic interval refinement of the module docstring; every step keeps
    opposite signs at i and j, so a ``guess`` of the root's index changes
    only the probes.  When its two probes catch the root, the next window is
    as narrow, relative to the range, as theirs was.
    """
    up, n = vi > 0, 4
    if guess is not None:
        w, span = max(abs(guess) >> GUESS_BITS, 1), j - i
        for m in (guess - w, guess + w):
            if i < m < j:
                vm = value(m)
                if not vm:
                    return (m, m)
                if (vm > 0) == up:
                    i, vi = m, vm
                else:
                    j, vj = m, vm
        if j - i <= 2 * w:
            n = max(span // (j - i), 4)
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
