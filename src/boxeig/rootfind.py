"""Certified real-root location for polynomials with rational coefficients.

The counting layer is exact: a Sturm sequence is built as an integer
primitive pseudo-remainder sequence (the denominators are cleared once, and
every pseudo-remainder is divided by its content), so sign-variation counts
(and hence root counts on half-open intervals) carry no rounding error.
Isolation bisects the requested bracket until each piece holds at most one
distinct root; it refines nothing, so a solver certifies only the root it
picks.

Refinement is a hybrid: a fast Newton/bisection loop in extended-precision
floating point proposes a root, and the result is certified by evaluating the
polynomial exactly at the two endpoints of a rational enclosure of width at
most twice the requested tolerance.  If certification fails the code falls
back to pure rational bisection, so the returned enclosure is always trusted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from mpmath.ctx_mp import MPContext

from .poly import (
    RationalPoly,
    _from_ints,
    _int_content,
    _int_prem,
    _primitive_ints,
    as_rational,
)

logger = logging.getLogger(__name__)

DEFAULT_TOL = Fraction(1, 10**13)

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class RootReport:
    """Isolating intervals of the distinct real roots in a bracket.

    ``roots`` refines every root to within ``refined_to`` and attaches its
    multiplicity; that work is done only when ``roots`` is first read.
    """

    bracket: Interval
    isolator_intervals: tuple[Interval, ...]
    poly: RationalPoly = field(repr=False, compare=False)
    tol: Fraction = field(repr=False, compare=False)

    @property
    def refined_to(self) -> float:
        return float(self.tol)

    @cached_property
    def roots(self) -> tuple[tuple[float, int], ...]:
        """(value, multiplicity) per isolating interval, ascending."""
        mults = _multiplicities(self.poly, self.isolator_intervals)
        out = []
        for (a, b), m in zip(self.isolator_intervals, mults):
            lo, hi = certified_root(self.poly, (a, b), 2 * self.tol)
            out.append((float((lo + hi) / 2), m))
        return tuple(out)


def _sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sturm_sequence(p: RationalPoly) -> list[RationalPoly]:
    """Signed remainder sequence of (p, p'), primitive-reduced at every step.

    The chain is built on integer coefficients: each member after p' is the
    pseudo-remainder lc(b)^(delta+1) a mod b of the two before it, divided
    by its content, with its sign chosen so that it is a positive multiple
    of -(a mod b).
    """
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    chain = [_primitive_ints(p)]
    d = p.differentiate()
    if not d.is_zero:
        chain.append(_primitive_ints(d))
        while True:
            a, b = chain[-2], chain[-1]
            r = _int_prem(a, b)
            if not r:
                break
            # r is lc(b)^(delta+1) times a mod b, and the member is -(a mod b)
            # made primitive: divide by -content unless that factor is negative
            g = _int_content(r)
            if b[-1] > 0 or (len(a) - len(b)) % 2:
                g = -g
            chain.append([c // g for c in r])
    return [_from_ints(c, p.var) for c in chain]


def _counting_chain(p: RationalPoly) -> list[RationalPoly]:
    """Sturm chain of p divided through by its last member, gcd(p, p').

    Every member of p's own chain vanishes at a multiple root of p, so sign
    variations there would count nothing; the divided chain is the chain of
    the square-free part and counts distinct roots at every point.
    """
    chain = sturm_sequence(p)
    g = chain[-1]
    if g.degree < 1:
        return chain
    return [q.divexact(g) for q in chain]


def sign_variations(chain: Sequence[RationalPoly], x: Fraction) -> int:
    """Number of sign changes in the chain evaluated at x (zeros skipped)."""
    signs = [s for s in (_sign(p.eval(x)) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: RationalPoly, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    lo, hi = as_rational(_exactify(lo)), as_rational(_exactify(hi))
    if lo >= hi:
        raise ValueError("empty interval")
    chain = _counting_chain(p)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic-free gcd (primitive, positive leading coefficient)."""
    if a.is_zero:
        return b.primitive_part()
    a = a.primitive_part()
    b = b.primitive_part()
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, (r.primitive_part() if not r.is_zero else RationalPoly.zero(a.var))
    if a.leading < 0:
        a = -a
    return a


def square_free_decomposition(p: RationalPoly) -> list[RationalPoly]:
    """Yun's algorithm: [a_1, a_2, ...] with p = c * a_1 * a_2^2 * a_3^3 ...

    The a_m are square-free and pairwise coprime; a_m is constant when p has
    no root of multiplicity exactly m.  A square-free p costs one gcd.
    """
    if p.degree < 1:
        return []
    d = p.differentiate()
    g = poly_gcd(p, d)
    b = p.divexact(g)
    c = d.divexact(g) - b.differentiate()
    factors = []
    while b.degree >= 1:
        a = poly_gcd(b, c)
        b = b.divexact(a)
        c = c.divexact(a) - b.differentiate()
        factors.append(a)
    return factors


def _multiplicities(p: RationalPoly, intervals: Sequence[Interval]) -> list[int]:
    """Multiplicity of the root in each isolating interval of p.

    One square-free decomposition serves every root: the root in (a, b] has
    multiplicity m when the factor a_m has a root there.
    """
    factors = [
        (m, f) for m, f in enumerate(square_free_decomposition(p), 1) if f.degree >= 1
    ]
    if len(factors) == 1:
        return [factors[0][0]] * len(intervals)
    chains = {m: sturm_sequence(f) for m, f in factors}

    def holds_root(m: int, f: RationalPoly, a: Fraction, b: Fraction) -> bool:
        if a == b:
            return f.eval(a) == 0
        return sign_variations(chains[m], a) > sign_variations(chains[m], b)

    return [next(m for m, f in factors if holds_root(m, f, a, b)) for a, b in intervals]


def square_free_part(p: RationalPoly) -> RationalPoly:
    """p with repeated factors collapsed to multiplicity one."""
    d = p.differentiate()
    if d.is_zero:
        return p.primitive_part()
    g = poly_gcd(p, d)
    if g.degree <= 0:
        return p.primitive_part()
    return p.divexact(g).primitive_part()


def _exactify(x) -> Fraction:
    """Exact rational image of an int/Fraction/float/str bound."""
    if isinstance(x, float):
        return Fraction(x)
    return as_rational(x)


def isolate_real_roots(
    p: RationalPoly,
    bracket: tuple,
    tol=DEFAULT_TOL,
) -> RootReport:
    """Isolating intervals for every distinct real root of p in the bracket.

    Roots landing exactly on a bracket endpoint are reported as inside.  The
    intervals are ascending; p is nonzero at both ends of each, except for
    degenerate intervals (r, r) at exact rational roots r.  ``tol`` only
    sets the accuracy of the report's lazily computed ``roots``.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = _exactify(bracket[0]), _exactify(bracket[1])
    if lo >= hi:
        raise ValueError("bracket must satisfy lo < hi")
    tol = _exactify(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    intervals: list[Interval] = []
    if p.degree >= 1:
        chain = _counting_chain(p)
        if p.eval(lo) == 0:
            intervals.append((lo, lo))
        _split(p, chain, lo, hi, sign_variations(chain, lo), sign_variations(chain, hi), intervals)
    intervals.sort(key=lambda iv: (iv[0], iv[1]))
    return RootReport(bracket=(lo, hi), isolator_intervals=tuple(intervals), poly=p, tol=tol)


def _split(
    p: RationalPoly,
    chain: Sequence[RationalPoly],
    lo: Fraction,
    hi: Fraction,
    vlo: int,
    vhi: int,
    out: list[Interval],
) -> None:
    """Recursive bisection until each piece holds at most one distinct root.

    A one-root piece whose excluded end lo is itself a root (reported by
    the piece to its left) is bisected on, so that refinement, which reads
    a zero at an endpoint as the root, cannot return lo for it.
    """
    count = vlo - vhi  # roots in (lo, hi]
    if count <= 0:
        return
    if count == 1:
        if p.eval(hi) == 0:
            out.append((hi, hi))
            return
        if p.eval(lo) != 0:
            out.append((lo, hi))
            return
    mid = (lo + hi) / 2
    vmid = sign_variations(chain, mid)
    _split(p, chain, lo, mid, vlo, vmid, out)
    _split(p, chain, mid, hi, vmid, vhi, out)


def mpf_to_rational(x) -> Fraction:
    """Exact Fraction equal to an mpmath float (sign * mantissa * 2**exp)."""
    sign, man, exp, _ = x._mpf_
    man = int(man)
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def _horner(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class _NoSignChange(ValueError):
    """p has the same nonzero sign at both ends of the interval."""


def refine_enclosure(p: RationalPoly, interval: tuple, width) -> Interval:
    """Shrink an isolating interval to a certified enclosure of width <= width.

    Requires an exact sign change (or an exact root at an endpoint, which is
    returned degenerately).  The endpoints of the result carry exactly
    verified opposite signs of p.
    """
    lo, hi = _exactify(interval[0]), _exactify(interval[1])
    width = _exactify(width)
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    slo = _sign(p.eval(lo))
    shi = _sign(p.eval(hi))
    if slo == 0:
        return (lo, lo)
    if shi == 0:
        return (hi, hi)
    if slo == shi:
        raise _NoSignChange("interval endpoints do not bracket a sign change")

    # Fast phase: Newton/bisection in extended precision, inside the bracket.
    digits = max(20, _digits_needed(width) + 10)
    guess = _float_phase(p, lo, hi, slo, digits)
    if guess is not None:
        half = width / 2
        a = guess - half
        b = guess + half
        if lo < a and b < hi:
            sa = _sign(p.eval(a))
            if sa == 0:
                return (a, a)
            sb = _sign(p.eval(b))
            if sb == 0:
                return (b, b)
            if sa == slo and sb == shi:
                return (a, b)
        logger.debug("floating-point phase not certified; falling back to bisection")

    # Trusted fallback: pure rational bisection on exact signs.
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = _sign(p.eval(mid))
        if sm == 0:
            return (mid, mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def _digits_needed(width: Fraction) -> int:
    d = 1
    scale = Fraction(1, 10)
    while scale > width and d < 1000:
        d += 1
        scale /= 10
    return d


def _float_phase(p: RationalPoly, lo: Fraction, hi: Fraction, slo: int, digits: int):
    """Newton with bisection safeguarding at `digits` decimals; None on failure."""
    ctx = MPContext()
    ctx.dps = digits
    coeffs = [ctx.mpf(c.numerator) / c.denominator for c in p.coeffs]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    a = ctx.mpf(lo.numerator) / lo.denominator
    b = ctx.mpf(hi.numerator) / hi.denominator
    x = (a + b) / 2
    target = ctx.mpf(10) ** (-digits + 4)
    for _ in range(200):
        if b - a < target:
            break
        fx = _horner(coeffs, x)
        if fx == 0:
            break
        if (fx > 0) == (slo > 0):
            a = x
        else:
            b = x
        dfx = _horner(dcoeffs, x)
        if dfx != 0:
            nx = x - fx / dfx
            if a < nx < b:
                x = nx
                continue
        x = (a + b) / 2
    return mpf_to_rational(x)


def certified_root(p: RationalPoly, interval: Interval, width) -> Interval:
    """Certified enclosure of width <= width for the root in an isolating interval.

    Degenerate intervals at exact rational roots pass through; intervals
    whose endpoints have equal signs (even-multiplicity roots) are retried on
    the square-free part, which shares the root but crosses zero there.
    Raises ValueError when neither vanishes or crosses zero in the interval.
    """
    try:
        return refine_enclosure(p, interval, width)
    except _NoSignChange:
        logger.debug("refining an even-multiplicity root via the square-free part")
        return refine_enclosure(square_free_part(p), interval, width)


def refine(p: RationalPoly, interval: tuple, tol=DEFAULT_TOL) -> float:
    """Refine the single root in the interval to within tol (absolute).

    The midpoint of :func:`certified_root`'s enclosure of width 2*tol.
    """
    tol = _exactify(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    a, b = certified_root(p, (_exactify(interval[0]), _exactify(interval[1])), 2 * tol)
    return float((a + b) / 2)
