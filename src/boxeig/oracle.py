"""Independent high-precision benchmarks for the confined eigenproblem.

Two high-precision references and a float integrator live here:

* ``exact_box``: the empty box has eigenvalues (n+1)^2 pi^2.
* ``exact_linear``: the ramp v = lam*q, the paper's exactly solvable
  model.  Its eigenvalues are the roots of the wall condition
  phi(1; eps) = 0, which equals pi (Ai(z0) Bi(z1) - Ai(z1) Bi(z0)) / lam^(1/3)
  but is summed here as the paper's own power series at N -> oo, one number
  per eps.  The search runs on the grid eps = m 2^-k: a scan in steps of
  about pi^2/4 brackets the wanted root, and the quadratic interval
  refinement of :mod:`boxeig.rootfind` shrinks the bracket to one cell.
* ``shoot``: a plain fixed-step RK4 integrator in ordinary floats, so the
  high-precision machinery can be checked against something that shares no
  code with it.

The wall series runs in fixed point on Python ints (:func:`_ramp_wall`),
with 32 guard bits (``_GUARD_BITS``) below the context's precision and
log2(e) sqrt(|eps| + |lam|) more for the cancellation between its terms; it
has no range limit short of its bit budget (``_CANCELLATION_BITS``).

mpmath is imported only when an oracle first runs, so the package and every
command without ``exact`` load without it.  :func:`_context` keeps one
mpmath context per working precision, in a small bounded cache, and never
changes a context's precision once built.  The contexts give pi, the refusal
bounds and the returned mpf; the search itself reads only the kernel's
integers, and :func:`mpf_to_rational` turns a result into an exact Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .estimates import default_bracket
from .model import PotentialSpec
from .poly import RationalPoly, as_rational
from .rootfind import _refine_on_grid

if TYPE_CHECKING:
    from mpmath.ctx_mp import MPContext

DEFAULT_DIGITS = 30
_SCAN_LIMIT = 200

# Bits the wall kernel keeps below the last bit it must resolve.
_GUARD_BITS = 32
_LOG2_E = 1.4426950408889634
# Most bits the wall kernel may keep for cancellation, log2(e) sqrt(|eps| + |lam|)
# at the scan's end: this admits every |lam| up to about 8 10^6 and refuses a
# stronger coupling before it asks for astronomically long integers.
_CANCELLATION_BITS = 4096

# a_1, the first zero of Ai, truncated toward zero at 40 digits so that
# |a_1| lam^(2/3) stays a lower bound; the test suite checks it against mpmath.
AIRY_AI_FIRST_ZERO = "-2.338107410459767038489197252446735440638"


class RootScanError(RuntimeError):
    """The eigencondition scan exhausted its step budget without bracketing."""


# a few precisions cover every caller; the bound only keeps odd ones from piling up
@lru_cache(maxsize=8)
def _context(digits: int) -> MPContext:
    """The shared mpmath context at ``digits`` digits; its dps must never change.

    The mpf values an oracle returns belong to this context, so a change of
    its precision would change how they compute.
    """
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = digits
    return ctx


def mpf_to_rational(x) -> Fraction:
    """Exact Fraction equal to an mpmath float (sign * mantissa * 2**exp)."""
    sign, man, exp, _ = x._mpf_
    man = int(man)
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def exact_box(state: int = 0, digits: int = DEFAULT_DIGITS):
    """Eigenvalue (state+1)^2 pi^2 of the empty unit box, to `digits` digits.

    The mpf shares the cached context of its precision (see :func:`_context`):
    do not change that context's precision.
    """
    if state < 0:
        raise ValueError("state must be nonnegative")
    if digits < 2:
        raise ValueError("digits must be at least 2")
    ctx = _context(digits + 5)
    return (state + 1) ** 2 * ctx.pi**2


def exact_linear(lam, state: int = 0, digits: int = DEFAULT_DIGITS):
    """Eigenvalue of -phi'' + lam q phi = eps phi on [0,1], walls at 0 and 1.

    The eigenvalues are the roots of the wall condition phi(1; eps) = 0,
    where phi solves the equation with phi(0) = 0 and phi'(0) = 1; in Airy
    functions, phi(1; eps) = pi (Ai(z0) Bi(z1) - Ai(z1) Bi(z0)) / lam^(1/3)
    with z = lam^(1/3) q - eps lam^(-2/3).  :func:`_ramp_wall` sums it as
    the power series of the paper, at the grid points eps = m 2^-k only,
    2^-k the first power of two not above 10^-(digits+4).  The scan walks
    from eps = 0 in steps of floor(2^k pi^2/4) grid cells, and the quadratic
    interval refinement shrinks the bracket it finds to the one cell whose
    ends carry opposite signs (see :func:`_scan_grid`); the result is that
    cell's midpoint, within 10^-(digits+4) of the root.  Refused with
    :class:`RootScanError` before any evaluation: a state whose lower bound
    (the box bound, or for lam > 0 the half-line bound |a_1| lam^(2/3)) lies
    past the scan's end, and a coupling so strong that the series would need
    more than ``_CANCELLATION_BITS`` bits for cancellation inside the scan.
    The mpf shares the cached context of its precision (see :func:`_context`):
    do not change that context's precision.
    """
    lam = as_rational(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero; use exact_box for the empty box")
    if state < 0:
        raise ValueError("state must be nonnegative")
    if digits < 2:
        raise ValueError("digits must be at least 2")

    ctx = _context(digits + 10)
    lam_f = ctx.mpf(lam.numerator) / lam.denominator
    # eps_k >= min v + (k+1)^2 pi^2, so a state whose bound lies past the
    # scan's end can never be bracketed.
    bound = min(lam_f, 0) + (state + 1) ** 2 * ctx.pi**2
    if lam > 0:
        # Dirichlet eigenvalues on [0, 1] lie above those of lam*q on the
        # half-line [0, oo) (min-max), which are |a_(k+1)| lam^(2/3).
        half_line = -ctx.mpf(AIRY_AI_FIRST_ZERO) * ctx.cbrt(lam_f) ** 2
        bound = max(bound, half_line)
    scan_end = _SCAN_LIMIT * ctx.pi**2 / 4
    if bound > scan_end:
        raise RootScanError(
            f"state {state} is out of reach: its eigenvalue is at least "
            f"{ctx.nstr(bound, 6)}, beyond the scan's end {ctx.nstr(scan_end, 6)}"
        )
    need = _LOG2_E * ctx.sqrt(abs(lam_f) + scan_end)
    if need > _CANCELLATION_BITS:
        raise RootScanError(
            f"lam = {ctx.nstr(lam_f, 6)} is out of reach: its wall series needs "
            f"{ctx.nstr(need, 6)} bits for cancellation inside the scan, beyond "
            f"the budget of {_CANCELLATION_BITS}"
        )

    # the grid m / 2^k, 2^-k the first power of two not above 10^-(digits+4)
    k = (10 ** (digits + 4) - 1).bit_length()
    lam_abs = float(abs(lam))

    def value(m: int) -> int:
        # the context's bits and the guard bits, plus the cancellation bits
        bits = ctx.prec + _GUARD_BITS + math.ceil(_LOG2_E * math.sqrt(m / (1 << k) + lam_abs))
        fixed_lam = (lam.numerator << bits) // lam.denominator
        return _ramp_wall(fixed_lam, m << (bits - k), bits)

    lo, hi = _scan_grid(value, int(ctx.ldexp(ctx.pi**2 / 4, k)), state)
    return ctx.ldexp(lo + hi, -(k + 1))


def _ramp_wall(lam: int, eps: int, bits: int) -> int:
    """2^bits phi(1; eps) for phi'' = (lam q - eps) phi, phi(0) = 0, phi'(0) = 1.

    lam and eps are fixed point: integers standing for themselves times
    2^-bits.  phi(1) is the sum of the c_j, with c_1 = 1 and
    c_j = (lam c_(j-3) - eps c_(j-2)) / (j (j-1)): the recurrence of
    :func:`boxeig.series.build_series` for v = lam q, run on numbers.  Each
    c_j is floored once to the grid 2^-bits.

    Why the caller's bits suffice.  Let M = |eps| + |lam|, so |v - eps| <= M
    on [0, 1].  The floor at step j makes the summed polynomial solve the
    equation with an added source of integral under j units over [0, 1].
    Comparison with y'' = M y bounds the effect of a unit source on phi(1)
    by sinh(sqrt M)/sqrt M < cosh(sqrt M): each step's floor error grows at
    most like cosh sqrt(M) < e^sqrt(M), and the J steps add under J^2/2 of
    them, which the guard bits absorb while J < 2^16.  The terms themselves
    reach that size while phi(1) may be of order one, so the
    log2(e) sqrt(M) bits above the context's precision and the guard bits
    hold both the error growth and the cancellation.  Flooring lam and eps
    to the grid moves every eigenvalue (|d eps_k / d lam| = <q> <= 1) and
    the point of evaluation by under one unit.

    Why it may stop.  Once j > 2 sqrt(M), every later term is at most
    r = M/(j (j+1)) < 1/4 times the largest of the three before it, so the
    tail after three terms within one unit is at most 3 r/(1 - r) < 1 unit.
    """
    first = math.isqrt(4 * (abs(lam) + abs(eps)) >> bits) + 1  # the first j > 2 sqrt(M)
    c3, c2, c1 = 0, 0, 1 << bits  # c_(j-3), c_(j-2), c_(j-1) at j = 2
    total = c1
    j = 2
    while True:
        c = ((lam * c3 - eps * c2) >> bits) // (j * (j - 1))  # one floor, in two steps
        total += c
        c3, c2, c1 = c2, c1, c
        if j >= first and -1 <= c <= 1 and -1 <= c2 <= 1 and -1 <= c3 <= 1:
            return total
        j += 1


def _scan_grid(value, step: int, state: int) -> tuple[int, int]:
    """The grid cell that holds the (state+1)-th sign change of value on m >= 0.

    ``value(m)`` is an exact integer with the sign of the eigencondition at
    grid index m.  The scan walks 0, step, 2 step, ... until it has seen
    state+1 sign changes, which brackets the wanted root, and the quadratic
    interval refinement of :mod:`boxeig.rootfind` shrinks that bracket to one
    cell (m, m + 1), or to (m, m) at an index where value is zero.
    """
    prev = value(0)
    changes = 0
    for m in range(step, (_SCAN_LIMIT + 1) * step, step):
        v = value(m)
        if v == 0 or (v > 0) != (prev > 0):
            changes += 1
            if changes == state + 1:
                return (m, m) if v == 0 else _refine_on_grid(value, m - step, prev, m, v)
        prev = v
    raise RootScanError(f"no {state + 1}-th sign change within {_SCAN_LIMIT} scan steps")


# ----------------------------------------------------------------------
# floating-point shooting integrator (independent of everything above)

def _potential_floats(potential) -> list[float]:
    if isinstance(potential, PotentialSpec):
        poly = potential.v
    elif isinstance(potential, RationalPoly):
        poly = potential
    else:
        raise TypeError("potential must be a PotentialSpec or RationalPoly")
    return [float(c) for c in poly.coeffs]


def shoot(potential, eps: float, steps: int = 10000) -> float:
    """phi(1) from RK4 integration of phi'' = (v - eps) phi, phi'(0) = 1."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    vc = _potential_floats(potential)
    eps = float(eps)

    def vq(q: float) -> float:
        acc = 0.0
        for c in reversed(vc):
            acc = acc * q + c
        return acc

    h = 1.0 / steps
    y, yp, q = 0.0, 1.0, 0.0
    for _ in range(steps):
        a1 = (vq(q) - eps) * y
        vmid = vq(q + h / 2)
        y2 = y + h / 2 * yp
        a2 = (vmid - eps) * y2
        y3 = y + h / 2 * (yp + h / 2 * a1)
        a3 = (vmid - eps) * y3
        y4 = y + h * (yp + h / 2 * a2)
        a4 = (vq(q + h) - eps) * y4
        ynew = y + h * yp + h * h / 6 * (a1 + a2 + a3)
        yp = yp + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        y = ynew
        q += h
    return y


def shoot_root(potential, bracket=None, state: int = 0, steps: int = 10000) -> float:
    """Eigenvalue as a root of eps -> shoot(potential, eps), by scan + bisection.

    A final Richardson step on the roots at h and h/2 removes the leading
    O(h^4) discretization bias.
    """
    if bracket is None:
        spec = (
            potential
            if isinstance(potential, PotentialSpec)
            else PotentialSpec.general(potential)
        )
        lo, hi = default_bracket(spec, state)
        bracket = (float(lo), float(hi))

    def root_at(n_steps: int) -> float:
        f = lambda e: shoot(potential, e, n_steps)
        lo, hi = _scan_float(f, bracket, state)
        flo = f(lo)
        for _ in range(200):
            if hi - lo < 1e-13 * max(1.0, abs(hi)):
                break
            mid = (lo + hi) / 2
            fm = f(mid)
            if fm == 0.0:
                return mid
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2

    r_fine = root_at(steps)
    r_coarse = root_at(steps // 2)
    return r_fine + (r_fine - r_coarse) / 15


def _scan_float(f, bracket, state: int) -> tuple[float, float]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"shooting bracket must be finite with lo < hi, got {bracket}")
    step = math.pi**2 / 4
    n = max(4, int((hi - lo) / step) + 1)
    prev_x, prev_v = lo, f(lo)
    changes = 0
    for i in range(1, n + 1):
        x = min(lo + i * step, hi)
        v = f(x)
        if v == 0 or (v > 0) != (prev_v > 0):
            changes += 1
            if changes == state + 1:
                return prev_x, x
        prev_x, prev_v = x, v
        if x >= hi:
            break
    raise RootScanError(
        f"no {state + 1}-th sign change of the shooting function in {bracket}"
    )
