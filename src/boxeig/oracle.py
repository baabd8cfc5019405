"""Independent high-precision benchmarks for the confined eigenproblem.

Two high-precision references and a float integrator live here:

* ``exact_box``: the empty box has eigenvalues (n+1)^2 pi^2.
* ``exact_linear``: the ramp v = lam*q, the paper's exactly solvable
  model.  Its eigenvalues are the roots of the wall condition
  phi(1; eps) = 0, which equals pi (Ai(z0) Bi(z1) - Ai(z1) Bi(z0)) / lam^(1/3)
  but is summed here as the paper's own power series at N -> oo, one number
  per eps.  A scan in pi^2/4 steps brackets the wanted root, certified regula
  falsi refines it, and bisection takes over only when the fast phase cannot
  certify.
* ``shoot``: a plain fixed-step RK4 integrator in ordinary floats, so the
  high-precision machinery can be checked against something that shares no
  code with it.

The wall series runs in fixed point on Python ints (:func:`_ramp_wall`),
with 32 guard bits (``_GUARD_BITS``) below the context's precision and
log2(e) sqrt(|eps| + |lam|) more for the cancellation between its terms; it
has no range limit short of its bit budget (``_CANCELLATION_BITS``).

mpmath contexts are built once per top-level call and passed explicitly;
values enter and leave the kernel through them, and :func:`mpf_to_rational`
turns a result into an exact Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.ctx_mp import MPContext

from .estimates import default_bracket
from .model import PotentialSpec
from .poly import RationalPoly, exact_rational

DEFAULT_DIGITS = 30
_SCAN_LIMIT = 200
# Regula falsi steps before bisection takes over.  Simple roots certify
# within 8 steps (measured for |lam| <= 200, states 0..3, up to 45 digits);
# a multiple root converges only linearly and is left to bisection.
_REFINE_LIMIT = 30

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


def _context(digits: int) -> MPContext:
    ctx = MPContext()
    ctx.dps = digits
    return ctx


def _to_mpf(ctx: MPContext, x):
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / x.denominator
    return ctx.convert(x)


def mpf_to_rational(x) -> Fraction:
    """Exact Fraction equal to an mpmath float (sign * mantissa * 2**exp)."""
    sign, man, exp, _ = x._mpf_
    man = int(man)
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def exact_box(state: int = 0, digits: int = DEFAULT_DIGITS):
    """Eigenvalue (state+1)^2 pi^2 of the empty unit box, to `digits` digits."""
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
    the power series of the paper.  Eigenvalues are located by scanning
    phi(1; eps) from eps = 0 in steps of pi^2/4, then refined by
    Anderson-Bjorck regula falsi and certified by a sign change across a
    window of width 10^-(digits+4); bisection finishes the job when that
    certificate fails (see :func:`_scan_and_refine`).  Refused with
    :class:`RootScanError` before any evaluation: a state whose lower bound
    (the box bound, or for lam > 0 the half-line bound |a_1| lam^(2/3)) lies
    past the scan's end, and a coupling so strong that the series would need
    more than ``_CANCELLATION_BITS`` bits for cancellation inside the scan.
    """
    lam = exact_rational(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero; use exact_box for the empty box")
    if state < 0:
        raise ValueError("state must be nonnegative")
    if digits < 2:
        raise ValueError("digits must be at least 2")

    ctx = _context(digits + 10)
    lam_f = _to_mpf(ctx, lam)
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

    lam_abs = float(abs(lam))

    def wall_value(eps):
        # the context's bits and the guard bits, plus the cancellation bits
        bits = ctx.prec + _GUARD_BITS + math.ceil(_LOG2_E * math.sqrt(abs(float(eps)) + lam_abs))
        fixed_lam = (lam.numerator << bits) // lam.denominator
        return ctx.ldexp(_ramp_wall(fixed_lam, int(ctx.ldexp(eps, bits)), bits), -bits)

    return _scan_and_refine(wall_value, ctx, state, digits)


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


def _scan_and_refine(func, ctx: MPContext, state: int, digits: int):
    """The (state+1)-th sign change of func on eps >= 0, to 10^-(digits+4).

    The scan walks from 0 in pi^2/4 steps until it has seen state+1 sign
    changes, which brackets the wanted root.  Anderson-Bjorck regula falsi
    then refines inside that bracket until a step moves the iterate c by
    less than half the target width, and c is certified by a sign change of
    func between c - target/2 and c + target/2: the same certificate as a
    bisection bracket of width target.  If the certificate fails or the
    iteration budget runs out, plain bisection finishes from the current
    bracket, which always holds a sign change.
    """
    step = ctx.pi**2 / 4
    prev_x = ctx.mpf(0)
    prev_v = func(prev_x)
    changes = 0
    lo = hi = None
    for i in range(1, _SCAN_LIMIT + 1):
        x = i * step
        v = func(x)
        if v == 0 or (v > 0) != (prev_v > 0):
            changes += 1
            if changes == state + 1:
                lo, hi = prev_x, x
                flo, fhi = prev_v, v
                break
        prev_x, prev_v = x, v
    if lo is None:
        raise RootScanError(
            f"no {state + 1}-th sign change within {_SCAN_LIMIT} scan steps"
        )
    target = ctx.mpf(10) ** (-(digits + 4))
    half = target / 2

    # Fast phase: Anderson-Bjorck regula falsi.  b is the newest iterate
    # and a the other end of the bracket; while a is retained its value is
    # scaled down, which keeps its sign, so func(a) and func(b) always differ
    # in sign.
    a, fa, b, fb = lo, flo, hi, fhi
    prev_c = None
    for _ in range(_REFINE_LIMIT):
        c = b - fb * (b - a) / (fb - fa)
        fc = func(c)
        if fc == 0:
            return c
        if (fc > 0) == (fb > 0):
            m = 1 - fc / fb
            fa *= m if m > 0 else ctx.mpf(1) / 2
        else:
            a, fa = b, fb
        b, fb = c, fc
        if prev_c is not None and abs(c - prev_c) < half:
            if lo <= c - half and c + half <= hi:
                below, above = func(c - half), func(c + half)
                if below == 0:
                    return c - half
                if above == 0:
                    return c + half
                if (below > 0) != (above > 0):
                    return c
            break
        prev_c = c

    # Trusted fallback: bisection on signs, from the current bracket.
    while abs(b - a) > target:
        mid = (a + b) / 2
        v = func(mid)
        if v == 0:
            return mid
        if (v > 0) == (fa > 0):
            a, fa = mid, v
        else:
            b = mid
    return (a + b) / 2


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
