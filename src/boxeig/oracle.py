"""Independent high-precision benchmarks for the confined eigenproblem.

Two closed-form references and two numerical integrators live here:

* ``exact_box``: the empty box has eigenvalues (n+1)^2 pi^2.
* ``exact_linear``: for the ramp v = lam*q the eigenvalues are roots of a
  2x2 determinant of Airy functions evaluated at the walls.  A scan in
  pi^2/4 steps brackets the wanted root, certified regula falsi refines it,
  and bisection takes over only when the fast phase cannot certify.
* ``series_integrate``: a stepping Taylor-series integrator in extended
  precision, used to evaluate the eigencondition when the Airy arguments
  would leave the series' validated range.
* ``shoot``: a plain fixed-step RK4 integrator in ordinary floats, so the
  high-precision machinery can be checked against something that shares no
  code with it.

The Airy determinant is summed from the everywhere-convergent Maclaurin
series of the two solutions f and g of y'' = z y, with explicit guard
digits; asymptotic expansions are deliberately out of scope, which limits
the validated range to |z| <= 30 (``AIRY_Z_MAX``).

Both series kernels run in fixed point on Python ints, with 32 guard bits
(``_GUARD_BITS``) below the last bit they must resolve:

* the Airy Maclaurin sums are integers over 2^bits, where 2^bits is the
  first power of two above 10^(wp+5) times 2^32 (wp the working digits of
  the guard rule in :func:`_airy_working_digits`); terms are summed until
  they fall below 10^-(wp+5).
* the Taylor integrator holds the coefficients of its recurrence over
  2^(prec+32), prec the context's precision in bits, and the solution over
  a power of two that gives the initial (phi, h phi') prec+32 bits, so tiny
  or huge initial data keep their full relative precision.

mpmath contexts are built once per top-level call and passed explicitly;
values enter and leave the kernels through them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.ctx_mp import MPContext

from .estimates import default_bracket
from .model import PotentialSpec
from .poly import RationalPoly, exact_rational

AIRY_Z_MAX = 30.0
DEFAULT_DIGITS = 30
_SCAN_LIMIT = 200
# Regula falsi steps before bisection takes over.  Simple roots certify
# within 8 steps (measured for |lam| <= 200, states 0..3, up to 45 digits);
# a multiple root converges only linearly and is left to bisection.
_REFINE_LIMIT = 30

# Bits the fixed-point kernels keep below the last bit they must resolve.
_GUARD_BITS = 32

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


def _airy_working_digits(z, precision: int) -> int:
    """Digits the Maclaurin series needs at z for `precision` correct digits."""
    az = abs(float(z))
    guard = math.ceil(0.3 * az**1.5) + 10
    if float(z) > 0:
        # Ai decays while the series terms grow, doubling the cancellation.
        guard = 2 * math.ceil(0.3 * az**1.5) + 10
    return precision + guard


def _airy_series(z: int, bits: int, cutoff: int) -> tuple[int, int]:
    """Maclaurin sums (f, g) in fixed point.

    f and g solve y'' = z y with (f, f')(0) = (1, 0) and (g, g')(0) = (0, 1).
    Every integer here stands for itself times 2^-bits, z included.  Each
    series is a sum of terms t_(k+1) = t_k z^3 / ((3k+p)(3k+q)), with
    (p, q) = (2, 3) for f and (3, 4) for g; terms are added until both fall
    below cutoff.
    """
    z3 = z * z * z >> 2 * bits
    tf, tg = 1 << bits, z
    f, g = tf, tg
    for k in range(4000):
        tf = (tf * z3 >> bits) // ((3 * k + 2) * (3 * k + 3))
        tg = (tg * z3 >> bits) // ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
        if abs(tf) < cutoff and abs(tg) < cutoff:
            return f, g
    raise RuntimeError("Airy series failed to converge within the term budget")


def _airy_fixed(ctx: MPContext, z, wp: int) -> tuple[tuple[int, int], int]:
    """:func:`_airy_series` at the mpf z, resolved to 10^-(wp+5): ((f, g), bits)."""
    resolution = 10 ** (wp + 5)
    bits = resolution.bit_length() + _GUARD_BITS
    return _airy_series(int(ctx.ldexp(z, bits)), bits, (1 << bits) // resolution), bits


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

    The general solution is a combination of Airy functions of
    z = lam^(1/3) q - eps lam^(-2/3); vanishing at both walls makes the 2x2
    determinant G(eps) = Ai(z0) Bi(z1) - Ai(z1) Bi(z0) vanish.  Eigenvalues
    are located by scanning G from eps = 0 in steps of pi^2/4, then refined
    by Anderson-Bjorck regula falsi and certified by a sign change across a
    window of width 10^-(digits+4); bisection finishes the job when that
    certificate fails (see :func:`_scan_and_refine`).  A state whose lower
    bound (the box bound, or for lam > 0 the half-line bound |a_1| lam^(2/3))
    lies past the scan's end is refused with :class:`RootScanError` before
    any evaluation.

    When the scan would push |z| beyond the Airy series' validated range
    (small |lam|), the determinant condition is replaced by the equivalent
    wall condition phi(1; eps) = 0 evaluated with the extended-precision
    Taylor integrator, which has no such range limit.
    """
    lam = exact_rational(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero; use exact_box for the empty box")
    if state < 0:
        raise ValueError("state must be nonnegative")
    if digits < 2:
        raise ValueError("digits must be at least 2")

    ctx = _context(digits + 10)
    # eps_k >= min v + (k+1)^2 pi^2, so a state whose bound lies past the
    # scan's end can never be bracketed.
    bound = _to_mpf(ctx, min(lam, 0)) + (state + 1) ** 2 * ctx.pi**2
    if lam > 0:
        # Dirichlet eigenvalues on [0, 1] lie above those of lam*q on the
        # half-line [0, oo) (min-max), which are |a_(k+1)| lam^(2/3).
        half_line = -ctx.mpf(AIRY_AI_FIRST_ZERO) * ctx.cbrt(_to_mpf(ctx, lam)) ** 2
        bound = max(bound, half_line)
    scan_end = _SCAN_LIMIT * ctx.pi**2 / 4
    if bound > scan_end:
        raise RootScanError(
            f"state {state} is out of reach: its eigenvalue is at least "
            f"{ctx.nstr(bound, 6)}, beyond the scan's end {ctx.nstr(scan_end, 6)}"
        )
    lam_f = _to_mpf(ctx, lam)
    cbrt_abs = ctx.cbrt(abs(lam_f))
    lam13 = cbrt_abs if lam > 0 else -cbrt_abs  # real cube root
    lam_m23 = 1 / cbrt_abs**2  # (lam^(1/3))^(-2), positive either way

    airy_digits = digits + 5

    def determinant(eps):
        # With Ai = c1 f - c2 g and Bi = sqrt(3) (c1 f + c2 g), where
        # c1 = Ai(0) > 0 and c2 = -Ai'(0) > 0, the Airy determinant is
        # 2 sqrt(3) c1 c2 (f0 g1 - g0 f1).  The positive factor changes no
        # sign, no regula falsi iterate and no Anderson-Bjorck factor.
        z0 = -eps * lam_m23
        z1 = lam13 + z0
        if max(abs(z0), abs(z1)) > AIRY_Z_MAX:
            return None
        (f0, g0), bits0 = _airy_fixed(ctx, z0, _airy_working_digits(z0, airy_digits))
        (f1, g1), bits1 = _airy_fixed(ctx, z1, _airy_working_digits(z1, airy_digits))
        return ctx.ldexp(f0 * g1 - g0 * f1, -(bits0 + bits1))

    result = _scan_and_refine(determinant, ctx, state, digits)
    if result is not None:
        return result
    return _linear_by_ode(lam, ctx, state, digits)


def _scan_and_refine(func, ctx: MPContext, state: int, digits: int):
    """The (state+1)-th sign change of func on eps >= 0, to 10^-(digits+4).

    The scan walks from 0 in pi^2/4 steps until it has seen state+1 sign
    changes, which brackets the wanted root.  Anderson-Bjorck regula falsi
    then refines inside that bracket until a step moves the iterate c by
    less than half the target width, and c is certified by a sign change of
    func between c - target/2 and c + target/2: the same certificate as a
    bisection bracket of width target.  If the certificate fails or the
    iteration budget runs out, plain bisection finishes from the current
    bracket, which always holds a sign change.  Returns None as soon as
    func reports out-of-range (None value).
    """
    step = ctx.pi**2 / 4
    prev_x = ctx.mpf(0)
    prev_v = func(prev_x)
    if prev_v is None:
        return None
    changes = 0
    lo = hi = None
    for i in range(1, _SCAN_LIMIT + 1):
        x = i * step
        v = func(x)
        if v is None:
            return None
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
        if fc is None:
            return None
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
                if below is None or above is None:
                    return None
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
        if v is None:
            return None
        if v == 0:
            return mid
        if (v > 0) == (fa > 0):
            a, fa = mid, v
        else:
            b = mid
    return (a + b) / 2


def _linear_by_ode(lam: Fraction, ctx: MPContext, state: int, digits: int):
    """Wall condition phi(1; eps) = 0 via the Taylor integrator."""
    v = RationalPoly.from_coeffs([0, lam], "q")

    def wall_value(eps):
        y, _ = series_integrate(v, eps, 0, 1, 0, 1, ctx)
        return y

    result = _scan_and_refine(wall_value, ctx, state, digits)
    if result is None:  # pragma: no cover - wall_value never returns None
        raise RootScanError("taylor path failed")
    return result


# ----------------------------------------------------------------------
# extended-precision Taylor-series ODE integration of phi'' = (v(x) - eps) phi

def series_integrate(v: RationalPoly, eps, x0, x1, y0, yp0, ctx: MPContext):
    """Propagate (phi, phi') from x0 to x1 at the context's precision.

    Each step expands the solution in a local Taylor series whose
    coefficients follow from the differential equation; the order is sized
    so the truncation sits below the context's resolution.  The steps run in
    fixed point on Python ints (see the module docstring).
    """
    eps_f = _to_mpf(ctx, eps)
    x0f = _to_mpf(ctx, x0)
    x1f = _to_mpf(ctx, x1)
    y = _to_mpf(ctx, y0)
    yp = _to_mpf(ctx, yp0)
    if x0f == x1f:
        return y, yp
    vc = [_to_mpf(ctx, c) for c in v.coeffs]
    span = x1f - x0f
    vmax = sum(abs(c) for c in vc) * max(1, abs(x0f), abs(x1f)) ** max(v.degree, 0)
    # keep |eps - v| h^2 comfortably below 1 so the local series converges
    # like a cosine series
    scale = math.sqrt(float(abs(eps_f) + vmax) + 1.0)
    steps = max(8, int(2 * scale * abs(span)) + 1)
    order = max(24, int(1.2 * ctx.dps) + 16)
    h = span / steps
    p = yp * h
    if not y and not p:
        return y, yp

    # In the step variable s = t/h, phi(x + t) = sum_m b_m s^m with
    # b_m = a_m h^m, and phi'' = (v - eps) phi becomes
    # b_(m+2) = sum_k u_k b_(m-k) / ((m+1)(m+2)), where u_k is the s^k
    # coefficient of (v(x + h s) - eps) h^2.  The u_k are fixed point at
    # 2^-bits; the b_m are fixed point at 2^-shift, where shift gives the
    # initial (phi, h phi') about `bits` bits whatever their size.
    bits = ctx.prec + _GUARD_BITS

    def fixed(value):
        return int(ctx.ldexp(value, bits))

    hf = fixed(h)
    h2 = hf * hf >> bits
    eps_fixed = fixed(eps_f)
    coeffs = [fixed(c) for c in vc] or [0]
    shift = bits - ctx.mag(max(abs(y), abs(p)))
    y_fix, p_fix = int(ctx.ldexp(y, shift)), int(ctx.ldexp(p, shift))
    x = fixed(x0f)
    for _ in range(steps):
        w: list[int] = []
        for c in reversed(coeffs):
            # Horner step: w(s) <- w(s) (x + h s) + c
            new = [0] * (len(w) + 1)
            for i, a in enumerate(w):
                new[i] += a * x >> bits
                new[i + 1] += a * hf >> bits
            new[0] += c
            w = new
        w[0] -= eps_fixed
        u = [wk * h2 >> bits for wk in w]
        b = [y_fix, p_fix]
        for m in range(order - 1):
            s = 0
            for k, uk in enumerate(u[: m + 1]):
                s += uk * b[m - k]
            b.append((s >> bits) // ((m + 1) * (m + 2)))
        y_fix = sum(b)
        p_fix = sum(m * bm for m, bm in enumerate(b))
        x += hf
    return ctx.ldexp(y_fix, -shift), ctx.ldexp(p_fix, -shift) / h


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
