"""Independent high-precision benchmarks for the confined eigenproblem.

Two closed-form references and two numerical integrators live here:

* ``exact_box``: the empty box has eigenvalues (n+1)^2 pi^2.
* ``exact_linear``: for the ramp v = lam*q the eigenvalues are roots of a
  2x2 determinant of Airy functions evaluated at the walls.  A scan in
  pi^2/4 steps brackets the wanted root, certified regula falsi refines it,
  and bisection takes over only when the fast phase cannot certify.
* ``series_integrate``: a stepping Taylor-series integrator in extended
  precision, used to evaluate the eigencondition when the Airy arguments
  would leave the series evaluator's validated range, and as a second,
  structurally different route to Airy values in the test suite.
* ``shoot``: a plain fixed-step RK4 integrator in ordinary floats, so the
  high-precision machinery can be checked against something that shares no
  code with it.

Airy functions are evaluated from their everywhere-convergent Maclaurin
series with explicit guard digits; asymptotic expansions are deliberately
out of scope, which limits the validated range to |z| <= 30.  All extended
precision arithmetic happens in per-call mpmath contexts passed explicitly,
so concurrent evaluations at different precisions cannot interfere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext

from .model import PotentialSpec
from .poly import RationalPoly, as_rational

AIRY_Z_MAX = 30.0
DEFAULT_DIGITS = 30
_SCAN_LIMIT = 200
# Regula falsi steps before bisection takes over.  Simple roots certify
# within 8 steps (measured for |lam| <= 200, states 0..3, up to 45 digits);
# a multiple root converges only linearly and is left to bisection.
_REFINE_LIMIT = 30

# Gamma(1/3) and Gamma(2/3), frozen at 200+ digits.  Derived once with
# spouge_gamma below (rigorous error bound); the test suite re-derives them
# and the Wronskian identity keeps them honest at every use site.
GAMMA_ONE_THIRD = (
    "2.67893853470774763365569294097467764412868937795730110095042832759041"
    "7610167743819540982889041188789419159049200072263335719084569504472259"
    "977713367708469768167289823050003218342550322247156941817555449953"
)
GAMMA_TWO_THIRDS = (
    "1.35411793942640041694528802815451378551932726605679369839402246796378"
    "2965401742541675834147952972911106434823610033058854142261552586211826"
    "607191148114322833434155915620917505682592366523385211910858011502"
)
_FROZEN_DIGITS = 200


class RootScanError(RuntimeError):
    """The eigencondition scan exhausted its step budget without bracketing."""


@dataclass(frozen=True)
class AiryValue:
    """Ai, Bi and their derivatives at one point, at a stated precision."""

    ai: object
    bi: object
    aip: object
    bip: object
    working_precision: int


def _context(digits: int) -> MPContext:
    ctx = MPContext()
    ctx.dps = digits
    return ctx


def _to_mpf(ctx: MPContext, x):
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / x.denominator
    return ctx.convert(x)


def spouge_gamma(num: int, den: int, digits: int):
    """Gamma(num/den) by Spouge's convergent approximation.

    The truncation error is rigorously below a^(-1/2) (2 pi)^(-(a+1/2)) in
    relative terms, so `a` is chosen from the digit request.  This is the
    documented derivation of the frozen constants above.
    """
    ctx = _context(digits + 20)
    a = int(digits * 1.30103) + 8
    x = ctx.mpf(num) / den
    s = ctx.sqrt(2 * ctx.pi)
    for k in range(1, a):
        ck = (
            ((-1) ** (k - 1))
            * ctx.mpf(a - k) ** k
            / (ctx.sqrt(ctx.mpf(a - k)) * math.factorial(k - 1))
            * ctx.exp(ctx.mpf(a - k))
        )
        s += ck / (x + k)
    gamma_x_plus_1 = ctx.exp((x + ctx.mpf(1) / 2) * ctx.ln(x + a)) * ctx.exp(-(x + a)) * s
    return gamma_x_plus_1 / x


def airy(z, precision: int = DEFAULT_DIGITS) -> AiryValue:
    """Ai(z), Bi(z), Ai'(z), Bi'(z) from the Maclaurin series.

    Valid for |z| <= 30; the series converges everywhere but the guard-digit
    budget (and the frozen constants) are sized for that range only, so
    larger arguments raise rather than silently degrade.
    """
    if precision < 2:
        raise ValueError("precision must be at least 2 digits")
    az = abs(float(z))
    if not az <= AIRY_Z_MAX:
        raise ValueError(
            f"|z| = {az:.3g} is outside the validated range |z| <= {AIRY_Z_MAX:g} "
            "(asymptotic regime not implemented)"
        )
    guard = math.ceil(0.3 * az**1.5) + 10
    if float(z) > 0:
        # Ai decays while the series terms grow, doubling the cancellation.
        guard = 2 * math.ceil(0.3 * az**1.5) + 10
    wp = precision + guard
    if wp > _FROZEN_DIGITS - 5:
        raise ValueError("requested precision exceeds the frozen-constant budget")
    ctx = _context(wp)
    zz = _to_mpf(ctx, z)
    z3 = zz**3

    # f, g solve y'' = z y with (f, f')(0) = (1, 0) and (g, g')(0) = (0, 1).
    fa = ctx.mpf(1)
    ga = zz
    fpa = zz**2 / 2
    gpa = ctx.mpf(1)
    f, g, fp, gp = fa, ga, fpa, gpa
    cutoff = ctx.mpf(10) ** (-(wp + 5))
    for k in range(4000):
        fa = fa * z3 / ((3 * k + 2) * (3 * k + 3))
        ga = ga * z3 / ((3 * k + 3) * (3 * k + 4))
        fpa = fpa * z3 / ((3 * k + 3) * (3 * k + 5))
        gpa = gpa * z3 / ((3 * k + 1) * (3 * k + 3))
        f += fa
        g += ga
        fp += fpa
        gp += gpa
        if max(abs(fa), abs(ga), abs(fpa), abs(gpa)) < cutoff:
            break
    else:
        raise RuntimeError("airy series failed to converge within the term budget")

    g13 = ctx.mpf(GAMMA_ONE_THIRD)
    g23 = ctx.mpf(GAMMA_TWO_THIRDS)
    c1 = 1 / (ctx.cbrt(9) * g23)  # Ai(0)
    c2 = 1 / (ctx.cbrt(3) * g13)  # -Ai'(0)
    sqrt3 = ctx.sqrt(3)
    return AiryValue(
        ai=c1 * f - c2 * g,
        bi=sqrt3 * (c1 * f + c2 * g),
        aip=c1 * fp - c2 * gp,
        bip=sqrt3 * (c1 * fp + c2 * gp),
        working_precision=precision,
    )


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
    certificate fails (see :func:`_scan_and_refine`).

    When the scan would push |z| beyond the Airy evaluator's validated range
    (small |lam|), the determinant condition is replaced by the equivalent
    wall condition phi(1; eps) = 0 evaluated with the extended-precision
    Taylor integrator, which has no such range limit.
    """
    lam = _exact_number(lam)
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
        z0 = -eps * lam_m23
        z1 = lam13 + z0
        if max(abs(z0), abs(z1)) > AIRY_Z_MAX:
            return None
        a0 = airy(z0, airy_digits)
        a1 = airy(z1, airy_digits)
        return a0.ai * a1.bi - a1.ai * a0.bi

    result = _scan_and_refine(determinant, ctx, state, digits)
    if result is not None:
        return result
    return _linear_by_ode(lam, state, digits)


def _exact_number(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(x)
    return as_rational(x)


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


def _linear_by_ode(lam: Fraction, state: int, digits: int):
    """Wall condition phi(1; eps) = 0 via the Taylor integrator."""
    ctx = _context(digits + 10)
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

def series_integrate(v: RationalPoly, eps, x0, x1, y0, yp0, ctx: MPContext,
                     steps: int | None = None):
    """Propagate (phi, phi') from x0 to x1 at the context's precision.

    Each step expands the solution in a local Taylor series whose
    coefficients follow from the differential equation; the order is sized
    so the truncation sits below the context's resolution.
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
    if steps is None:
        # keep |eps - v| h^2 comfortably below 1 so the local series
        # converges like a cosine series
        scale = math.sqrt(float(abs(eps_f) + vmax) + 1.0)
        steps = max(8, int(2 * scale * abs(span)) + 1)
    order = max(24, int(1.2 * ctx.dps) + 16)
    h = span / steps
    x = x0f
    for _ in range(steps):
        w = _shift_poly(vc, x, ctx)
        a = [y, yp]
        for m in range(order - 1):
            s = -eps_f * a[m]
            for k in range(min(len(w) - 1, m) + 1):
                s += w[k] * a[m - k]
            a.append(s / ((m + 1) * (m + 2)))
        y = _poly_at(a, h)
        yp = _poly_at([(m + 1) * c for m, c in enumerate(a[1:])], h)
        x += h
    return y, yp


def _shift_poly(coeffs, x0, ctx):
    """Coefficients of p(x0 + t) given those of p(x), in mpf arithmetic."""
    out: list = []
    for c in reversed(coeffs):
        # Horner step: out(t) <- out(t) * (t + x0) + c
        new = [ctx.mpf(0)] * (len(out) + 1)
        for i, a in enumerate(out):
            new[i + 1] += a
            new[i] += a * x0
        new[0] += c
        out = new
    return out or [ctx.mpf(0)]


def _poly_at(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


def shoot_richardson(potential, eps: float, steps: int = 10000) -> tuple[float, float]:
    """(extrapolated phi(1), error estimate) from steps and steps//2 runs."""
    coarse = shoot(potential, eps, steps // 2)
    fine = shoot(potential, eps, steps)
    return fine + (fine - coarse) / 15, abs(fine - coarse) / 15


def shoot_root(potential, bracket=None, state: int = 0, steps: int = 10000) -> float:
    """Eigenvalue as a root of eps -> shoot(potential, eps), by scan + bisection.

    A final Richardson step on the roots at h and h/2 removes the leading
    O(h^4) discretization bias.
    """
    if bracket is None:
        from .estimates import default_bracket

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
