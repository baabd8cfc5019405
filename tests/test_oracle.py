"""High-precision reference values: Airy machinery, scans, and shooting."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

import boxeig.oracle as oracle
from boxeig.cli import _exact_eigenvalue, format_significant
from boxeig.goldens import BENCHMARK_EPS_FREE, BENCHMARK_EPS_RAMP
from boxeig.model import PotentialSpec
from boxeig.oracle import (
    AIRY_AI_FIRST_ZERO,
    RootScanError,
    exact_box,
    exact_linear,
    series_integrate,
    shoot,
    shoot_root,
)
from boxeig.poly import RationalPoly
from boxeig.rootfind import mpf_to_rational

V0 = PotentialSpec.zero()


def as_mp(x, dps=50):
    with mpmath.workdps(dps):
        return mpmath.mpf(str(x)) if not isinstance(x, str) else mpmath.mpf(x)


# ---------------------------------------------------------------------------
# free box


def test_exact_box_values():
    eps0 = exact_box(0, digits=25)
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(str(eps0)) - mpmath.pi**2) < mpmath.mpf(10) ** -22
    eps2 = exact_box(2, digits=25)
    assert abs(float(eps2) - 9 * math.pi**2) < 1e-12


def test_exact_box_matches_benchmark_string():
    eps0 = exact_box(0, digits=25)
    with mpmath.workdps(30):
        rel = abs(mpmath.mpf(str(eps0)) / mpmath.mpf(BENCHMARK_EPS_FREE) - 1)
        assert rel < mpmath.mpf(10) ** -18


def test_exact_box_guards():
    with pytest.raises(ValueError):
        exact_box(-1)
    with pytest.raises(ValueError):
        exact_box(0, digits=1)


# ---------------------------------------------------------------------------
# linear ramp


def test_exact_linear_matches_benchmark_string():
    eps0 = exact_linear(1, 0, digits=25)
    with mpmath.workdps(30):
        rel = abs(mpmath.mpf(str(eps0)) / mpmath.mpf(BENCHMARK_EPS_RAMP) - 1)
        assert rel < mpmath.mpf(10) ** -19


def test_exact_linear_guards():
    with pytest.raises(ValueError, match="nonzero"):
        exact_linear(0)
    with pytest.raises(ValueError):
        exact_linear(1, state=-1)
    with pytest.raises(ValueError):
        exact_linear(1, digits=1)


def test_exact_linear_scan_budget_exhausts():
    # the 26th level sits far beyond the scan window, whichever route runs
    with pytest.raises(RootScanError):
        exact_linear(1, state=25, digits=6)


def test_exact_linear_refuses_unreachable_state_before_evaluating(monkeypatch):
    # (25+1)^2 pi^2 lies far past the scan's end: refused with no evaluation
    def forbidden(*args, **kwargs):
        raise AssertionError("the eigencondition was evaluated")

    monkeypatch.setattr(oracle, "_airy_series", forbidden)
    monkeypatch.setattr(oracle, "series_integrate", forbidden)
    with pytest.raises(RootScanError, match="out of reach"):
        exact_linear(1, state=25, digits=6)
    with pytest.raises(RootScanError, match="out of reach"):
        exact_linear(-30, state=25, digits=6)


def test_frozen_airy_zero_is_a_40_digit_truncation():
    with mpmath.workdps(60):
        frozen = mpmath.mpf(AIRY_AI_FIRST_ZERO)
        exact = mpmath.airyaizero(1)
        # truncated toward zero: |frozen| <= |a_1| < |frozen| + 10^-39
        assert exact <= frozen < exact + mpmath.mpf(10) ** -39


def test_exact_linear_refuses_past_the_half_line_bound(monkeypatch):
    # |a_1| lam^(2/3) passes the scan's end 50 pi^2 for every lam > 3066.25
    def forbidden(*args, **kwargs):
        raise AssertionError("the eigencondition was evaluated")

    monkeypatch.setattr(oracle, "_airy_series", forbidden)
    monkeypatch.setattr(oracle, "series_integrate", forbidden)
    for lam in (Fraction(30663, 10), 30000, Fraction(10**300), Fraction(10**400)):
        with pytest.raises(RootScanError, match="out of reach"):
            exact_linear(lam, 0, digits=20)


def test_half_line_bound_keeps_lambda_3000():
    # the bound 486.3459401055139803926075895 sits just below the eigenvalue
    value = _exact_eigenvalue(PotentialSpec.linear(Fraction(3000)), 0, 30)
    assert format_significant(value, 30) == "486.345940105513980392607621154"
    with mpmath.workdps(40):
        bound = -mpmath.mpf(AIRY_AI_FIRST_ZERO) * mpmath.cbrt(3000) ** 2
        assert bound < as_mp(value, 40)


@pytest.mark.parametrize(
    "lam, state, expected",
    [
        ("-5", 1, "36.9865843553024270247325023851"),
        ("-7", 0, "6.31589178782760084046640821182"),
        ("1/10", 0, "9.91959342847695922730902101789"),  # Taylor-ODE path
        ("1", 2, "89.3266345424787460796047063396"),  # Taylor-ODE path
        ("50", 1, "65.1770031601952269144534814783"),
        ("-30", 1, "74.0013110428896249460192406034"),
    ],
)
def test_exact_linear_30_digit_values(lam, state, expected):
    # reference strings from plain bisection to 10^-39 on the same scan
    # bracket; the certified refinement must print the same digits
    value = _exact_eigenvalue(PotentialSpec.linear(Fraction(lam)), state, 30)
    assert format_significant(value, 30) == expected


@pytest.mark.parametrize("lam, digits", [(-7, 190), (1, 185), (-7, 300)])
def test_exact_linear_past_200_digits_matches_mpmath(lam, digits):
    # the determinant takes no constant of limited precision, so no digit
    # request is refused; the reference is the root of mpmath's
    # Ai(z0) Bi(z1) - Ai(z1) Bi(z0) next to ours
    ours = exact_linear(lam, 0, digits)
    with mpmath.workdps(digits + 20):
        cbrt = mpmath.cbrt(abs(mpmath.mpf(lam)))
        lam13 = cbrt if lam > 0 else -cbrt

        def determinant(eps):
            z0 = -eps / cbrt**2
            z1 = lam13 + z0
            return mpmath.airyai(z0) * mpmath.airybi(z1) - mpmath.airyai(z1) * mpmath.airybi(z0)

        ours = mpmath.mpf(ours)
        reference = mpmath.findroot(determinant, ours)
        assert abs(ours - reference) < mpmath.mpf(10) ** -(digits + 3)


def test_exact_linear_airy_evaluation_ceiling(monkeypatch):
    # the determinant sums the f, g series once per wall: 11 scan points need
    # 22 evaluations; bisecting to 10^-39 would add about 250 more, the
    # certified regula falsi about 10
    calls = []
    real_series = oracle._airy_series

    def counting_series(*args, **kwargs):
        calls.append(args)
        return real_series(*args, **kwargs)

    monkeypatch.setattr(oracle, "_airy_series", counting_series)
    exact_linear(-7, 0, digits=35)
    assert 22 <= len(calls) <= 40


def _airy_fg(ctx, z, precision):
    zz = ctx.mpf(z)
    (f, g), bits = oracle._airy_fixed(ctx, zz, oracle._airy_working_digits(zz, precision))
    return f, g, bits


def test_airy_determinant_from_f_and_g():
    # Ai(z0) Bi(z1) - Ai(z1) Bi(z0) = 2 sqrt(3) c1 c2 (f0 g1 - g0 f1), with
    # c1 = Ai(0) and c2 = -Ai'(0), for arguments of both signs up to |z| = 30
    precision = 30
    ctx = oracle._context(precision + 10)
    points = (-30, -17.25, -2.5, 0, 0.75, 11.5, 29.5, 30)

    with mpmath.workdps(80):
        factor = 2 * mpmath.sqrt(3) * mpmath.airyai(0) * -mpmath.airyai(0, derivative=1)
        for z0, z1 in itertools.combinations(points, 2):
            f0, g0, bits0 = _airy_fg(ctx, z0, precision)
            f1, g1, bits1 = _airy_fg(ctx, z1, precision)
            ours = factor * mpmath.ldexp(f0 * g1 - g0 * f1, -(bits0 + bits1))
            ai0, bi0 = mpmath.airyai(z0), mpmath.airybi(z0)
            ai1, bi1 = mpmath.airyai(z1), mpmath.airybi(z1)
            exact = ai0 * bi1 - ai1 * bi0
            assert abs(ours - exact) <= mpmath.mpf(10) ** -precision * abs(exact), (z0, z1)


def test_airy_against_mpmath_on_seeded_points():
    # Ai = c1 f - c2 g and Bi = sqrt(3) (c1 f + c2 g) from the fixed-point
    # f, g kernel at 100 seeded arguments in [-12, 2]
    precision = 30
    ctx = oracle._context(precision + 10)
    rng = random.Random(20260816)
    points = [rng.uniform(-12.0, 2.0) for _ in range(100)]
    with mpmath.workdps(45):
        c1 = mpmath.airyai(0)
        c2 = -mpmath.airyai(0, derivative=1)
        for z in points:
            f, g, bits = _airy_fg(ctx, z, precision)
            f, g = mpmath.ldexp(f, -bits), mpmath.ldexp(g, -bits)
            zz = mpmath.mpf(z)
            assert abs(c1 * f - c2 * g - mpmath.airyai(zz)) < mpmath.mpf(10) ** -26, z
            assert abs(
                mpmath.sqrt(3) * (c1 * f + c2 * g) - mpmath.airybi(zz)
            ) < mpmath.mpf(10) ** -26, z


class _CountingContext(oracle.MPContext):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("lam", [-7, Fraction(1, 10)])  # Airy path, Taylor-ODE path
def test_exact_linear_builds_one_context(monkeypatch, lam):
    # the outer context is the only one: neither the determinant nor the
    # Taylor integrator builds one per evaluation
    monkeypatch.setattr(oracle, "MPContext", _CountingContext)
    monkeypatch.setattr(_CountingContext, "built", 0)
    exact_linear(lam, 0, 30)
    assert _CountingContext.built == 1


def _recording(func, points):
    def recorded(x):
        points.append(x)
        return func(x)

    return recorded


def test_scan_and_refine_certifies_a_simple_root_fast():
    digits = 30
    ctx = oracle._context(digits + 10)
    r = ctx.mpf(7) / 3
    points = []
    c = oracle._scan_and_refine(
        _recording(lambda x: (x - r) * (x + 1), points), ctx, 0, digits
    )
    assert abs(c - r) <= ctx.mpf(10) ** -(digits + 4)
    assert len(points) <= 2 + 12  # two scan points, then a few refinement steps


def test_scan_and_refine_triple_root():
    # regula falsi converges only linearly at a triple root; the result must
    # still lie within the target width of the root
    digits = 30
    ctx = oracle._context(digits + 10)
    r = ctx.mpf(7) / 3
    c = oracle._scan_and_refine(lambda x: (x - r) ** 3, ctx, 0, digits)
    assert abs(c - r) <= ctx.mpf(10) ** -(digits + 4)


def test_scan_and_refine_falls_back_to_bisection_when_uncertified():
    # (x - r)^101 is so flat that regula falsi stalls at the bracket's end:
    # two iterates agree, the certificate at c -+ target/2 fails, and
    # bisection must finish from the bracket
    digits = 30
    ctx = oracle._context(digits + 10)
    r = ctx.mpf(7) / 3
    target = ctx.mpf(10) ** -(digits + 4)
    points = []
    c = oracle._scan_and_refine(
        _recording(lambda x: (x - r) ** 101, points), ctx, 0, digits
    )
    assert abs(c - r) <= target
    assert len(points) > math.log2((ctx.pi**2 / 4) / target)


def test_scan_and_refine_exhausts_its_scan_budget():
    # one sign change only, so the second never comes: the scan gives up
    # after its full budget of steps
    points = []
    with pytest.raises(RootScanError, match="2-th sign change"):
        oracle._scan_and_refine(
            _recording(lambda x: x - 3, points), oracle._context(20), 1, 10
        )
    assert len(points) == oracle._SCAN_LIMIT + 1


def test_exact_linear_perturbative_slope():
    # first-order shift of the ground state for v = lam*q is lam/2
    pi2 = exact_box(0, digits=25)
    for lam, rel_tol in ((Fraction(1, 10000), 0.01), (Fraction(1, 100), 0.01)):
        eps = exact_linear(lam, 0, digits=25)
        slope = (eps - pi2) / float(lam)
        assert abs(float(slope) - 0.5) < rel_tol


def test_exact_linear_monotone_in_coupling():
    # stronger ramp -> higher ground state; the set straddles the internal
    # switch between the Airy-determinant and integrator routes, so this is
    # also a continuity check across that boundary
    couplings = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    values = [float(exact_linear(lam, 0, digits=20)) for lam in couplings]
    assert values == sorted(values)
    assert values[0] > math.pi**2


def test_exact_linear_excited_state():
    # second level of the ramp: slightly above 4 pi^2, below the next box level
    eps1 = float(exact_linear(1, 1, digits=20))
    assert 4 * math.pi**2 < eps1 < 4 * math.pi**2 + 1


# ---------------------------------------------------------------------------
# extended-precision integrator


def test_series_integrate_reproduces_airy_values():
    # integrating y'' = q y from 0 with Ai's initial data is a second,
    # structurally different route to Ai(z)
    ctx = oracle._context(35)
    v = RationalPoly.from_coeffs([0, 1], "q")
    with mpmath.workdps(45):
        ai0 = ctx.mpf(str(mpmath.airyai(0)))
        aip0 = ctx.mpf(str(mpmath.airyai(0, derivative=1)))
        for z in (-5.0, -1.0, 1.5):
            y, yp = series_integrate(v, 0, 0, z, ai0, aip0, ctx)
            assert abs(mpmath.mpf(str(y)) - mpmath.airyai(z)) < mpmath.mpf(10) ** -27
            assert abs(mpmath.mpf(str(yp)) - mpmath.airyai(z, derivative=1)) < mpmath.mpf(10) ** -27


def test_series_integrate_hits_first_airy_zero():
    ctx = oracle._context(30)
    v = RationalPoly.from_coeffs([0, 1], "q")
    with mpmath.workdps(40):
        ai0 = ctx.mpf(str(mpmath.airyai(0)))
        aip0 = ctx.mpf(str(mpmath.airyai(0, derivative=1)))
        zero = ctx.mpf(str(mpmath.airyaizero(1)))
    y, _ = series_integrate(v, 0, 0, zero, ai0, aip0, ctx)
    assert abs(float(y)) < 1e-25


def test_series_integrate_zero_span():
    import boxeig.oracle as oracle

    ctx = oracle._context(20)
    v = RationalPoly.zero("q")
    y, yp = series_integrate(v, 10, Fraction(1, 2), Fraction(1, 2), 3, 4, ctx)
    assert y == 3 and yp == 4


def test_series_integrate_free_particle_sine():
    # v = 0, eps = pi^2: phi = sin(pi q)/pi vanishes at q = 1
    import boxeig.oracle as oracle

    ctx = oracle._context(30)
    y, yp = series_integrate(RationalPoly.zero("q"), ctx.pi**2, 0, 1, 0, 1, ctx)
    assert abs(float(y)) < 1e-28
    assert abs(float(yp) + 1) < 1e-27  # phi'(1) = cos(pi) = -1


def _cubic():
    # negative on all of [0, 1]: -20 + 5q - 40q^2 + 10q^3
    return RationalPoly.from_coeffs([-20, 5, -40, 10], "q")


@pytest.mark.parametrize("power", [30, -30])
def test_series_integrate_scales_with_its_initial_data(power):
    # the equation is linear: scaling (y0, y0') by 10^power scales (y, y') by
    # the same factor, at full relative precision whatever the data's size
    ctx = oracle._context(30)
    v, eps = _cubic(), Fraction(7, 3)
    y, yp = series_integrate(v, eps, 0, 1, Fraction(1, 3), -2, ctx)
    factor = Fraction(10) ** power
    ys, yps = series_integrate(v, eps, 0, 1, factor / 3, -2 * factor, ctx)
    scale = ctx.mpf(10) ** power
    tol = ctx.mpf(10) ** -28
    assert abs(ys / (scale * y) - 1) < tol
    assert abs(yps / (scale * yp) - 1) < tol


def test_series_integrate_negative_cubic_matches_odefun():
    ctx = oracle._context(30)
    v, eps = _cubic(), 2
    y, yp = series_integrate(v, eps, 0, 1, 0, 1, ctx)
    with mpmath.workdps(40):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in v.coeffs]
        rhs = lambda x, u: [u[1], (mpmath.polyval(coeffs[::-1], x) - eps) * u[0]]
        ref_y, ref_yp = mpmath.odefun(rhs, 0, [0, 1])(1)
        assert abs(mpmath.mpf(str(y)) / ref_y - 1) < mpmath.mpf(10) ** -25
        assert abs(mpmath.mpf(str(yp)) / ref_yp - 1) < mpmath.mpf(10) ** -25


# ---------------------------------------------------------------------------
# float shooting (independent route)


def test_shoot_free_box_closed_form():
    # y'' = -6 y, y(0)=0, y'(0)=1  =>  y(1) = sin(sqrt(6))/sqrt(6)
    value = shoot(V0, 6.0)
    assert abs(value - math.sin(math.sqrt(6)) / math.sqrt(6)) < 1e-12


def test_shoot_accepts_raw_polynomial():
    v = RationalPoly.from_coeffs([0, 1], "q")
    assert shoot(v, 10.0) == shoot(PotentialSpec.linear(Fraction(1)), 10.0)
    with pytest.raises(TypeError):
        shoot("not a potential", 10.0)
    with pytest.raises(ValueError):
        shoot(V0, 10.0, steps=1)


def test_shoot_root_free_box():
    assert abs(shoot_root(V0) - math.pi**2) < 1e-10


def test_shoot_root_matches_exact_linear():
    lam = Fraction(1)
    root = shoot_root(PotentialSpec.linear(lam))
    assert abs(root - float(exact_linear(lam, 0, digits=20))) < 1e-10


def test_shoot_root_matches_exact_linear_excited():
    lam = Fraction(1)
    root = shoot_root(PotentialSpec.linear(lam), state=1)
    assert abs(root - float(exact_linear(lam, 1, digits=15))) < 1e-8


def test_shoot_root_scan_error_outside_bracket():
    with pytest.raises(RootScanError):
        shoot_root(V0, bracket=(20.0, 30.0))  # no eigenvalue in (20, 30)


@pytest.mark.parametrize("bracket", [(0.0, math.inf), (-math.inf, 30.0), (30.0, 20.0)])
def test_shoot_root_rejects_a_bad_bracket(bracket):
    with pytest.raises(ValueError, match="finite with lo < hi"):
        shoot_root(V0, bracket=bracket, steps=200)


def test_shoot_root_scans_to_the_bracket_end():
    # from -300 the 6-th sign change (near 340) lies more than 200 scan
    # steps of pi^2/4 away; both brackets hold the same states 0..5
    ramp = PotentialSpec.linear(Fraction(-30))
    far = shoot_root(ramp, bracket=(-300.0, 600.0), state=5, steps=1000)
    near = shoot_root(ramp, bracket=(-10.0, 600.0), state=5, steps=1000)
    assert abs(far - near) < 1e-9
    assert abs(near - 340.356) < 1e-3


# ---------------------------------------------------------------------------
# mpf -> Fraction bridge used by renderers


def test_mpf_to_rational_roundtrip_oracle_output():
    eps = exact_box(0, digits=25)
    frac = mpf_to_rational(eps)
    assert abs(float(frac) - math.pi**2) < 1e-12
