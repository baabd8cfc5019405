"""High-precision reference values: Airy machinery, scans, and shooting."""

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
    AIRY_Z_MAX,
    GAMMA_ONE_THIRD,
    GAMMA_TWO_THIRDS,
    RootScanError,
    airy,
    exact_box,
    exact_linear,
    series_integrate,
    shoot,
    shoot_richardson,
    shoot_root,
    spouge_gamma,
)
from boxeig.poly import RationalPoly
from boxeig.rootfind import mpf_to_rational

V0 = PotentialSpec.zero()


def as_mp(x, dps=50):
    with mpmath.workdps(dps):
        return mpmath.mpf(str(x)) if not isinstance(x, str) else mpmath.mpf(x)


# ---------------------------------------------------------------------------
# gamma constants


def test_frozen_gamma_constants_rederive():
    for text, (num, den) in ((GAMMA_ONE_THIRD, (1, 3)), (GAMMA_TWO_THIRDS, (2, 3))):
        value = spouge_gamma(num, den, 120)
        with mpmath.workdps(140):
            diff = abs(mpmath.mpf(str(value)) - mpmath.mpf(text))
            assert diff < mpmath.mpf(10) ** -115


def test_spouge_gamma_against_mpmath():
    with mpmath.workdps(60):
        ours = mpmath.mpf(str(spouge_gamma(1, 3, 50)))
        theirs = mpmath.gamma(mpmath.mpf(1) / 3)
        assert abs(ours - theirs) < mpmath.mpf(10) ** -48


def test_spouge_gamma_half_is_sqrt_pi():
    with mpmath.workdps(50):
        ours = mpmath.mpf(str(spouge_gamma(1, 2, 40)))
        assert abs(ours - mpmath.sqrt(mpmath.pi)) < mpmath.mpf(10) ** -38


# ---------------------------------------------------------------------------
# Airy evaluation


def test_airy_against_mpmath_on_seeded_points():
    rng = random.Random(20260816)
    points = [rng.uniform(-12.0, 2.0) for _ in range(100)]
    with mpmath.workdps(45):
        for z in points:
            ours = airy(z, 30)
            zz = mpmath.mpf(z)
            assert abs(mpmath.mpf(str(ours.ai)) - mpmath.airyai(zz)) < mpmath.mpf(10) ** -26
            assert abs(mpmath.mpf(str(ours.bi)) - mpmath.airybi(zz)) < mpmath.mpf(10) ** -26
            assert abs(
                mpmath.mpf(str(ours.aip)) - mpmath.airyai(zz, derivative=1)
            ) < mpmath.mpf(10) ** -26
            assert abs(
                mpmath.mpf(str(ours.bip)) - mpmath.airybi(zz, derivative=1)
            ) < mpmath.mpf(10) ** -26


@pytest.mark.parametrize("z", [25.0, 29.5, -29.5])
def test_airy_relative_accuracy_near_range_edge(z):
    # positive z: Ai is ~1e-38 at z=25 while Bi is ~1e36; both must come out
    # relatively accurate despite the cancellation in the series
    ours = airy(z, 30)
    with mpmath.workdps(60):
        zz = mpmath.mpf(z)
        for mine, ref in (
            (ours.ai, mpmath.airyai(zz)),
            (ours.bi, mpmath.airybi(zz)),
            (ours.aip, mpmath.airyai(zz, derivative=1)),
            (ours.bip, mpmath.airybi(zz, derivative=1)),
        ):
            assert abs(mpmath.mpf(str(mine)) / ref - 1) < mpmath.mpf(10) ** -25


def test_airy_wronskian_identity():
    # Ai(z) Bi'(z) - Ai'(z) Bi(z) = 1/pi for every z
    for z in (-11.0, -2.5, 0.0, Fraction(3, 2), 8.0, 22.0):
        value = airy(z, 35)
        wronskian = value.ai * value.bip - value.aip * value.bi
        with mpmath.workdps(45):
            assert abs(mpmath.mpf(str(wronskian)) - 1 / mpmath.pi) < mpmath.mpf(10) ** -32


def test_airy_range_guard():
    with pytest.raises(ValueError, match="validated range"):
        airy(AIRY_Z_MAX + 0.5, 30)
    with pytest.raises(ValueError, match="validated range"):
        airy(-1000.0, 30)
    with pytest.raises(ValueError):
        airy(float("nan"), 30)


def test_airy_precision_guards():
    with pytest.raises(ValueError):
        airy(1.0, 1)
    with pytest.raises(ValueError, match="frozen-constant budget"):
        airy(1.0, 400)


def test_airy_reports_requested_precision():
    assert airy(0.5, 27).working_precision == 27


def test_airy_at_zero_matches_closed_form():
    value = airy(0, 40)
    with mpmath.workdps(50):
        g13 = mpmath.mpf(GAMMA_ONE_THIRD)
        g23 = mpmath.mpf(GAMMA_TWO_THIRDS)
        ai0 = 1 / (mpmath.cbrt(9) * g23)
        aip0 = -1 / (mpmath.cbrt(3) * g13)
        assert abs(mpmath.mpf(str(value.ai)) - ai0) < mpmath.mpf(10) ** -38
        assert abs(mpmath.mpf(str(value.aip)) - aip0) < mpmath.mpf(10) ** -38


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

    monkeypatch.setattr(oracle, "airy", forbidden)
    monkeypatch.setattr(oracle, "series_integrate", forbidden)
    with pytest.raises(RootScanError, match="out of reach"):
        exact_linear(1, state=25, digits=6)
    with pytest.raises(RootScanError, match="out of reach"):
        exact_linear(-30, state=25, digits=6)


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


def test_exact_linear_airy_evaluation_ceiling(monkeypatch):
    # 11 scan points need 22 Airy evaluations; bisecting to 10^-39 would add
    # about 250 more, the certified regula falsi about 10
    calls = []
    real_airy = oracle.airy

    def counting_airy(*args, **kwargs):
        calls.append(args)
        return real_airy(*args, **kwargs)

    monkeypatch.setattr(oracle, "airy", counting_airy)
    exact_linear(-7, 0, digits=35)
    assert len(calls) <= 40


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
    import boxeig.oracle as oracle

    ctx = oracle._context(35)
    v = RationalPoly.from_coeffs([0, 1], "q")
    with mpmath.workdps(45):
        g13 = mpmath.mpf(GAMMA_ONE_THIRD)
        g23 = mpmath.mpf(GAMMA_TWO_THIRDS)
        ai0 = 1 / (mpmath.cbrt(9) * g23)
        aip0 = -1 / (mpmath.cbrt(3) * g13)
        for z in (-5.0, -1.0, 1.5):
            y, yp = series_integrate(
                v, 0, 0, z, ctx.mpf(str(ai0)), ctx.mpf(str(aip0)), ctx
            )
            ref = airy(z, 30)
            assert abs(mpmath.mpf(str(y)) - mpmath.mpf(str(ref.ai))) < mpmath.mpf(10) ** -27
            assert abs(mpmath.mpf(str(yp)) - mpmath.mpf(str(ref.aip))) < mpmath.mpf(10) ** -27


def test_series_integrate_hits_first_airy_zero():
    import boxeig.oracle as oracle

    ctx = oracle._context(30)
    v = RationalPoly.from_coeffs([0, 1], "q")
    with mpmath.workdps(40):
        ai0 = str(1 / (mpmath.cbrt(9) * mpmath.mpf(GAMMA_TWO_THIRDS)))
        aip0 = str(-1 / (mpmath.cbrt(3) * mpmath.mpf(GAMMA_ONE_THIRD)))
    # first zero of Ai, from bisecting our own airy() at 35 digits
    zero = ctx.mpf("-2.3381074104597670384891972524467")
    y, _ = series_integrate(v, 0, 0, zero, ctx.mpf(ai0), ctx.mpf(aip0), ctx)
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


def test_shoot_richardson_improves_and_bounds():
    exact = math.sin(math.sqrt(6)) / math.sqrt(6)
    extrapolated, err_est = shoot_richardson(V0, 6.0, steps=200)
    plain = shoot(V0, 6.0, steps=200)
    assert abs(extrapolated - exact) < abs(plain - exact)
    assert abs(plain - exact) < 20 * err_est
    assert err_est < 1e-9


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
