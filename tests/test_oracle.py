"""High-precision reference values: the ramp's wall series, scans, and shooting."""

import functools
import math
import random
import re
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
    mpf_to_rational,
    shoot,
    shoot_root,
)
from boxeig.poly import RationalPoly

V0 = PotentialSpec.linear(0)


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

    monkeypatch.setattr(oracle, "_ramp_wall", forbidden)
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

    monkeypatch.setattr(oracle, "_ramp_wall", forbidden)
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
        ("1/10", 0, "9.91959342847695922730902101789"),
        ("1", 2, "89.3266345424787460796047063396"),
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
    # the wall series takes no constant of limited precision, so no digit
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
    # the wall series is summed once per evaluation: the scan brackets the
    # root at its 4th point (3 pi^2/4 > 6.3); bisecting to 10^-39 would add
    # about 130 more evaluations, the quadratic interval refinement about 14
    calls = []
    real_wall = oracle._ramp_wall

    def counting_wall(*args):
        calls.append(args)
        return real_wall(*args)

    monkeypatch.setattr(oracle, "_ramp_wall", counting_wall)
    exact_linear(-7, 0, digits=35)
    assert 4 < len(calls) <= 20


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _wall_value(lam, eps, bits=160):
    """phi(1; eps) for v = lam q from the fixed-point wall kernel, exactly."""
    lam, eps = Fraction(lam), Fraction(eps)
    bits += math.ceil(math.log2(math.e) * math.sqrt(abs(lam) + abs(eps)))
    fixed_lam = (lam.numerator << bits) // lam.denominator
    fixed_eps = (eps.numerator << bits) // eps.denominator
    return Fraction(oracle._ramp_wall(fixed_lam, fixed_eps, bits), 1 << bits)


def _airy_wall(lam, eps):
    """pi (Ai(z0) Bi(z1) - Ai(z1) Bi(z0)) / lam^(1/3) from mpmath, and max |z|."""
    cbrt = mpmath.cbrt(abs(_mp(lam)))
    lam13 = cbrt if lam > 0 else -cbrt
    z0 = -_mp(eps) / cbrt**2
    z1 = lam13 + z0
    g = mpmath.airyai(z0) * mpmath.airybi(z1) - mpmath.airyai(z1) * mpmath.airybi(z0)
    return mpmath.pi * g / lam13, max(abs(z0), abs(z1))


def test_airy_against_mpmath_on_seeded_points():
    # the wall series against the Airy form of phi(1; eps) at 62 seeded
    # (lam, eps); small couplings put |z| far past 30
    rng = random.Random(20261019)
    points = []
    for _ in range(60):
        lam = Fraction(rng.randint(-3000, 3000), rng.choice([1, 7, 1000]))
        points.append((lam, Fraction(rng.randint(0, 5000), 10)))
    points += [(Fraction(1, 10), Fraction(500)), (Fraction(-1, 1000), Fraction(50))]
    far = 0
    with mpmath.workdps(80):
        for lam, eps in points:
            reference, z = _airy_wall(lam, eps)
            far += z > 30
            error = abs(_mp(_wall_value(lam, eps)) - reference)
            assert error < mpmath.mpf(10) ** -40 * max(1, abs(reference)), (lam, eps)
    assert far >= 10


@pytest.mark.parametrize("eps", [-40, Fraction(1, 3), Fraction(9869604401, 10**9), 100, 480])
def test_wall_series_of_the_free_box_is_a_sine(eps):
    # v = 0: phi(1; eps) = sin(sqrt eps)/sqrt eps, or sinh for eps < 0
    eps = Fraction(eps)
    with mpmath.workdps(60):
        root = mpmath.sqrt(abs(_mp(eps)))
        exact = mpmath.sin(root) / root if eps > 0 else mpmath.sinh(root) / root
        assert abs(_mp(_wall_value(0, eps)) - exact) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize(
    "lam, shown",
    [(-(10**300), "-1.0e+300"), (-(10**400), "-1.0e+400"), (-81 * 10**5, "-8.1e+6")],
)
def test_exact_linear_refuses_a_coupling_past_the_bit_budget(monkeypatch, lam, shown):
    # the wall series at lam = -10^300 would need about 10^150 bits; the
    # refusal names the coupling and comes before any evaluation
    def forbidden(*args, **kwargs):
        raise AssertionError("the eigencondition was evaluated")

    monkeypatch.setattr(oracle, "_ramp_wall", forbidden)
    with pytest.raises(RootScanError, match=f"lam = {re.escape(shown)} is out of reach"):
        exact_linear(lam, 0, digits=20)


@pytest.mark.parametrize("lam", [-7, Fraction(1, 10)])
def test_exact_linear_builds_one_context(monkeypatch, lam):
    # the outer context is the only one: the wall series builds none per
    # evaluation, and a second call at the same digits builds none at all
    built = []
    build = oracle._context.__wrapped__

    def counted(digits):
        built.append(digits)
        return build(digits)

    size = oracle._context.cache_parameters()["maxsize"]
    monkeypatch.setattr(oracle, "_context", functools.lru_cache(maxsize=size)(counted))
    exact_linear(lam, 0, 30)
    assert len(built) == 1
    exact_linear(lam, 1, 30)
    assert len(built) == 1


def test_an_oracle_value_keeps_its_precision_and_value():
    # a returned mpf computes in its own context: later calls at other
    # digits must not change that context's precision
    x = exact_linear(1, 0, 30)
    before = (x.context.dps, x._mpf_, (x / 3)._mpf_, str(x))
    exact_linear(1, 0, 12)
    exact_linear(-5, 1, 60)
    exact_box(0, 50)
    assert (x.context.dps, x._mpf_, (x / 3)._mpf_, str(x)) == before
    assert before[0] == 40


def test_a_cached_context_computes_like_a_fresh_one():
    from mpmath.ctx_mp import MPContext

    fresh = MPContext()
    fresh.dps = 45
    cached = oracle._context(45)
    assert cached is oracle._context(45) and cached.dps == 45
    assert cached.pi._mpf_ == fresh.pi._mpf_
    assert (cached.cbrt(cached.mpf(3)) / 7)._mpf_ == (fresh.cbrt(fresh.mpf(3)) / 7)._mpf_
    assert exact_box(2, 40)._mpf_ == (9 * fresh.pi**2)._mpf_


def test_the_context_cache_stays_bounded():
    size = oracle._context.cache_parameters()["maxsize"]
    assert size is not None and size <= 16
    for digits in range(2, 3 * size):
        exact_box(1, digits)
    assert oracle._context.cache_info().currsize == size


def _recording(func, points):
    def recorded(x):
        points.append(x)
        return func(x)

    return recorded


# the grid of a 30-digit request, its scan step and 7/3 as a grid position
GRID_BITS = (10**34 - 1).bit_length()
with mpmath.workdps(60):
    GRID_STEP = int(mpmath.ldexp(mpmath.pi**2 / 4, GRID_BITS))
SEVEN_THIRDS = 7 << GRID_BITS  # 3 m = SEVEN_THIRDS at m = 7/3 2^k


def _holds_seven_thirds(cell):
    lo, hi = cell
    return hi == lo + 1 and 3 * lo < SEVEN_THIRDS < 3 * hi


def test_scan_grid_refines_a_simple_root_fast():
    points = []
    value = _recording(lambda m: (3 * m - SEVEN_THIRDS) * (m + (1 << GRID_BITS)), points)
    assert _holds_seven_thirds(oracle._scan_grid(value, GRID_STEP, 0))
    assert len(points) <= 2 + 12  # two scan points, then a few refinement steps


def test_scan_grid_triple_root():
    # the secant guess converges only linearly at a triple root; the search
    # must still end on the cell that holds it
    points = []
    value = _recording(lambda m: (3 * m - SEVEN_THIRDS) ** 3, points)
    assert _holds_seven_thirds(oracle._scan_grid(value, GRID_STEP, 0))
    assert len(points) <= 2 * GRID_BITS


def test_scan_grid_flat_root():
    # (3 m - 7 2^k)^101 is so flat that the secant guess sits at a bracket
    # end: the windows keep missing, and the halvings must finish the search
    points = []
    value = _recording(lambda m: (3 * m - SEVEN_THIRDS) ** 101, points)
    assert _holds_seven_thirds(oracle._scan_grid(value, GRID_STEP, 0))
    assert len(points) > GRID_BITS
    assert len(points) <= 2 * GRID_BITS


def test_scan_grid_exhausts_its_scan_budget():
    # one sign change only, so the second never comes: the scan gives up
    # after its full budget of steps
    points = []
    with pytest.raises(RootScanError, match="2-th sign change"):
        oracle._scan_grid(_recording(lambda m: m - (3 << GRID_BITS), points), GRID_STEP, 1)
    assert len(points) == oracle._SCAN_LIMIT + 1


def test_exact_linear_returns_the_midpoint_of_a_sign_changing_grid_cell(monkeypatch):
    # the wall series runs only at grid indices m (eps = m 2^-k, with k bits
    # for digits + 4), and the value returned is the middle of a cell whose
    # two ends it saw with opposite signs
    rng = random.Random(20261019)
    real_wall = oracle._ramp_wall
    signs = {}

    def recording_wall(lam, eps, bits):
        v = real_wall(lam, eps, bits)
        shift = bits - k
        assert eps % (1 << shift) == 0, "evaluated off the grid"
        signs[eps >> shift] = (v > 0) - (v < 0)
        return v

    monkeypatch.setattr(oracle, "_ramp_wall", recording_wall)
    for _ in range(6):
        lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.choice([1, 3, 10]))
        digits = rng.choice([12, 20, 30])
        k = (10 ** (digits + 4) - 1).bit_length()
        for state in range(3):
            signs.clear()
            doubled = mpf_to_rational(exact_linear(lam, state, digits)) * (2 << k)
            assert doubled.denominator == 1 and doubled.numerator % 2 == 1, (lam, state)
            lo = doubled.numerator >> 1
            assert signs[lo] * signs[lo + 1] == -1, (lam, state)


def test_exact_linear_perturbative_slope():
    # first-order shift of the ground state for v = lam*q is lam/2
    pi2 = exact_box(0, digits=25)
    for lam, rel_tol in ((Fraction(1, 10000), 0.01), (Fraction(1, 100), 0.01)):
        eps = exact_linear(lam, 0, digits=25)
        slope = (eps - pi2) / float(lam)
        assert abs(float(slope) - 0.5) < rel_tol


def test_exact_linear_monotone_in_coupling():
    # stronger ramp -> higher ground state
    couplings = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    values = [float(exact_linear(lam, 0, digits=20)) for lam in couplings]
    assert values == sorted(values)
    assert values[0] > math.pi**2


def test_exact_linear_excited_state():
    # second level of the ramp: slightly above 4 pi^2, below the next box level
    eps1 = float(exact_linear(1, 1, digits=20))
    assert 4 * math.pi**2 < eps1 < 4 * math.pi**2 + 1


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
