"""Problem descriptions and the exact reduction to the unit interval."""

from fractions import Fraction

import pytest

from boxeig.model import (
    BoxProblem,
    PotentialSpec,
    nondimensionalize,
    parse_problem,
    require_unit_interval,
)
from boxeig.poly import RationalPoly


def make_problem(**overrides):
    base = dict(
        mass=Fraction(1, 2),
        hbar=Fraction(1),
        l1=Fraction(0),
        l2=Fraction(2),
        x0=Fraction(0),
        v_taylor=RationalPoly.from_coeffs([0, Fraction(1, 16)], var="x"),
    )
    base.update(overrides)
    return BoxProblem(**base)


# ---------------------------------------------------------------------------
# potential classification


def test_potential_kinds():
    assert PotentialSpec.linear(0).kind == "zero"
    lin = PotentialSpec.linear(Fraction(3, 2))
    assert lin.kind == "linear" and lin.lam == Fraction(3, 2)
    gen = PotentialSpec.general(RationalPoly.from_coeffs([0, 0, 1], var="q"))
    assert gen.kind == "general" and gen.lam is None
    # general() reclassifies pure ramps and the zero polynomial
    assert PotentialSpec.general(RationalPoly.zero("q")).kind == "zero"
    assert PotentialSpec.general(RationalPoly.from_coeffs([0, 5], "q")).kind == "linear"


def test_potential_kind_and_slope_come_from_v():
    # a spec built from v alone cannot disagree with v
    ramp = PotentialSpec(RationalPoly.from_coeffs([0, 5], "q"))
    assert ramp.kind == "linear" and ramp.lam == 5
    assert ramp.describe() == "v = 5*q"
    assert ramp == PotentialSpec.linear(5)
    assert PotentialSpec(RationalPoly.zero("q")) == PotentialSpec.linear(0)


def test_describe():
    assert PotentialSpec.linear(0).describe() == "v = 0"
    assert "3/2" in PotentialSpec.linear(Fraction(3, 2)).describe()


# ---------------------------------------------------------------------------
# validation


def test_box_problem_validation():
    with pytest.raises(ValueError):
        make_problem(mass=0)
    with pytest.raises(ValueError):
        make_problem(hbar=Fraction(-1))
    with pytest.raises(ValueError):
        make_problem(l1=Fraction(2), l2=Fraction(2))
    with pytest.raises(ValueError):
        make_problem(x0=Fraction(5))


# ---------------------------------------------------------------------------
# nondimensionalization


def test_nondimensionalize_linear_ramp():
    # m=1/2, L=2, hbar=1: scale = 2*(1/2)*4 = 4; V = x/16 about x0=0
    # v(q) = 4 * V(2q) = 4 * (2q)/16 = q/2
    scaled = nondimensionalize(make_problem())
    assert scaled.energy_scale == 4
    assert scaled.q1 == 0 and scaled.q2 == 1
    assert scaled.potential.kind == "linear"
    assert scaled.potential.lam == Fraction(1, 2)


def test_nondimensionalize_shifted_box():
    # walls at [1, 3], x0 = L1: q = (x-1)/2
    problem = make_problem(
        l1=Fraction(1),
        l2=Fraction(3),
        x0=Fraction(1),
        v_taylor=RationalPoly.from_coeffs([2, 0, 1], var="x"),  # 2 + (x-1)^2
    )
    scaled = nondimensionalize(problem)
    assert scaled.q1 == 0 and scaled.q2 == 1
    # v(q) = 4 * (2 + (2q)^2) = 8 + 16 q^2
    assert scaled.potential.v == RationalPoly.from_coeffs([8, 0, 16], var="q")


def test_nondimensionalize_interior_reference_point():
    problem = make_problem(
        l1=Fraction(-1), l2=Fraction(1), x0=Fraction(0), v_taylor=RationalPoly.zero("x")
    )
    scaled = nondimensionalize(problem)
    assert (scaled.q1, scaled.q2) == (Fraction(-1, 2), Fraction(1, 2))
    with pytest.raises(NotImplementedError):
        require_unit_interval(scaled)


def test_require_unit_interval_passes_through_potential():
    scaled = nondimensionalize(make_problem())
    potential = require_unit_interval(scaled)
    assert potential is scaled.potential


# ---------------------------------------------------------------------------
# problem file format


SAMPLE = """\
# walls, then Taylor coefficients of V about x0
m=1/2
hbar=1
L1=0
L2=2
x0=0
1 1/16
"""


def test_parse_problem_reads_the_sample():
    assert parse_problem(SAMPLE) == make_problem()


def test_parse_problem_defaults_x0_to_l1():
    text = "m=1\nhbar=1\nL1=2\nL2=3\n0 5\n"
    problem = parse_problem(text)
    assert problem.x0 == problem.l1 == 2


def test_parse_problem_errors_carry_line_numbers():
    bad_header = "m=1\nhbar=1\nL1=0\nL2=oops\n"
    with pytest.raises(ValueError, match="line 4"):
        parse_problem(bad_header)
    bad_coeff = "m=1\nhbar=1\nL1=0\nL2=1\n2 not-a-number\n"
    with pytest.raises(ValueError, match="line 5"):
        parse_problem(bad_coeff)
    missing = "m=1\nhbar=1\nL1=0\n"
    with pytest.raises(ValueError, match="L2"):
        parse_problem(missing)


def test_parse_problem_rejects_duplicate_coefficient():
    text = "m=1\nhbar=1\nL1=0\nL2=1\n1 2\n1 3\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_problem(text)
