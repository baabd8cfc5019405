"""Result containers, selection policies, and default search brackets."""

import math
from fractions import Fraction

import pytest

from boxeig.estimates import (
    DEFAULT_SELECTION,
    METHOD_A1,
    EigenEstimate,
    RootSelection,
    default_bracket,
    select_root,
)
from boxeig.model import PotentialSpec
from boxeig.poly import RationalPoly
from boxeig.rayleigh_ritz import build_secular, solve_secular
from boxeig.series import build_series, solve_a1
from boxeig.variational import solve_a2, solve_a3

from test_variational import quotient_at


# each method's solver with a builder of the object it solves
SOLVERS = {
    "solve_a1": (solve_a1, build_series),
    "solve_a2": (solve_a2, quotient_at),
    "solve_a3": (solve_a3, quotient_at),
    "solve_rr": (solve_secular, build_secular),
}


def test_parse_policies():
    assert RootSelection.parse("default").policy == "default"
    assert RootSelection.parse("smallest").policy == "smallest"
    assert RootSelection.parse("min-w").policy == "min-w"
    nearest = RootSelection.parse("nearest:7/2")
    assert nearest.policy == "nearest"
    assert nearest.target == Fraction(7, 2)
    assert RootSelection.parse("  smallest ").policy == "smallest"


def test_parse_rejects_unknown_policy():
    with pytest.raises(ValueError):
        RootSelection.parse("largest")


def test_nearest_requires_target():
    with pytest.raises(ValueError):
        RootSelection("nearest")
    with pytest.raises(ValueError):
        RootSelection("smallest", target=Fraction(1))


def test_default_selection_is_default_policy():
    assert DEFAULT_SELECTION.policy == "default"
    assert DEFAULT_SELECTION.target is None


def test_select_root_nearest():
    # roots 1, 5 and 9: the candidate nearest the target, whatever the state
    p = RationalPoly.from_coeffs([-45, 59, -15, 1], "eps")
    tol = Fraction(1, 10**20)
    for text, root in (("nearest:6", 5), ("nearest:100", 9)):
        for state in (0, 2):
            selection = RootSelection.parse(text)
            lo, hi = select_root(p, (Fraction(0), Fraction(10)), state, selection, tol)
            assert lo <= root <= hi and hi - lo <= 2 * tol


@pytest.mark.parametrize("solve", ["solve_a1", "solve_rr"])
def test_min_w_refused_without_quotient(solve):
    solver, build = SOLVERS[solve]
    operand = build(PotentialSpec.linear(Fraction(1)), 10)
    with pytest.raises(ValueError, match="min-w"):
        solver(operand, selection=RootSelection.parse("min-w"))


@pytest.mark.parametrize("solve", list(SOLVERS))
def test_negative_state_refused(solve):
    # A2 used to answer state -1 with its last root, the others with IndexError
    solver, build = SOLVERS[solve]
    operand = build(PotentialSpec.linear(Fraction(1)), 10)
    with pytest.raises(ValueError, match="nonnegative"):
        solver(operand, state=-1)


def test_default_bracket_free_box():
    lo, hi = default_bracket(PotentialSpec.zero())
    assert lo == 0
    # wide enough for the ground state, scaling like (state+2)^2
    assert float(hi) == pytest.approx(4 * math.pi**2)
    _, hi2 = default_bracket(PotentialSpec.zero(), state=3)
    assert float(hi2) == pytest.approx(25 * math.pi**2)


def test_default_bracket_grows_with_coupling():
    _, hi0 = default_bracket(PotentialSpec.zero())
    _, hi1 = default_bracket(PotentialSpec.linear(Fraction(1)))
    _, hi9 = default_bracket(PotentialSpec.linear(Fraction(9)))
    assert hi0 < hi1 < hi9
    assert float(hi1) == pytest.approx(2 * float(hi0))


def test_default_bracket_general_potential_uses_coefficient_sum():
    v = RationalPoly.from_coeffs([Fraction(2), Fraction(-3)], "q")
    _, hi = default_bracket(PotentialSpec.general(v))
    assert float(hi) == pytest.approx(6 * 4 * math.pi**2)


def test_eps_is_the_enclosure_midpoint():
    est = EigenEstimate(METHOD_A1, 5, 0, (Fraction(29, 10), Fraction(31, 10)))
    assert est.eps == Fraction(3)
