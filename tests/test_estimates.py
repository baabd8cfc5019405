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
from boxeig.rayleigh_ritz import solve_rr
from boxeig.series import solve_a1
from boxeig.variational import solve_a2, solve_a3


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


@pytest.mark.parametrize("solve", [solve_a1, solve_rr])
def test_min_w_refused_without_quotient(solve):
    with pytest.raises(ValueError, match="min-w"):
        solve(PotentialSpec.linear(Fraction(1)), 10, selection=RootSelection.parse("min-w"))


@pytest.mark.parametrize("solve", [solve_a1, solve_a2, solve_a3, solve_rr])
def test_negative_state_refused(solve):
    # A2 used to answer state -1 with its last root, the others with IndexError
    with pytest.raises(ValueError, match="nonnegative"):
        solve(PotentialSpec.linear(Fraction(1)), 10, state=-1)


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


def test_eps_rational_prefers_enclosure():
    est = EigenEstimate(
        method=METHOD_A1,
        n=5,
        state=0,
        eps=3.0,
        residual=0.0,
        bracket=(0.0, 40.0),
        enclosure=(Fraction(29, 10), Fraction(31, 10)),
    )
    assert est.eps_rational() == Fraction(3)
    bare = EigenEstimate(
        method=METHOD_A1, n=5, state=0, eps=0.5, residual=0.0, bracket=(0.0, 40.0)
    )
    assert bare.eps_rational() == Fraction(1, 2)
