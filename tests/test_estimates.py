"""Result containers, selection policies, and default search brackets."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from boxeig import rootfind
from boxeig.estimates import (
    COARSE_WIDTH,
    DEFAULT_SELECTION,
    METHOD_A1,
    SOLVER_TOL,
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

from test_variational import quotient_at, quotient_cases


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


def test_a_lone_nearest_candidate_is_refined_once(monkeypatch):
    # the cell it ends on is the one a coarse enclosure first would give
    p = RationalPoly.from_coeffs([-45, 59, -15, 1], "eps")
    bracket, tol = (Fraction(0), Fraction(3)), Fraction(1, 10**20)
    isolated, (interval,) = rootfind.isolate_real_roots(p, bracket)
    coarse = rootfind.refine_enclosure(isolated, interval, COARSE_WIDTH)
    want = rootfind.refine_enclosure(isolated, coarse, 2 * tol)
    calls = []
    refine = rootfind.refine_enclosure
    monkeypatch.setattr(rootfind, "refine_enclosure", lambda *a: calls.append(a) or refine(*a))
    assert select_root(p, bracket, 0, RootSelection.parse("nearest:6"), tol) == want
    assert len(calls) == 1


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


# ---------------------------------------------------------------------------
# selection by rank against refining every candidate


def select_by_refining_every_candidate(p, bracket, state, tol, rank):
    """The reference rule: every root to COARSE_WIDTH, sorted by rank at the midpoints."""
    if p.degree < 1:
        return None
    isolated, intervals = rootfind.isolate_real_roots(p, bracket)
    if state >= len(intervals):
        return None
    candidates = [rootfind.refine_enclosure(isolated, iv, COARSE_WIDTH) for iv in intervals]
    idx = sorted(range(len(candidates)), key=lambda i: rank(sum(candidates[i]) / 2))[state]
    return rootfind.refine_enclosure(isolated, candidates[idx], 2 * tol)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(*quotient_cases)
@example(PotentialSpec.linear(1), 30)
@example(PotentialSpec.linear(-200), 30)
@example(PotentialSpec.linear(200), 12)
def test_quotient_selection_matches_refining_every_candidate(potential, n):
    # A2 ranks its stationary points by W; A3's min-w ranks its fixed
    # points by W too, and W(eps) = eps there, so it is the smallest policy
    rq = quotient_at(potential, n)
    s, f = rq.stationarity_polynomial(), rq.fixed_point_polynomial()
    for state in range(3):
        bracket = default_bracket(potential, state)
        want = select_by_refining_every_candidate(s, bracket, state, SOLVER_TOL, rq.value)
        for policy in ("default", "min-w"):
            est = solve_a2(rq, None, state, RootSelection(policy))
            assert (est and est.enclosure) == want
            assert est is None or est.w == rq.value(est.eps)
        want = select_by_refining_every_candidate(f, bracket, state, SOLVER_TOL, rq.value)
        est = solve_a3(rq, None, state, RootSelection("min-w"))
        assert (est and est.enclosure) == want
        assert est == solve_a3(rq, None, state, RootSelection("smallest"))


def from_roots(*roots, c=1):
    """c times the product of (x - r), in eps."""
    p = RationalPoly.constant(c, "eps")
    for r in roots:
        p = p * RationalPoly.from_coeffs([-Fraction(r), 1], "eps")
    return p


def antiderivative(p):
    return RationalPoly.from_coeffs([0, *(c / (k + 1) for k, c in enumerate(p.coeffs))], "eps")


# (p, bracket) with den = 1, so the rank W is num, an antiderivative of p
SYNTHETIC_CASES = {
    # roots on midpoints of Descartes bisection give degenerate intervals,
    # and S is read midway between two of them; the second ties W(2) = W(6)
    "degenerate": (from_roots(2, 4, 7), (0, 8)),
    "degenerate-tie": (from_roots(2, 4, 6), (0, 8)),
    # a double root: isolation runs on the square-free part, whose sign
    # between 1/3 and 7/3 differs from p's for one of the two signs of p
    "even-multiplicity": (from_roots("1/3", "1/3", "7/3"), (0, 4)),
    "even-multiplicity-negated": (from_roots("1/3", "1/3", "7/3", c=-1), (0, 4)),
    # roots at both bracket ends
    "bracket-ends": (from_roots(0, 2, 5), (0, 5)),
    # peak, valley, peak: the valley is the lone survivor at state 0
    "peak-first": (from_roots("1/3", "7/3", "13/3", c=-1), (0, 6)),
    # two valleys around a peak
    "two-valleys": (from_roots("1/3", "4/3", "10/3"), (0, 6)),
    # W falls through two inflections to a valley, or rises from one through two
    "falling-run": (from_roots("1/3", "1/3", "2/3", "2/3", "4/3"), (0, 2)),
    "rising-run": (from_roots("1/3", "2/3", "2/3", "4/3", "4/3"), (0, 2)),
}


@pytest.mark.parametrize("name", list(SYNTHETIC_CASES))
def test_rank_selection_matches_refining_every_candidate(name):
    p, bracket = SYNTHETIC_CASES[name]
    rank = antiderivative(p).eval
    roots = len(rootfind.isolate_real_roots(p, bracket)[1])
    tol = Fraction(1, 10**20)
    for state in range(roots + 2):
        want = select_by_refining_every_candidate(p, bracket, state, tol, rank)
        got = select_root(p, bracket, state, DEFAULT_SELECTION, tol, rank)
        assert got == want
        assert (got is None) == (state >= roots)


def test_the_square_free_sign_differs_from_p_in_one_synthetic_case():
    # so reading the isolated polynomial's sign between the roots would
    # order W wrongly there
    signs = set()
    for name in ("even-multiplicity", "even-multiplicity-negated"):
        p, bracket = SYNTHETIC_CASES[name]
        isolated, _ = rootfind.isolate_real_roots(p, bracket)
        assert isolated.degree == 2
        signs.add(isolated.eval(1) * p.eval(1) > 0)
    assert signs == {True, False}


@pytest.mark.parametrize(
    "name, refines", [("peak-first", 1), ("falling-run", 1), ("two-valleys", 3)]
)
def test_a_lone_survivor_at_state_zero_is_refined_once(monkeypatch, name, refines):
    # two survivors are compared at coarse enclosures first
    p, bracket = SYNTHETIC_CASES[name]
    rank = antiderivative(p).eval
    tol = Fraction(1, 10**20)
    want = select_by_refining_every_candidate(p, bracket, 0, tol, rank)
    calls = []
    refine = rootfind.refine_enclosure
    monkeypatch.setattr(rootfind, "refine_enclosure", lambda *a: calls.append(a) or refine(*a))
    assert select_root(p, bracket, 0, DEFAULT_SELECTION, tol, rank) == want
    assert len(calls) == refines
