"""Rayleigh quotient forms, stationary points, and fixed points."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxeig.cli import format_significant
from boxeig.estimates import RootSelection
from boxeig.model import PotentialSpec
from boxeig.poly import RationalPoly
from boxeig.series import EnergySeries, build_series
from boxeig.variational import RayleighQuotient, build_quotients, solve_a2, solve_a3

from references import count_real_roots, integrate_01, monomial, specialize, trial_terms
from test_rayleigh_ritz import basis_function, monomial_matrices, secular_at
from test_series import order_sets, ramps_and_cubics

V0 = PotentialSpec.linear(0)
V1 = PotentialSpec.linear(Fraction(1))
CUBIC = PotentialSpec.general(
    RationalPoly.from_coeffs([Fraction(1, 3), 2, Fraction(-5, 2), 1], "q")
)

small_rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)



def quotient_at(potential, n):
    """The quotient of the order-n trial function, from the series of order n."""
    return build_quotients(build_series(potential, n), (n,))[n]


potentials = st.one_of(
    st.just(V0),
    small_rationals.map(PotentialSpec.linear),
    st.lists(small_rationals, min_size=0, max_size=4).map(
        lambda cs: PotentialSpec.general(RationalPoly.from_coeffs(cs, "q"))
    ),
)


# ---------------------------------------------------------------------------
# the N=4 free-box quotient, derived fully by hand
#
# phi = (q - q^4) - (eps/6)(q^3 - q^4) gives
#   num(eps) = integral of phi'^2 = eps^2/420 - 2 eps/21 + 9/7
#   den(eps) = integral of phi^2  = eps^2/9072 - 7 eps/1080 + 1/9


def test_hand_derived_quotient_n4():
    rq = quotient_at(V0, 4)
    assert rq.num == RationalPoly.from_coeffs(
        [Fraction(9, 7), Fraction(-2, 21), Fraction(1, 420)], "eps"
    )
    assert rq.den == RationalPoly.from_coeffs(
        [Fraction(1, 9), Fraction(-7, 1080), Fraction(1, 9072)], "eps"
    )


def test_quotient_value_at_zero_energy():
    # W(0) = (9/7)/(1/9) = 81/7 for the N=4 free box
    rq = quotient_at(V0, 4)
    assert rq.value(Fraction(0)) == Fraction(81, 7)


# ---------------------------------------------------------------------------
# structural identities


def kinetic_energy_forms(series) -> tuple[RationalPoly, RationalPoly]:
    """(integral of phi'^2, integral of -phi phi'') as eps-polynomials.

    phi is the trial function of the series.  The first is the numerator of
    its quotient with the potential left out; the second integrates
    -f_i f_j'' of the basis polynomials f_j = q^j - q^n directly.  The two
    agree identically for functions vanishing at both walls.
    """
    n = series.n
    free = EnergySeries(n, PotentialSpec.linear(0), series.c, series.sums)
    by_parts = build_quotients(free, (n,))[n].num
    terms = trial_terms(series)
    f = [basis_function(j, n) for j, _ in terms]
    ddf = [fj.differentiate().differentiate() for fj in f]
    literal = RationalPoly.zero("eps")
    for (_, ci), fi in zip(terms, f):
        row = RationalPoly.zero("eps")
        for (_, cj), ddfj in zip(terms, ddf):
            row = row + cj * -integrate_01(fi * ddfj)
        literal = literal + ci * row
    return by_parts, literal


@settings(max_examples=20, derandomize=True, deadline=None)
@given(potentials, st.integers(min_value=4, max_value=10))
def test_kinetic_forms_agree_exactly(potential, n):
    by_parts, literal = kinetic_energy_forms(build_series(potential, n))
    assert by_parts == literal


def _quadratic_form(matrix, terms) -> RationalPoly:
    """sum_i c_i sum_j matrix[i-1][j-1] c_j over the terms (j, c_j)."""
    acc = RationalPoly.zero("eps")
    for i, ci in terms:
        row = matrix[i - 1]
        acc = acc + ci * sum((cj * row[j - 1] for j, cj in terms), RationalPoly.zero("eps"))
    return acc


def matrix_quotient(series):
    """(c^T H c, c^T S c) with the matrices of the basis q^j - q^n: the reference quotient."""
    s, h = monomial_matrices(series.potential, series.n)
    terms = trial_terms(series)
    return _quadratic_form(h, terms), _quadratic_form(s, terms)


def _random_cubic(seed):
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4)]
    return PotentialSpec.general(RationalPoly.from_coeffs(coeffs, "q"))


DIFFERENTIAL_POTENTIALS = {
    **{f"lam={lam}": PotentialSpec.linear(Fraction(lam)) for lam in ("0", "1", "3/7", "-7", "-30")},
    **{f"cubic-{seed}": _random_cubic(seed) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL_POTENTIALS))
def test_quotient_equals_the_matrix_quotient(name):
    # the q-coefficient kernel against c^T H c / c^T S c; at lam = 0 every
    # even c_j vanishes, so the kernel skips those rows and columns
    potential = DIFFERENTIAL_POTENTIALS[name]
    for n in range(4, 21):
        series = build_series(potential, n)
        if potential.v.is_zero:
            assert len(trial_terms(series)) == n // 2
        rq = quotient_at(potential, n)
        assert (rq.num, rq.den) == matrix_quotient(series)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(ramps_and_cubics, order_sets)
@example(PotentialSpec.linear(-200), (64,))
@example(PotentialSpec.linear(Fraction(1, 3)), (4,))
@example(PotentialSpec.linear(200), (9, 7, 9))
def test_one_pass_builds_the_matrix_quotient_of_every_order(potential, orders):
    # the running forms F_n of one pass at the largest order against
    # c^T H c / c^T S c of each row's own trial function
    quotients = build_quotients(build_series(potential, max(orders)), orders)
    assert sorted(quotients) == sorted(set(orders))
    for n in orders:
        series = build_series(potential, n)
        rq = quotients[n]
        assert (rq.n, rq.potential) == (n, potential)
        assert (rq.num, rq.den) == matrix_quotient(series)
        assert rq == quotient_at(potential, n)


def test_build_quotients_refuses_orders_outside_its_series():
    series = build_series(V1, 9)
    for orders in ((3, 9), (4, 10)):
        with pytest.raises(ValueError, match="quotient orders"):
            build_quotients(series, orders)


@pytest.mark.parametrize("n", range(4, 10))
def test_quotient_matches_direct_integration(n):
    # reference: integrate the specialized trial polynomial in q
    rq = quotient_at(CUBIC, n)
    series = build_series(CUBIC, n)
    for eps in (Fraction(0), Fraction(7, 2), Fraction(-13, 3), Fraction(50)):
        phi = specialize(series, eps, trial=True)
        dphi = phi.differentiate()
        num = integrate_01(dphi * dphi + CUBIC.v * phi * phi)
        den = integrate_01(phi * phi)
        assert rq.num.eval(eps) == num
        assert rq.den.eval(eps) == den
        assert rq.value(eps) == num / den


@settings(max_examples=15, derandomize=True, deadline=None)
@given(potentials, st.integers(min_value=4, max_value=9))
def test_denominator_positive_on_random_rationals(potential, n):
    rq = quotient_at(potential, n)
    rng = random.Random(n * 1000 + 17)
    for _ in range(70):
        eps = Fraction(rng.randint(-20000, 20000), rng.randint(1, 100))
        assert rq.den.eval(eps) > 0, "norm of a nonzero trial function"


def test_denominator_positive_dense_sample():
    # den(eps) is the norm of a nonzero trial function, so it must stay
    # positive; hammer it at 1000 random rational points
    rng = random.Random(20260816)
    rq0 = quotient_at(V0, 8)
    rq1 = quotient_at(V1, 9)
    for _ in range(500):
        eps = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        assert rq0.den.eval(eps) > 0
        assert rq1.den.eval(eps) > 0


# den = integral of phi^2 and c_1 = 1, so phi is a nonzero polynomial in q at
# every real eps and den has no real root: W' = S / den^2 has the sign of S,
# which is what lets select_root drop the stationary points that W's
# monotone runs leave out of contention
quotient_cases = (ramps_and_cubics, st.integers(min_value=4, max_value=30))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(*quotient_cases)
@example(PotentialSpec.linear(-200), 30)
@example(PotentialSpec.linear(200), 4)
def test_denominator_has_no_real_root(potential, n):
    den = quotient_at(potential, n).den
    # Cauchy: every root of sum a_i x^i lies within 1 + max |a_i / a_d|
    *lower, top = den.coeffs
    bound = 1 + max(abs(c / top) for c in lower)
    assert count_real_roots(den, -bound, bound) == 0
    assert den.eval(0) > 0


# ---------------------------------------------------------------------------
# stationary points (A2)


def test_stationarity_polynomial_n4_exact():
    # S = num' den - num den'; the cubic terms cancel, leaving the
    # hand-derived quadratic with these ascending coefficients
    s = quotient_at(V0, 4).stationarity_polynomial()
    assert s == RationalPoly.from_coeffs(
        [Fraction(-17, 7560), Fraction(13, 52920), Fraction(-47, 9525600)], "eps"
    )


def product_rule_stationarity(num, den):
    """S = num' den - num den', built with RationalPoly arithmetic."""
    return num.differentiate() * den - num * den.differentiate()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(*quotient_cases)
@example(PotentialSpec.linear(2000), 30)
def test_one_pass_stationarity_equals_the_product_rule(potential, n):
    q = quotient_at(potential, n)
    s = q.stationarity_polynomial()
    assert s == product_rule_stationarity(q.num, q.den)


EDGE_FORMS = [
    ([3, -1, 2], [5]),  # den constant: S = num' den
    ([7], [1, 1, 1]),  # num constant: S = -num den'
    ([2, 4], [1, 2]),  # num = 2 den: S = 0
    ([], [1, 1]),  # num zero
    ([Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)], [Fraction(9, 4), 0, Fraction(-1, 6), 1]),
]


def edge_quotient(num, den):
    return RayleighQuotient(4, V0, RationalPoly.from_coeffs(num, "eps"), RationalPoly.from_coeffs(den, "eps"))


@pytest.mark.parametrize("num, den", EDGE_FORMS)
def test_one_pass_stationarity_on_edge_forms(num, den):
    q = edge_quotient(num, den)
    assert q.stationarity_polynomial() == product_rule_stationarity(q.num, q.den)


# ---------------------------------------------------------------------------
# the quotient value W = num/den


def test_value_takes_one_fraction_equal_to_the_ratio_of_evaluations():
    # at 0, at negative rationals and where num and den differ in degree
    # (A2 and A3 quotients have equal degrees; the edge forms do not)
    points = [Fraction(0), Fraction(-7, 3), Fraction(-1), Fraction(5, 2), Fraction(-10**9 - 1, 10**9)]
    quotients = [edge_quotient(num, den) for num, den in EDGE_FORMS]
    quotients += [quotient_at(V1, 7), quotient_at(CUBIC, 9), quotient_at(PotentialSpec.linear(-200), 12)]
    for q in quotients:
        for eps in points:
            if q.den.eval(eps):
                assert q.value(eps) == q.num.eval(eps) / q.den.eval(eps), (q, eps)
    assert [q.num.degree - q.den.degree for q in quotients[:5]] == [2, -2, 0, -2, -1]
    with pytest.raises(ZeroDivisionError):
        edge_quotient([1], [1, 1]).value(-1)


def test_second_stationary_point_n4():
    # the larger root of the quadratic above, with W there (hand-derived,
    # 20 digits: 46.069091972022616650); it is a local maximum of W, not
    # a bound improvement, so min-W selection must skip it
    est = solve_a2(quotient_at(V0, 4), state=1)
    assert abs(est.eps - 37.697815065313875) < 1e-12
    assert abs(est.w - 46.06909197202262) < 1e-11
    assert abs(est.w - Fraction("46.069091972022616650")) < Fraction(1, 10**15)


def test_solve_a2_free_box_n4():
    est = solve_a2(quotient_at(V0, 4))
    assert est is not None
    assert abs(est.eps - 12.089418977239319) < 1e-12
    # W at the stationary point, exact: 9.8707576520375337...
    assert abs(est.w - 9.870757652037534) < 1e-12
    assert est.w is not None
    assert abs(est.w - Fraction("9.8707576520375337")) < Fraction(1, 10**15)


def test_solve_a2_reports_quotient_consistency():
    for potential, n in ((V0, 7), (V1, 8), (V1, 5)):
        rq = quotient_at(potential, n)
        est = solve_a2(rq)
        assert est.w == rq.value(est.eps)


def test_solve_a2_selects_minimal_w():
    # N=4 free box has stationary points near 12.09 and 37.7; min-W wins
    rq = quotient_at(V0, 4)
    est = solve_a2(rq)
    assert est.eps < 20
    smallest = solve_a2(rq, selection=RootSelection.parse("smallest"))
    assert smallest.eps == est.eps  # here the smallest is also the min-W point


def test_solve_a2_upper_bound_property():
    # any Rayleigh-quotient value bounds the ground state from above
    pi2 = math.pi**2
    for n in range(4, 14):
        est = solve_a2(quotient_at(V0, n))
        assert est.w >= pi2 - 1e-12
    eps0_ramp = 10.368507161836337127
    for n in range(4, 14):
        est = solve_a2(quotient_at(V1, n))
        assert est.w >= eps0_ramp - 1e-12


# ---------------------------------------------------------------------------
# fixed points (A3)


def test_fixed_point_polynomial_n4_exact():
    # eps*den - num, scaled by 45360, is the integer cubic
    # 5 eps^3 - 402 eps^2 + 9360 eps - 58320 (hand-derived)
    f = quotient_at(V0, 4).fixed_point_polynomial()
    assert f * 45360 == RationalPoly.from_coeffs([-58320, 9360, -402, 5], "eps")


def fixed_point_by_arithmetic(q):
    """F = eps den - num, built with RationalPoly arithmetic."""
    return monomial(1, 1, "eps") * q.den - q.num


@settings(max_examples=40, derandomize=True, deadline=None)
@given(*quotient_cases)
@example(PotentialSpec.linear(2000), 30)
@example(PotentialSpec.linear(Fraction(-7, 3)), 4)
def test_one_pass_fixed_point_equals_the_polynomial_arithmetic(potential, n):
    q = quotient_at(potential, n)
    assert q.fixed_point_polynomial() == fixed_point_by_arithmetic(q)


@pytest.mark.parametrize("num, den", EDGE_FORMS)
def test_one_pass_fixed_point_on_edge_forms(num, den):
    q = edge_quotient(num, den)
    assert q.fixed_point_polynomial() == fixed_point_by_arithmetic(q)


def test_solve_a3_free_box_n4():
    rq = quotient_at(V0, 4)
    est = solve_a3(rq)
    assert est is not None
    # smallest root of the hand cubic, bisected independently to 40 digits
    assert abs(est.eps - 9.97170280057768470646) < 1e-13
    # the residual |eps - W(eps)| at the refined midpoint
    assert abs(est.eps - rq.value(est.eps)) < 1e-24


def test_solve_a3_fixed_point_property():
    for potential, n in ((V0, 9), (V1, 10)):
        rq = quotient_at(potential, n)
        est = solve_a3(rq)
        assert abs(rq.value(est.eps) - est.eps) < Fraction(1, 10**24)


def test_fixed_point_polynomial_roots_are_fixed_points():
    rq = quotient_at(V1, 6)
    f = rq.fixed_point_polynomial()
    est = solve_a3(rq)
    assert abs(f.eval(est.eps)) < Fraction(1, 10**20)


# ---------------------------------------------------------------------------
# excited-state selection warns but works


def test_state_selection_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        solve_a3(quotient_at(V0, 9), state=1)
    assert any("heuristic" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# value-comparing selection

# lam=1, N=10, bracket (0, 200): S has six roots and F five, so each policy
# below chooses among several candidates.  Values pinned at 20 digits.
PINNED_SELECTIONS = [
    (solve_a2, "min-w", 0, "10.367140113775152329", "10.368507295872918292"),
    (solve_a2, "min-w", 1, "48.144551309289899250", "40.068034642150005210"),
    (solve_a3, "nearest:40", 0, "40.886695383691254503", None),
    (solve_a3, "nearest:100", 0, "119.35324096756156566", None),
]


@pytest.mark.parametrize("solve, policy, state, eps, w", PINNED_SELECTIONS)
def test_value_comparing_selection_is_pinned(solve, policy, state, eps, w):
    bracket = (Fraction(0), Fraction(200))
    est = solve(quotient_at(V1, 10), bracket, state, RootSelection.parse(policy))
    assert format_significant(est.eps, 20) == eps
    if w is not None:
        assert format_significant(est.w, 20) == w


# ---------------------------------------------------------------------------
# pinned exact polynomials of the whole pipeline

# sha256 (first 24 hex digits) of the coefficient strings of quotient_at(v, N)
# .num and .den for N = 4..20 and of secular_at(v, N).char_poly for
# N = 4..12, recorded from the earlier implementation that stored each
# coefficient as a Fraction.  A change of representation or of kernel that
# moves any coefficient of any of them fails here.
PIPELINE_DIGESTS = {
    "0": ("5fc7310babb8a45c8e4e485e", "940207058090e7c17866a9fd", "e34389208d5085ff23d38afc"),
    "q": ("1cc5c3daaccaa8818a7e3f4b", "f3cb7e5e8e51aad1b1a5d998", "6b032910efe0bafa7389baf7"),
    "-7q": ("d58abaafdadd54f7a6df1c4c", "9b42b8cf89a7b61d57f48eda", "62c48826b5b71d82613c8a46"),
    "cubic": ("68b6a176a26084fa3d1b89c0", "5bc2de2669bf59a8e751290e", "e487bf86cc7873e156549845"),
}
PIPELINE_POTENTIALS = {"0": V0, "q": V1, "-7q": PotentialSpec.linear(-7), "cubic": CUBIC}


def coefficient_digest(polys) -> str:
    digest = hashlib.sha256()
    for p in polys:
        digest.update((",".join(p.coeff_strings()) + ";").encode())
    return digest.hexdigest()[:24]


@pytest.mark.parametrize("name", list(PIPELINE_DIGESTS))
def test_pipeline_polynomials_match_pinned_digests(name):
    v = PIPELINE_POTENTIALS[name]
    quotients = [quotient_at(v, n) for n in range(4, 21)]
    assert (
        coefficient_digest(q.num for q in quotients),
        coefficient_digest(q.den for q in quotients),
        coefficient_digest(secular_at(v, n).char_poly for n in range(4, 13)),
    ) == PIPELINE_DIGESTS[name]
