"""Energy-parameterized series coefficients, boundary polynomial, trial."""

import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxeig.cli import main
from boxeig.model import PotentialSpec
from boxeig.poly import RationalPoly
from boxeig.series import boundary_polynomial, build_series, solve_a1

from references import monomial, specialize, trial_terms

V0 = PotentialSpec.linear(0)
V1 = PotentialSpec.linear(Fraction(1))

small_rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)

potentials = st.one_of(
    st.just(V0),
    small_rationals.map(PotentialSpec.linear),
    st.lists(small_rationals, min_size=0, max_size=4).map(
        lambda cs: PotentialSpec.general(RationalPoly.from_coeffs(cs, "q"))
    ),
)


# ---------------------------------------------------------------------------
# seeds and low-order hand values


def test_seed_coefficients():
    s = build_series(V1, 6)
    zero = RationalPoly.zero("eps")
    assert s.c[0] == zero
    assert s.c[1] == RationalPoly.constant(1, "eps")
    assert s.c[2] == zero


def test_hand_evaluated_low_orders():
    # v=0, j=3: c3 = -eps c1 / 6
    s0 = build_series(V0, 5)
    assert s0.c[3] == RationalPoly.from_coeffs([0, Fraction(-1, 6)], "eps")
    # v=0, j=5: c5 = eps^2/120
    assert s0.c[5] == RationalPoly.from_coeffs([0, 0, Fraction(1, 120)], "eps")
    # v=q (lam=1), j=4: c4 = v1 c1 / 12 = 1/12
    s1 = build_series(V1, 4)
    assert s1.c[4].coeff(0) == Fraction(1, 12)


def recurrence_reference(potential, n):
    """The recurrence on RationalPoly sums, one per potential term and order."""
    v = potential.v
    zero = RationalPoly.zero("eps")
    c = [zero, RationalPoly.constant(1, "eps"), zero]
    eps = monomial(1, 1, "eps")
    for j in range(3, n + 1):
        acc = zero
        for i in range(1, j - 1):
            vk = v.coeff(j - i - 2)
            if vk:
                acc = acc + c[i] * vk
        acc = acc - eps * c[j - 2]
        c.append(acc * Fraction(1, j * (j - 1)))
    return tuple(c)


def test_series_equals_the_polynomial_recurrence():
    # the integer recurrence against the RationalPoly one: the sweep rows,
    # lam = 3/7 and 1/1000, and seeded cubics and a sextic with rational
    # coefficients
    rng = random.Random(20261019)
    pots = [PotentialSpec.linear(Fraction(lam)) for lam in ("0", "1", "3/7", "-7", "-30", "1/1000")]
    pots += [
        PotentialSpec.general(
            RationalPoly.from_coeffs(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(degree + 1)], "q"
            )
        )
        for degree in (3, 3, 6)
    ]
    for potential in pots:
        for n in range(3, 23):
            assert build_series(potential, n).c == recurrence_reference(potential, n)


def test_requires_order_three():
    with pytest.raises(ValueError):
        build_series(V0, 2)


# ---------------------------------------------------------------------------
# structural invariants


@settings(max_examples=25, derandomize=True)
@given(potentials, st.integers(min_value=3, max_value=12))
def test_degree_bound(potential, n):
    s = build_series(potential, n)
    for j, cj in enumerate(s.c):
        assert cj.degree <= (j - 1) // 2 if j else cj.is_zero


def test_free_box_closed_form():
    # v = 0: c_{2k+1} = (-1)^k eps^k / (2k+1)! and even coefficients vanish
    n = 21
    s = build_series(V0, n)
    for j in range(2, n + 1, 2):
        assert s.c[j].is_zero
    for k in range((n - 1) // 2 + 1):
        expected = monomial(
            k, Fraction((-1) ** k, math.factorial(2 * k + 1)), "eps"
        )
        assert s.c[2 * k + 1] == expected, f"odd coefficient c_{2*k+1}"


def test_boundary_polynomial_is_sine_series_truncation():
    # For v=0, B(eps) truncates sin(sqrt(eps))/sqrt(eps) = sum (-eps)^k/(2k+1)!
    for n in (4, 5, 13, 21):
        b = boundary_polynomial(build_series(V0, n))
        deg = (n - 1) // 2
        assert b.degree == deg
        for k in range(deg + 1):
            assert b.coeff(k) == Fraction((-1) ** k, math.factorial(2 * k + 1))


def test_boundary_polynomial_hand_values():
    assert boundary_polynomial(build_series(V0, 4)) == RationalPoly.from_coeffs(
        [1, Fraction(-1, 6)], "eps"
    )
    assert boundary_polynomial(build_series(V1, 4)) == RationalPoly.from_coeffs(
        [Fraction(13, 12), Fraction(-1, 6)], "eps"
    )
    # N=5, v=0: 1 - eps/6 + eps^2/120, discriminant 1/36 - 1/30 < 0
    b5 = boundary_polynomial(build_series(V0, 5))
    assert b5 == RationalPoly.from_coeffs([1, Fraction(-1, 6), Fraction(1, 120)], "eps")


def test_potential_truncation_is_noop():
    # coefficients of v beyond degree N-3 cannot influence c_0..c_N
    n = 8
    v_low = PotentialSpec.general(RationalPoly.from_coeffs([1, 2, 0, 3, 0, 1], "q"))
    extended = list(v_low.v.coeffs) + [0] * (n - 3 - v_low.v.degree) + [7, -5]
    v_high = PotentialSpec.general(RationalPoly.from_coeffs(extended, "q"))
    assert build_series(v_low, n).c == build_series(v_high, n).c


# ---------------------------------------------------------------------------
# residual property: the recurrence kills low-order residual terms


@settings(max_examples=20, derandomize=True)
@given(potentials, st.integers(min_value=4, max_value=10), small_rationals)
def test_schroedinger_residual_vanishes_through_n_minus_2(potential, n, eps):
    phi = specialize(build_series(potential, n), eps)
    residual = -phi.differentiate().differentiate() + (potential.v - eps) * phi
    for k in range(n - 1):
        assert residual.coeff(k) == 0, f"residual power q^{k}"


# ---------------------------------------------------------------------------
# specialize


def test_specialize_at_zero_energy_free_box():
    phi = specialize(build_series(V0, 13), Fraction(0))
    assert phi == monomial(1, 1, "q")


def test_specialize_boundary_consistency():
    rng = random.Random(7)
    for _ in range(5):
        eps = Fraction(rng.randint(1, 400), rng.randint(1, 7))
        s = build_series(V1, 9)
        assert specialize(s, eps).eval(Fraction(1)) == boundary_polynomial(s).eval(eps)


def test_specialized_series_tracks_sine():
    # at eps = pi^2 (as a float's exact rational), the N=13 series is the
    # Maclaurin polynomial of sin(pi q)/pi up to the truncation remainder;
    # the alternating-series bound for the first dropped term (q^15) is
    # pi^14/15! ~ 7.0e-6, so the sup deviation on [0,1] stays below 1e-5
    phi = specialize(build_series(V0, 13), Fraction(math.pi**2))
    worst = max(
        abs(float(phi.eval(Fraction(i, 200))) - math.sin(math.pi * i / 200) / math.pi)
        for i in range(201)
    )
    assert worst < 1e-5
    assert worst > 1e-7, "deviation should be dominated by the truncation term"


# ---------------------------------------------------------------------------
# one run at the largest order serves every smaller one

# ramps over lambda in [-200, 200] and cubics with coefficients of both signs
ramps_and_cubics = st.one_of(
    st.fractions(-200, 200, max_denominator=60).map(PotentialSpec.linear),
    st.lists(st.fractions(-200, 200, max_denominator=9), min_size=4, max_size=4)
    .filter(lambda cs: cs[3] != 0 and min(cs) < 0 < max(cs))
    .map(lambda cs: PotentialSpec.general(RationalPoly.from_coeffs(cs, "q"))),
)
# order sets as a command takes them: repeats, gaps, unsorted and single orders
order_sets = st.one_of(
    st.lists(st.integers(min_value=4, max_value=24), min_size=1, max_size=6),
    st.sampled_from([(4,), (64,), (9, 7, 9), (30, 4, 64, 4, 17)]),
)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(ramps_and_cubics, order_sets)
@example(PotentialSpec.linear(-200), (64,))
@example(PotentialSpec.linear(Fraction(1, 3)), (4,))
@example(PotentialSpec.linear(200), (9, 7, 9))
def test_prefixes_of_one_run_are_the_series_of_each_order(potential, orders):
    top = build_series(potential, max(orders))
    for n in orders:
        series = top.prefix(n)
        assert series == build_series(potential, n)
        b = sum(series.c[1:], RationalPoly.zero("eps"))
        assert boundary_polynomial(series) == b


def test_prefix_refuses_orders_the_run_does_not_hold():
    series = build_series(V1, 9)
    assert series.prefix(9) is series
    for n in (2, 10):
        with pytest.raises(ValueError, match="prefix"):
            series.prefix(n)


def test_each_prefix_notes_the_potential_terms_it_ignores(caplog, tmp_path):
    # v of degree 7 reaches c_10 first: rows N = 5..9 ignore some of it
    path = tmp_path / "deg7.box"
    path.write_text("m=1/2\nhbar=1\nL1=0\nL2=1\n0 1\n1 -2\n7 3\n")
    with caplog.at_level(logging.INFO, logger="boxeig.series"):
        assert main(["solve", "--potential", str(path), "--n", "5..11"]) in (0, 2)
    notes = [rec.args for rec in caplog.records if "ignored" in rec.getMessage()]
    assert notes == [(n - 3, n) for n in range(5, 10)]


# ---------------------------------------------------------------------------
# trial functions


def test_trial_vanishes_at_both_walls_identically():
    for potential in (V0, V1):
        series = build_series(potential, 7)
        for eps in (Fraction(0), Fraction(5), Fraction(-3, 2), Fraction(97, 7)):
            phi = specialize(series, eps, trial=True)
            assert phi.eval(Fraction(0)) == 0
            assert phi.eval(Fraction(1)) == 0


def test_trial_terms_match_series():
    series = build_series(V0, 4)
    assert trial_terms(series) == ((1, series.c[1]), (3, series.c[3]))
    # at eps = 6 the trial collapses to q - q^3 exactly
    phi = specialize(series, Fraction(6), trial=True)
    assert phi == RationalPoly.from_coeffs([0, 1, 0, -1], "q")


# ---------------------------------------------------------------------------
# boundary-root estimates (A1)


def test_solve_a1_known_roots():
    est = solve_a1(build_series(V0, 4))
    assert est is not None and est.eps == 6.0
    est = solve_a1(build_series(V1, 4))
    assert est is not None and abs(est.eps - 6.5) < 1e-24


def test_solve_a1_no_real_root_cases():
    for potential in (V0, V1):
        assert solve_a1(build_series(potential, 5)) is None
        assert solve_a1(build_series(potential, 6)) is None


def test_solve_a1_pairs_coincide_for_free_box():
    # for v=0 the boundary polynomial is identical for N=2m and 2m-1,
    # explaining the repeated values in the reference tables
    for n in (7, 9, 11, 13):
        assert boundary_polynomial(build_series(V0, n)) == boundary_polynomial(
            build_series(V0, n + 1)
        )


def test_solve_a1_enclosure_certificate():
    series = build_series(V0, 13)
    est = solve_a1(series)
    lo, hi = est.enclosure
    b = boundary_polynomial(series)
    assert b.eval(lo) * b.eval(hi) < 0
    assert hi - lo <= Fraction(2, 10**26)
    assert lo <= est.eps <= hi
