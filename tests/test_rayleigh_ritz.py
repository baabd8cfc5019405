"""Secular-determinant reference method on the q^j - q^n basis."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxeig.model import PotentialSpec
from boxeig.poly import RationalPoly
from boxeig.rayleigh_ritz import (
    bareiss_determinant,
    basis_function,
    basis_matrices,
    build_secular,
    solve_secular,
)
from boxeig.rootfind import count_real_roots

V0 = PotentialSpec.zero()
V1 = PotentialSpec.linear(Fraction(1))
V_MINUS_7 = PotentialSpec.linear(Fraction(-7))
V_MINUS_30 = PotentialSpec.linear(Fraction(-30))
CUBIC = PotentialSpec.general(
    RationalPoly.from_coeffs([Fraction(1, 3), 2, Fraction(-5, 2), 1], "q")
)


# ---------------------------------------------------------------------------
# matrix elements, exactly


def test_basis_function_vanishes_at_walls():
    for n in (3, 5, 9):
        for j in range(1, n):
            f = basis_function(j, n)
            assert f.eval(Fraction(0)) == 0
            assert f.eval(Fraction(1)) == 0


def test_hand_computed_elements_n3():
    sys3 = build_secular(V0, 3)
    assert sys3.s[0][0] == Fraction(8, 105)
    assert sys3.s[1][1] == Fraction(1, 105)
    assert sys3.s[0][1] == Fraction(11, 420)
    assert sys3.h[0][0] == Fraction(4, 5)
    assert sys3.h[1][1] == Fraction(2, 15)
    assert sys3.h[0][1] == Fraction(3, 10)


def closed_form_s(i, j, n):
    return (
        Fraction(1, i + j + 1)
        - Fraction(1, i + n + 1)
        - Fraction(1, j + n + 1)
        + Fraction(1, 2 * n + 1)
    )


def closed_form_h_free(i, j, n):
    return (
        Fraction(i * j, i + j - 1)
        - Fraction(i * n, i + n - 1)
        - Fraction(j * n, j + n - 1)
        + Fraction(n * n, 2 * n - 1)
    )


@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_closed_form_matrix_elements(n):
    sys_n = build_secular(V0, n)
    for i in range(1, n):
        for j in range(1, n):
            assert sys_n.s[i - 1][j - 1] == closed_form_s(i, j, n)
            assert sys_n.h[i - 1][j - 1] == closed_form_h_free(i, j, n)


@pytest.mark.parametrize("n", range(3, 10))
def test_basis_matrices_match_direct_integration(n):
    # reference: integrate the products of the basis polynomials term by term
    s, h = basis_matrices(CUBIC, n)
    f = [basis_function(j, n) for j in range(1, n)]
    for i, fi in enumerate(f):
        for j, fj in enumerate(f):
            fifj = fi * fj
            assert s[i][j] == fifj.integrate_01()
            kinetic = fi.differentiate() * fj.differentiate()
            assert h[i][j] == (kinetic + CUBIC.v * fifj).integrate_01()


@pytest.mark.parametrize("n", [4, 6, 9])
def test_linear_potential_shifts_h_by_moment(n):
    # v = lam*q adds lam * integral(q f_i f_j), which is the S-type sum
    # with every index shifted by one
    lam = Fraction(3, 2)
    sys_v = build_secular(PotentialSpec.linear(lam), n)
    sys_0 = build_secular(V0, n)
    for i in range(1, n):
        for j in range(1, n):
            moment = (
                Fraction(1, i + j + 2)
                - Fraction(1, i + n + 2)
                - Fraction(1, j + n + 2)
                + Fraction(1, 2 * n + 2)
            )
            assert sys_v.h[i - 1][j - 1] == sys_0.h[i - 1][j - 1] + lam * moment
            assert sys_v.s[i - 1][j - 1] == sys_0.s[i - 1][j - 1]


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_matrices_symmetric_exactly(n):
    sys_n = build_secular(V1, n)
    for i in range(sys_n.size):
        for j in range(sys_n.size):
            assert sys_n.s[i][j] == sys_n.s[j][i]
            assert sys_n.h[i][j] == sys_n.h[j][i]


@pytest.mark.parametrize("n", [3, 4, 6, 9, 12])
def test_overlap_matrix_positive_definite(n):
    s = build_secular(V1, n).s
    minors = [gaussian_determinant([row[:k] for row in s[:k]]) for k in range(1, n)]
    assert len(minors) == n - 1
    assert all(m > 0 for m in minors)


# ---------------------------------------------------------------------------
# the n = 3 secular problem is solvable by hand: det(H - eps S) has
# roots exactly 10 and 42


def test_secular_polynomial_n3_exact():
    sys3 = build_secular(V0, 3)
    assert sys3.char_poly == RationalPoly.from_coeffs(
        [Fraction(1, 60), Fraction(-13, 6300), Fraction(1, 25200)], "eps"
    )
    # scaled: eps^2 - 52 eps + 420 = (eps - 10)(eps - 42)
    assert sys3.char_poly * 25200 == RationalPoly.from_coeffs([420, -52, 1], "eps")


def test_secular_roots_n3_exact():
    ground = solve_secular(build_secular(V0, 3))
    assert abs(ground.eps - 10.0) < 1e-20
    excited = solve_secular(build_secular(V0, 3), (Fraction(0), Fraction(100)), state=1)
    assert abs(excited.eps - 42.0) < 1e-18


# ---------------------------------------------------------------------------
# determinant structure


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_char_poly_degree_and_leading_coeff(n):
    sys_n = build_secular(V1, n)
    size = n - 1
    assert sys_n.char_poly.degree == size
    # leading eps-coefficient of det(H - eps S) is (-1)^size det(S)
    det_s = gaussian_determinant(sys_n.s)
    assert sys_n.char_poly.coeff(size) == (-1) ** size * det_s


@pytest.mark.parametrize("n", [3, 4, 6, 8, 10])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1)])
def test_all_roots_real(n, lam):
    sys_n = build_secular(PotentialSpec.linear(lam), n)
    # a symmetric pencil with positive definite S has a full set of real
    # eigenvalues; they all lie in (0, hi) for a wide enough hi
    hi = Fraction(10**6)
    assert count_real_roots(sys_n.char_poly, Fraction(0), hi) == sys_n.size


def gaussian_determinant(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination with row exchanges."""
    size = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        for i in range(k + 1, size):
            factor = a[i][k] / a[k][k]
            for j in range(k, size):
                a[i][j] -= factor * a[k][j]
        det *= a[k][k]
    return det


def leibniz_determinant(matrix):
    size = len(matrix)
    var = matrix[0][0].var
    total = RationalPoly.zero(var)
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = RationalPoly.from_coeffs([sign], var)
        for i in range(size):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_bareiss_matches_leibniz(size, rng):
    # rational coefficients with unlike denominators, entries of degree up to
    # 3, and some zero entries, which make the elimination exchange rows
    matrix = [
        [
            RationalPoly.from_coeffs(
                [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                    for _ in range(rng.choice((0, 1, 2, 3, 4)))
                ],
                "eps",
            )
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    assert bareiss_determinant(matrix) == leibniz_determinant(matrix)


def test_bareiss_matches_gaussian_on_constants():
    rng = random.Random(20260816)
    for _ in range(30):
        size = rng.randint(1, 6)
        entries = [[Fraction(rng.randint(-20, 20)) for _ in range(size)] for _ in range(size)]
        as_polys = [
            [RationalPoly.from_coeffs([x], "eps") for x in row] for row in entries
        ]
        det_poly = bareiss_determinant(as_polys)
        det_gauss = gaussian_determinant(entries)
        assert det_poly.degree <= 0
        assert det_poly.coeff(0) == det_gauss


@pytest.mark.parametrize("n", range(3, 17))
@pytest.mark.parametrize(
    "potential",
    [V0, V1, V_MINUS_7, V_MINUS_30, CUBIC],
    ids=["0", "q", "-7q", "-30q", "cubic"],
)
def test_char_poly_is_the_pencil_determinant(potential, n):
    # a polynomial of degree n - 1 that agrees with det(H - eps S) at n
    # distinct points is det(H - eps S)
    system = build_secular(potential, n)
    assert system.char_poly.degree == n - 1
    for k in range(n):
        eps = Fraction(7 * k - 20, 3)
        pencil = [
            [system.h[i][j] - eps * system.s[i][j] for j in range(system.size)]
            for i in range(system.size)
        ]
        assert system.char_poly.eval(eps) == gaussian_determinant(pencil)


def test_bareiss_singular_matrix_is_zero_poly():
    row = [RationalPoly.from_coeffs([1, 2], "eps"), RationalPoly.from_coeffs([3], "eps")]
    det = bareiss_determinant([row, list(row)])
    assert det.is_zero


def test_bareiss_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_determinant([[RationalPoly.one("eps")], [RationalPoly.one("eps")]])
    with pytest.raises(ValueError):
        bareiss_determinant([])


# ---------------------------------------------------------------------------
# variational behaviour of the estimates


@pytest.mark.parametrize("lam,eps0", [(0, math.pi**2), (1, 10.368507161836337127)])
def test_ground_state_nonincreasing_and_above_exact(lam, eps0):
    potential = PotentialSpec.linear(Fraction(lam))
    previous = None
    for n in range(3, 11):
        est = solve_secular(build_secular(potential, n))
        assert est.eps >= eps0 - 1e-12
        if previous is not None:
            assert est.eps <= previous + 1e-15
        previous = est.eps


def test_excited_states_interlace():
    # adding a basis function can only lower each variational level
    for state in (0, 1, 2):
        bracket = (Fraction(0), Fraction(10**4))
        coarse = solve_secular(build_secular(V0, 6), bracket, state)
        fine = solve_secular(build_secular(V0, 7), bracket, state)
        assert fine.eps <= coarse.eps + 1e-12
        exact = math.pi**2 * (state + 1) ** 2
        assert fine.eps >= exact - 1e-12


def test_residual_is_small_at_roots():
    system = build_secular(V0, 8)
    est = solve_secular(system)
    # the residual is the monic determinant prod_k (eps_k - eps) at the midpoint
    det_s = gaussian_determinant(system.s)
    assert abs(system.char_poly.eval(est.eps)) / det_s < 1e-20


def test_estimate_beyond_the_float_range_is_exact():
    # at lambda = 1e60 the monic determinant at the midpoint exceeds 1e308;
    # the estimate is the exact enclosure and its midpoint all the same
    est = solve_secular(build_secular(PotentialSpec.linear(10**60), 10))
    assert 0 < est.eps < 10**61 and est.enclosure[0] <= est.eps <= est.enclosure[1]


def test_state_out_of_range():
    # N=4 gives a basis of size 3, so det(H - eps S) has no fourth root
    system = build_secular(V0, 4)
    assert system.size == 3
    assert solve_secular(system, state=3) is None
    assert solve_secular(system, state=2) is not None


def test_min_basis_order():
    with pytest.raises(ValueError):
        build_secular(V0, 2)
