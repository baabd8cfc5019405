"""Secular-determinant reference method on the integrated-Legendre basis.

Two earlier implementations serve as references.  The dense one is the
closed-form matrices of the basis q^j - q^n and fraction-free Bareiss
elimination over Z[eps]: every order of ``build_secular_systems``, alone
or in a range, must give exactly its characteristic polynomial.
The Galerkin one is S and H of the phi_k in ``Fraction`` arithmetic, one
dense matrix per order: the integer band pencil must equal it entry by entry.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxeig.estimates import DEFAULT_SELECTION, RootSelection
from boxeig.model import PotentialSpec
from boxeig.poly import RationalPoly, _int_divexact, _int_mul
from boxeig.rayleigh_ritz import (
    _band_pivots,
    _interpolate,
    _pencil,
    build_secular_systems,
    solve_secular,
)

from references import count_real_roots, integrate_01, monomial

V0 = PotentialSpec.linear(0)
V1 = PotentialSpec.linear(Fraction(1))
V_MINUS_7 = PotentialSpec.linear(Fraction(-7))
V_MINUS_30 = PotentialSpec.linear(Fraction(-30))
CUBIC = PotentialSpec.general(
    RationalPoly.from_coeffs([Fraction(1, 3), 2, Fraction(-5, 2), 1], "q")
)


def secular_at(potential, n):
    """The secular system of order n alone."""
    return build_secular_systems(potential, (n,))[n]


def _seeded_potential(seed, degree):
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(degree + 1)]
    return PotentialSpec.general(RationalPoly.from_coeffs(coeffs, "q"))


# v = 0 and a constant (the narrowest band), ramps of both signs, and
# rational cubics and a sextic
POTENTIALS = {
    "0": V0,
    "5": PotentialSpec.general(RationalPoly.from_coeffs([5], "q")),
    **{
        f"lam={lam}": PotentialSpec.linear(Fraction(lam))
        for lam in ("1", "3/7", "-7", "-30", "-3000")
    },
    "cubic": CUBIC,
    **{f"cubic-{seed}": _seeded_potential(seed, 3) for seed in (1, 2, 3)},
    "sextic": _seeded_potential(7, 6),
}


# ---------------------------------------------------------------------------
# the dense reference: the basis f_j = q^j - q^n, j = 1..n-1


def basis_function(j: int, n: int) -> RationalPoly:
    """f_j = q^j - q^n."""
    return monomial(j, 1, "q") - monomial(n, 1, "q")


def monomial_matrices(potential, n):
    """(S, H) of the basis f_j = q^j - q^n, j = 1..n-1, in closed form.

    With M(p) = integral of q^p = 1/(p+1), the q^a moment of f_i f_j is
    M(a+i+j) - M(a+i+n) - M(a+j+n) + M(a+2n), and the kinetic element
    integral f_i' f_j' is ij M(i+j-2) - in M(i+n-2) - jn M(j+n-2) + n^2 M(2n-2).
    S is the q^0 moment; H adds v_k times the q^k moment to the kinetic part.
    """

    def moment(a, i, j):
        return (
            Fraction(1, a + i + j + 1)
            - Fraction(1, a + i + n + 1)
            - Fraction(1, a + j + n + 1)
            + Fraction(1, a + 2 * n + 1)
        )

    def kinetic(i, j):
        return (
            Fraction(i * j, i + j - 1)
            - Fraction(i * n, i + n - 1)
            - Fraction(j * n, j + n - 1)
            + Fraction(n * n, 2 * n - 1)
        )

    v_terms = [(k, vk) for k, vk in enumerate(potential.v.coeffs) if vk]
    s = [[moment(0, i, j) for j in range(1, n)] for i in range(1, n)]
    h = [
        [kinetic(i, j) + sum(vk * moment(k, i, j) for k, vk in v_terms) for j in range(1, n)]
        for i in range(1, n)
    ]
    return s, h


def _int_sub(a, b):
    """a - b for integer coefficient lists, with no trailing zeros."""
    out = [x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def bareiss_determinant(matrix):
    """Exact determinant of a square matrix of RationalPoly, fraction-free.

    The denominators are cleared once: with D the lcm of every coefficient
    denominator, the Bareiss recurrence runs on the integer polynomials
    D a_ij, and det = det(D A) / D^size.  Every division is exact in Z[eps].
    """
    size = len(matrix)
    var = matrix[0][0].var
    den = math.lcm(*(c.denominator for row in matrix for e in row for c in e.coeffs))
    a = [[[int(c * den) for c in e.coeffs] for e in row] for row in matrix]
    sign = 1
    prev = [1]
    for k in range(size - 1):
        if not a[k][k]:
            for i in range(k + 1, size):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return RationalPoly.zero(var)
        pivot, pivot_row = a[k][k], a[k]
        for i in range(k + 1, size):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, size):
                num = _int_sub(_int_mul(pivot, row[j]), _int_mul(lead, pivot_row[j]))
                row[j] = _int_divexact(num, prev)
            row[k] = []
        prev = pivot
    return RationalPoly.from_coeffs(a[size - 1][size - 1], var) * Fraction(sign, den**size)


@functools.cache
def dense_char_poly(potential, n):
    """det(H - eps S) of the basis q^j - q^n by the dense Bareiss loop."""
    s, h = monomial_matrices(potential, n)
    pencil = [
        [RationalPoly.from_coeffs([hij, -sij], "eps") for hij, sij in zip(hrow, srow)]
        for hrow, srow in zip(h, s)
    ]
    return bareiss_determinant(pencil)


def det_t_squared(n):
    """det(T)^2 for T from the basis q^j - q^n to phi_2..phi_n, in closed form."""
    return math.prod(Fraction(math.comb(2 * k, k), 2 * (2 * k - 1)) for k in range(2, n + 1)) ** 2


def shifted_legendre(k):
    """P_k(2q - 1) = sum_j (-1)^(k-j) C(k, j) C(k+j, j) q^j."""
    return RationalPoly.from_coeffs(
        [(-1) ** (k - j) * math.comb(k, j) * math.comb(k + j, j) for j in range(k + 1)], "q"
    )


def phi(k):
    """The integrated-Legendre basis function (P_k - P_{k-2}) / (2(2k-1))."""
    return (shifted_legendre(k) - shifted_legendre(k - 2)) * Fraction(1, 2 * (2 * k - 1))


def _times_q(u):
    """Legendre coefficients of q p from those of p."""
    out = [Fraction(0)] * (len(u) + 1)
    for m, c in enumerate(u):
        if c:
            half = c / (2 * (2 * m + 1))
            out[m] += c / 2
            out[m + 1] += (m + 1) * half
            if m:
                out[m - 1] += m * half
    return out


def galerkin_matrices(potential, n):
    """(S, H) of the basis phi_k, k = 2..n, in closed form: the Galerkin reference.

    Dense ``Fraction`` matrices; entry [i-2][j-2] belongs to phi_i and phi_j.  H takes the Legendre
    coefficients of v phi_i by Horner steps of multiplication by q and
    projects them onto phi_j.
    """
    if n < 3:
        raise ValueError("basis order must be at least 3")
    size = n - 1
    scale = [Fraction(1, 2 * (2 * k - 1)) for k in range(n + 1)]
    s = [[Fraction(0)] * size for _ in range(size)]
    h = [[Fraction(0)] * size for _ in range(size)]
    band = 2 + max(potential.v.degree, 0)
    for i in range(2, n + 1):
        r = i - 2
        s[r][r] = scale[i] ** 2 * (Fraction(1, 2 * i + 1) + Fraction(1, 2 * i - 3))
        if i + 2 <= n:
            s[r][r + 2] = s[r + 2][r] = -scale[i] * scale[i + 2] / (2 * i + 1)
        h[r][r] = Fraction(1, 2 * i - 1)
        w = [Fraction(0)] * (i + 1)
        for vk in reversed(potential.v.coeffs):
            w = _times_q(w)
            w[i] += vk * scale[i]
            w[i - 2] -= vk * scale[i]
        for j in range(i, min(n, i + band) + 1):
            top = w[j] / (2 * j + 1) if j < len(w) else 0
            h[r][j - 2] += scale[j] * (top - w[j - 2] / (2 * j - 3))
            h[j - 2][r] = h[r][j - 2]
    return tuple(map(tuple, s)), tuple(map(tuple, h))


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


# ---------------------------------------------------------------------------
# the reference itself: its matrices and its determinant


def test_basis_function_vanishes_at_walls():
    for n in (3, 5, 9):
        for j in range(1, n):
            f = basis_function(j, n)
            assert f.eval(Fraction(0)) == 0
            assert f.eval(Fraction(1)) == 0


def test_hand_computed_elements_n3():
    s, h = monomial_matrices(V0, 3)
    assert s[0][0] == Fraction(8, 105)
    assert s[1][1] == Fraction(1, 105)
    assert s[0][1] == s[1][0] == Fraction(11, 420)
    assert h[0][0] == Fraction(4, 5)
    assert h[1][1] == Fraction(2, 15)
    assert h[0][1] == h[1][0] == Fraction(3, 10)


@pytest.mark.parametrize("n", range(3, 10))
def test_basis_matrices_match_direct_integration(n):
    # the reference's closed forms against the products of the basis
    # polynomials, integrated term by term
    s, h = monomial_matrices(CUBIC, n)
    f = [basis_function(j, n) for j in range(1, n)]
    for i, fi in enumerate(f):
        for j, fj in enumerate(f):
            fifj = fi * fj
            assert s[i][j] == integrate_01(fifj)
            kinetic = fi.differentiate() * fj.differentiate()
            assert h[i][j] == integrate_01(kinetic + CUBIC.v * fifj)


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


def test_bareiss_singular_matrix_is_zero_poly():
    row = [RationalPoly.from_coeffs([1, 2], "eps"), RationalPoly.from_coeffs([3], "eps")]
    det = bareiss_determinant([row, list(row)])
    assert det.is_zero


# ---------------------------------------------------------------------------
# the integrated-Legendre matrices, exactly


def test_legendre_basis_vanishes_at_walls_and_integrates_p():
    for k in range(2, 12):
        assert phi(k).eval(Fraction(0)) == phi(k).eval(Fraction(1)) == 0
        assert phi(k).differentiate() == shifted_legendre(k - 1)


def pencil_matrices(potential, n):
    """(S, H) of the integer band pencil of order n, as dense exact fractions.

    Band row i of R H and R S, divided by r_i, is row i of H and S.
    """
    a, b, r = _pencil(potential, n)
    return tuple(
        tuple(tuple(Fraction(x, ri) for x in row) for row, ri in zip(band_to_dense(rows), r))
        for rows in (b, a)
    )


def band_to_dense(rows):
    """The square integer matrix of band rows as the elimination takes them."""
    band = len(rows[0]) - 1
    m = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        first = max(0, i - band)
        m[i][first : first + len(row)] = row
    return m


def dense_to_band(m, band):
    """Row i keeps columns max(0, i - band)..min(size - 1, i + band)."""
    return [list(row[max(0, i - band) : i + band + 1]) for i, row in enumerate(m)]


@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_closed_form_matrix_elements(n):
    # Shen's entries for v = 0: a diagonal kinetic part 1/(2k-1) and
    # S_kk = 1/(2(2k-3)(2k-1)(2k+1)), S_k,k+2 = -1/(4(2k-1)(2k+1)(2k+3)),
    # in the integer pencil and in the Galerkin reference alike
    for s, h in (pencil_matrices(V0, n), galerkin_matrices(V0, n)):
        for i in range(2, n + 1):
            for j in range(2, n + 1):
                k = min(i, j)
                want_s = {
                    0: Fraction(1, 2 * (2 * k - 3) * (2 * k - 1) * (2 * k + 1)),
                    2: Fraction(-1, 4 * (2 * k - 1) * (2 * k + 1) * (2 * k + 3)),
                }.get(abs(i - j), 0)
                assert s[i - 2][j - 2] == want_s
                assert h[i - 2][j - 2] == (Fraction(1, 2 * i - 1) if i == j else 0)


@pytest.mark.parametrize("n", range(3, 10))
def test_galerkin_matrices_match_direct_integration(n):
    # the integer pencil and the Galerkin reference against the products of
    # the basis polynomials, integrated term by term
    basis = [phi(k) for k in range(2, n + 1)]
    for s, h in (pencil_matrices(CUBIC, n), galerkin_matrices(CUBIC, n)):
        for i, pi in enumerate(basis):
            for j, pj in enumerate(basis):
                pipj = pi * pj
                assert s[i][j] == integrate_01(pipj)
                kinetic = pi.differentiate() * pj.differentiate()
                assert integrate_01(kinetic) == (Fraction(1, 2 * i + 3) if i == j else 0)
                assert h[i][j] == integrate_01(kinetic + CUBIC.v * pipj)


@pytest.mark.parametrize("name", list(POTENTIALS))
def test_integer_pencil_equals_the_galerkin_reference(name):
    # each band row holds integers over r_i, the lcm of the reduced
    # denominators of row i of H and S, and gives the reference's entries
    potential = POTENTIALS[name]
    for n in range(3, 17):
        s_ref, h_ref = galerkin_matrices(potential, n)
        _, _, r = _pencil(potential, n)
        assert [math.lcm(*(x.denominator for x in hrow + srow)) for hrow, srow in zip(h_ref, s_ref)] == r
        assert pencil_matrices(potential, n) == (s_ref, h_ref)


@pytest.mark.parametrize("n", [4, 6, 9])
def test_linear_potential_shifts_h_by_moment(n):
    # v = lam*q adds lam * integral(q phi_i phi_j) and leaves S alone
    lam = Fraction(3, 2)
    s_v, h_v = pencil_matrices(PotentialSpec.linear(lam), n)
    s_0, h_0 = pencil_matrices(V0, n)
    q = monomial(1, 1, "q")
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            moment = integrate_01(q * phi(i) * phi(j))
            assert h_v[i - 2][j - 2] == h_0[i - 2][j - 2] + lam * moment
            assert s_v[i - 2][j - 2] == s_0[i - 2][j - 2]


@pytest.mark.parametrize("name", list(POTENTIALS))
def test_matrices_are_banded(name):
    # S is pentadiagonal with a zero first off-diagonal, and a degree-d
    # potential gives H a half-bandwidth of 2 + max(d, 0), which is the
    # width of the pencil's band rows
    potential = POTENTIALS[name]
    band = 2 + max(potential.v.degree, 0)
    a, b, _ = _pencil(potential, 13)
    assert [len(row) for row in a] == [len(row) for row in b]
    assert [len(row) for row in a] == [min(11, i + band) - max(0, i - band) + 1 for i in range(12)]
    s, h = pencil_matrices(potential, 13)
    for i in range(12):
        for j in range(12):
            assert (s[i][j] != 0) == (abs(i - j) in (0, 2))
            if abs(i - j) > band:
                assert h[i][j] == 0
    if not potential.v.is_zero:
        assert any(h[i][i + band] for i in range(12 - band))


@pytest.mark.parametrize("name", list(POTENTIALS))
def test_matrices_nest(name):
    # the basis of order n is the first n - 1 functions of order n + 1, so
    # the pencil of order n is a leading block of every larger one
    potential = POTENTIALS[name]
    for n in range(3, 12):
        small, large = pencil_matrices(potential, n), pencil_matrices(potential, n + 1)
        for m_small, m_large in zip(small, large):
            assert m_small == tuple(row[: n - 1] for row in m_large[: n - 1])


@pytest.mark.parametrize("n", range(3, 9))
def test_change_of_basis_determinant(n):
    # phi_k = sum_m T_km f_m; the pencil transforms as T H T^t, T S T^t, and
    # det(T)^2 is the square of the product of the leading coefficients
    rows = []
    for k in range(2, n + 1):
        a = phi(k).coeffs  # a_0 = 0 and sum a_m = 0, so phi_k = sum_{m<n} a_m f_m
        rows.append([a[m] if m < len(a) else Fraction(0) for m in range(1, n)])
    assert sum(rows[-1]) + phi(n).coeffs[-1] == 0
    assert gaussian_determinant(rows) ** 2 == det_t_squared(n)
    s_old, h_old = monomial_matrices(CUBIC, n)
    s, h = pencil_matrices(CUBIC, n)
    for new, old in ((s, s_old), (h, h_old)):
        for i, ti in enumerate(rows):
            for j, tj in enumerate(rows):
                assert new[i][j] == sum(
                    ti[a] * old[a][b] * tj[b] for a in range(n - 1) for b in range(n - 1)
                )


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_matrices_symmetric_exactly(n):
    s, h = pencil_matrices(V1, n)
    for i in range(n - 1):
        for j in range(n - 1):
            assert s[i][j] == s[j][i]
            assert h[i][j] == h[j][i]


@pytest.mark.parametrize("n", [3, 4, 6, 9, 12])
def test_overlap_matrix_positive_definite(n):
    s, _ = pencil_matrices(V1, n)
    minors = [gaussian_determinant([row[:k] for row in s[:k]]) for k in range(1, n)]
    assert len(minors) == n - 1
    assert all(m > 0 for m in minors)


# ---------------------------------------------------------------------------
# the banded elimination and the interpolation


def test_band_determinant_matches_gaussian():
    # every pivot is the leading minor of its order.  L L^t with L lower
    # triangular of bandwidth b and a positive diagonal is positive definite
    # of half-bandwidth b; scaling its rows by positive integers, as the
    # pencil clears each row's denominators, keeps every leading minor
    # positive
    def check(m, band):
        pivots = _band_pivots(dense_to_band(m, band))
        assert pivots == [gaussian_determinant([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
        return pivots

    rng = random.Random(20261019)
    for _ in range(60):
        size, band = rng.randint(1, 12), rng.randint(1, 4)
        lower = [
            [
                rng.randint(1, 9) if i == j else rng.randint(-9, 9) if 0 < i - j <= band else 0
                for j in range(size)
            ]
            for i in range(size)
        ]
        m = [
            [sum(lower[i][k] * lower[j][k] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        assert check(m, band)[-1] == math.prod(lower[i][i] for i in range(size)) ** 2
        rows = [rng.randint(1, 10**6) for _ in range(size)]
        scaled = [[r * x for x in row] for r, row in zip(rows, m)]
        assert check(scaled, band)[-1] == math.prod(rows) * gaussian_determinant(m)
    # the row-scaled pencils R(H - eS) themselves, at the first node below
    # min v and further down
    for potential in (V1, V_MINUS_30, CUBIC, POTENTIALS["sextic"]):
        a, b, _ = _pencil(potential, 12)
        band = 2 + max(potential.v.degree, 0)
        v = potential.v
        low = math.floor(v.coeff(0) + sum(min(vk, 0) for vk in v.coeffs[1:]))
        for e in (low - 1, low - 1000):
            pencil = band_to_dense([[x - e * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
            assert all(p > 0 for p in check(pencil, band))


def test_interpolation_recovers_integer_polynomials():
    rng = random.Random(20261020)
    for _ in range(40):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 25))]
        top = rng.randint(-50, 50)
        nodes = [top - m for m in range(len(coeffs))]
        values = [sum(c * e**k for k, c in enumerate(coeffs)) for e in nodes]
        assert _interpolate(nodes, values) == coeffs


# ---------------------------------------------------------------------------
# the characteristic polynomial equals the dense reference's exactly

@pytest.mark.parametrize("name", list(POTENTIALS))
def test_char_poly_equals_the_dense_reference(name):
    potential = POTENTIALS[name]
    orders = list(range(3, 17)) + ([20, 24] if name in ("lam=1", "cubic") else [])
    for n in orders:
        assert secular_at(potential, n).char_poly == dense_char_poly(potential, n), n


# orders as a command line may give them: a range, an unsorted list and a
# list with duplicates
ORDER_LISTS = (range(3, 21), (20, 7, 3, 12, 5, 16, 9), (11, 4, 11, 3, 18, 4, 18))


@pytest.mark.parametrize("name", list(POTENTIALS))
def test_every_order_of_a_range_equals_the_dense_reference(name):
    potential = POTENTIALS[name]
    for orders in ORDER_LISTS:
        systems = build_secular_systems(potential, orders)
        assert sorted(systems) == sorted(set(orders))
        for n, system in systems.items():
            assert system.n == n
            assert system.char_poly == dense_char_poly(potential, n), (orders, n)


@pytest.mark.parametrize("n", range(3, 17))
@pytest.mark.parametrize(
    "potential",
    [V0, V1, V_MINUS_7, V_MINUS_30, CUBIC],
    ids=["0", "q", "-7q", "-30q", "cubic"],
)
def test_char_poly_is_the_pencil_determinant(potential, n):
    # a polynomial of degree n - 1 that agrees with det(h - eps s) / det(T)^2
    # at n distinct points is that polynomial
    char_poly = secular_at(potential, n).char_poly
    assert char_poly.degree == n - 1
    s, h = pencil_matrices(potential, n)
    for k in range(n):
        eps = Fraction(7 * k - 20, 3)
        pencil = [[hij - eps * sij for hij, sij in zip(hi, si)] for hi, si in zip(h, s)]
        assert char_poly.eval(eps) * det_t_squared(n) == gaussian_determinant(pencil)


# ---------------------------------------------------------------------------
# the n = 3 secular problem is solvable by hand: det(H - eps S) has
# roots exactly 10 and 42


def test_secular_polynomial_n3_exact():
    sys3 = secular_at(V0, 3)
    assert sys3.char_poly == RationalPoly.from_coeffs(
        [Fraction(1, 60), Fraction(-13, 6300), Fraction(1, 25200)], "eps"
    )
    # scaled: eps^2 - 52 eps + 420 = (eps - 10)(eps - 42)
    assert sys3.char_poly * 25200 == RationalPoly.from_coeffs([420, -52, 1], "eps")


def test_secular_roots_n3_exact():
    ground = solve_secular(secular_at(V0, 3))
    assert abs(ground.eps - 10.0) < 1e-20
    excited = solve_secular(secular_at(V0, 3), (Fraction(0), Fraction(100)), state=1)
    assert abs(excited.eps - 42.0) < 1e-18


# ---------------------------------------------------------------------------
# determinant structure


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_char_poly_degree_and_leading_coeff(n):
    sys_n = secular_at(V1, n)
    size = n - 1
    assert sys_n.char_poly.degree == size
    # leading eps-coefficient of det(H - eps S) in the basis q^j - q^n is
    # (-1)^size det(S) of that basis, det(s) / det(T)^2
    det_s = gaussian_determinant(pencil_matrices(V1, n)[0]) / det_t_squared(n)
    assert sys_n.char_poly.coeff(size) == (-1) ** size * det_s


@pytest.mark.parametrize("n", [3, 4, 6, 8, 10])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1)])
def test_all_roots_real(n, lam):
    sys_n = secular_at(PotentialSpec.linear(lam), n)
    # a symmetric pencil with positive definite S has a full set of real
    # eigenvalues; they all lie in (0, hi) for a wide enough hi
    hi = Fraction(10**6)
    assert count_real_roots(sys_n.char_poly, Fraction(0), hi) == sys_n.n - 1


# ---------------------------------------------------------------------------
# variational behaviour of the estimates


@pytest.mark.parametrize("lam,eps0", [(0, math.pi**2), (1, 10.368507161836337127)])
def test_ground_state_nonincreasing_and_above_exact(lam, eps0):
    potential = PotentialSpec.linear(Fraction(lam))
    previous = None
    for n in range(3, 11):
        est = solve_secular(secular_at(potential, n))
        assert est.eps >= eps0 - 1e-12
        if previous is not None:
            assert est.eps <= previous + 1e-15
        previous = est.eps


def test_excited_states_interlace():
    # adding a basis function can only lower each variational level
    for state in (0, 1, 2):
        bracket = (Fraction(0), Fraction(10**4))
        coarse = solve_secular(secular_at(V0, 6), bracket, state)
        fine = solve_secular(secular_at(V0, 7), bracket, state)
        assert fine.eps <= coarse.eps + 1e-12
        exact = math.pi**2 * (state + 1) ** 2
        assert fine.eps >= exact - 1e-12


def test_residual_is_small_at_roots():
    system = secular_at(V0, 8)
    est = solve_secular(system)
    # the residual is the monic determinant prod_k (eps_k - eps) at the
    # midpoint: char_poly over the leading coefficient det(s) / det(T)^2
    det_s = gaussian_determinant(pencil_matrices(V0, 8)[0]) / det_t_squared(8)
    assert abs(system.char_poly.eval(est.eps)) / det_s < 1e-20


def test_estimate_beyond_the_float_range_is_exact():
    # at lambda = 1e60 the monic determinant at the midpoint exceeds 1e308;
    # the estimate is the exact enclosure and its midpoint all the same
    est = solve_secular(secular_at(PotentialSpec.linear(10**60), 10))
    assert 0 < est.eps < 10**61 and est.enclosure[0] <= est.eps <= est.enclosure[1]


def test_state_out_of_range():
    # order n gives a basis of n - 1 functions, so det(H - eps S) has no
    # n-th root, under the index rule and under nearest alike; the bracket
    # holds every root
    bracket = (0, 10**6)
    for n in (3, 4, 8):
        system = secular_at(V0, n)
        assert system.char_poly.degree == system.n - 1
        for state in (n - 2, n - 1, n):
            for selection in (DEFAULT_SELECTION, RootSelection.parse("nearest:40")):
                est = solve_secular(system, bracket, state, selection)
                assert (est is not None) == (state < system.n - 1)
    assert solve_secular(secular_at(V0, 4), state=2) is not None  # the default bracket too


def test_min_basis_order():
    with pytest.raises(ValueError):
        secular_at(V0, 2)
