"""Rayleigh-Ritz reference method on the polynomial basis f_j = q^j - q^n.

The basis functions (j = 1..n-1) vanish at both walls, so matrix elements
are plain integrals over [0, 1]:

    S_ij = integral f_i f_j,
    H_ij = integral (f_i' f_j' + v f_i f_j),

both exact rationals with closed forms (see :func:`basis_matrices`).  The
same matrices give the quotient of the power-series trial function, which
is a combination of this basis.  Eigenvalue estimates are the roots of
det(H - eps S) = 0; the determinant is expanded into an exact polynomial in
eps by fraction-free (Bareiss) elimination over Z[eps], after the
denominators of H and S are cleared once, then handed to the shared root
machinery.  For a symmetric positive-definite S all n-1 roots are real and
they bound the true spectrum from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .estimates import (
    DEFAULT_SELECTION,
    METHOD_RR,
    EigenEstimate,
    RootSelection,
    resolve_bracket,
    select_root,
)
from .model import PotentialSpec
from .poly import (
    RationalPoly,
    _denominator,
    _from_ints,
    _int_divexact,
    _int_mul,
    _int_sub,
    _scaled_ints,
)
from .series import SOLVER_TOL


@dataclass(frozen=True)
class SecularSystem:
    """Matrices and characteristic polynomial of det(H - eps S) for one n."""

    n: int
    potential: PotentialSpec
    h: tuple[tuple[Fraction, ...], ...]
    s: tuple[tuple[Fraction, ...], ...]
    char_poly: RationalPoly

    @property
    def size(self) -> int:
        return self.n - 1


def basis_function(j: int, n: int) -> RationalPoly:
    """f_j = q^j - q^n."""
    return RationalPoly.monomial(j, 1, "q") - RationalPoly.monomial(n, 1, "q")


def basis_matrices(
    potential: PotentialSpec, n: int
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """(S, H) of the basis f_j = q^j - q^n, j = 1..n-1, in closed form.

    With M(p) = integral of q^p = 1/(p+1), the q^a moment of f_i f_j is
    M(a+i+j) - M(a+i+n) - M(a+j+n) + M(a+2n), and the kinetic element
    integral f_i' f_j' is ij M(i+j-2) - in M(i+n-2) - jn M(j+n-2) + n^2 M(2n-2).
    S is the q^0 moment; H adds v_k times the q^k moment to the kinetic part.
    """
    if n < 3:
        raise ValueError("basis order must be at least 3")

    def moment(a: int, i: int, j: int) -> Fraction:
        return (
            Fraction(1, a + i + j + 1)
            - Fraction(1, a + i + n + 1)
            - Fraction(1, a + j + n + 1)
            + Fraction(1, a + 2 * n + 1)
        )

    def kinetic(i: int, j: int) -> Fraction:
        return (
            Fraction(i * j, i + j - 1)
            - Fraction(i * n, i + n - 1)
            - Fraction(j * n, j + n - 1)
            + Fraction(n * n, 2 * n - 1)
        )

    def symmetric(element) -> tuple[tuple[Fraction, ...], ...]:
        # Both integrands are symmetric in i and j: build the upper triangle
        # and mirror it.
        upper = {(i, j): element(i, j) for i in range(1, n) for j in range(i, n)}
        return tuple(
            tuple(upper[min(i, j), max(i, j)] for j in range(1, n)) for i in range(1, n)
        )

    v_terms = [(k, vk) for k, vk in enumerate(potential.v.coeffs) if vk]
    s = symmetric(lambda i, j: moment(0, i, j))
    h = symmetric(
        lambda i, j: kinetic(i, j) + sum(vk * moment(k, i, j) for k, vk in v_terms)
    )
    return s, h


def build_secular(potential: PotentialSpec, n: int) -> SecularSystem:
    """Take S and H from :func:`basis_matrices` and expand det(H - eps S).

    Requires n >= 3.
    """
    s, h = basis_matrices(potential, n)
    size = n - 1
    pencil = [
        [RationalPoly.from_coeffs([h[i][j], -s[i][j]], "eps") for j in range(size)]
        for i in range(size)
    ]
    char_poly = bareiss_determinant(pencil)
    return SecularSystem(n=n, potential=potential, h=h, s=s, char_poly=char_poly)


def bareiss_determinant(matrix: list[list[RationalPoly]]) -> RationalPoly:
    """Exact determinant of a square polynomial matrix, fraction-free.

    The denominators are cleared once: with D the lcm of every coefficient
    denominator, the Bareiss recurrence runs on the integer polynomials
    D a_ij, and det = det(D A) / D^size.  Every division in the recurrence is
    exact in Z[eps], which keeps intermediate degrees linear in the
    elimination step instead of exponential and needs no gcd.
    """
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    var = matrix[0][0].var
    den = _denominator(p for row in matrix for p in row)
    a = [[_scaled_ints(p, den) for p in row] for row in matrix]
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
    det = a[size - 1][size - 1]
    return _from_ints([sign * c for c in det], var, den**size)


def leading_principal_minors(matrix) -> list[Fraction]:
    """Exact leading principal minors det(M[:k][:k]), k = 1..size.

    Gaussian elimination without row exchanges: while the pivots are
    nonzero, the k-th minor is the product of the first k pivots.  A zero
    pivot makes its minor zero and leaves the later minors to be computed
    one by one, each with row exchanges inside its own leading block.
    """
    size = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    minors = []
    det = Fraction(1)
    for k in range(size):
        if a[k][k] == 0:
            minors.append(Fraction(0))
            minors.extend(
                _determinant([row[:m] for row in matrix[:m]]) for m in range(k + 2, size + 1)
            )
            return minors
        for i in range(k + 1, size):
            factor = a[i][k] / a[k][k]
            for j in range(k, size):
                a[i][j] -= factor * a[k][j]
        det *= a[k][k]
        minors.append(det)
    return minors


def _determinant(matrix) -> Fraction:
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


def solve_secular(
    system: SecularSystem,
    state: int = 0,
    bracket=None,
    selection: RootSelection = DEFAULT_SELECTION,
    tol: Fraction = SOLVER_TOL,
) -> EigenEstimate | None:
    """The root of det(H - eps S) in the bracket that ``selection`` picks.

    By default that is the (state+1)-th smallest.
    """
    if state >= system.size:
        raise ValueError(
            f"state {state} out of range for a basis of size {system.size}"
        )
    bracket = resolve_bracket(bracket, system.potential, state)
    enclosure = select_root(system.char_poly, bracket, state, selection, tol)
    if enclosure is None:
        return None
    mid = (enclosure[0] + enclosure[1]) / 2
    # The leading eps-coefficient of det(H - eps S) is (-1)^size det(S), and
    # det(S) > 0; dividing by it makes the determinant monic in eps, so the
    # residual is the value of prod_k (eps_k - eps) at the midpoint.
    det_s = abs(system.char_poly.leading)
    residual = abs(system.char_poly.eval(mid)) / det_s
    return EigenEstimate(
        method=METHOD_RR,
        n=system.n,
        state=state,
        eps=float(mid),
        residual=float(residual),
        bracket=(float(bracket[0]), float(bracket[1])),
        enclosure=enclosure,
    )


def solve_rr(
    potential: PotentialSpec,
    n: int,
    bracket=None,
    state: int = 0,
    selection: RootSelection = DEFAULT_SELECTION,
    tol: Fraction = SOLVER_TOL,
) -> EigenEstimate | None:
    """Convenience: build the secular system at order n and solve."""
    return solve_secular(build_secular(potential, n), state, bracket, selection, tol)
