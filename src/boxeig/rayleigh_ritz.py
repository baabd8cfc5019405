"""Rayleigh-Ritz reference method on the polynomial basis f_j = q^j - q^n.

The basis functions (j = 1..n-1) vanish at both walls, so matrix elements
are plain integrals over [0, 1]:

    S_ij = integral f_i f_j,
    H_ij = integral (f_i' f_j' + v f_i f_j),

both exact rationals with closed forms (see :func:`basis_matrices`).
Eigenvalue estimates are the roots of det(H - eps S) = 0; the determinant
is expanded into an exact polynomial in eps by fraction-free (Bareiss)
elimination over Z[eps], on integer lists after the denominators of H and
S are cleared once, then handed to the shared root machinery.  For a
symmetric positive-definite S all n-1 roots are real and they bound the
true spectrum from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .estimates import (
    DEFAULT_SELECTION,
    METHOD_RR,
    SOLVER_TOL,
    EigenEstimate,
    RootSelection,
    resolve_bracket,
    select_root,
)
from .model import PotentialSpec
from .poly import RationalPoly, _int_divexact, _int_mul, _int_sub


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
    # S_ij integrates the positive f_i f_j, so each entry has degree one in eps
    pencil = [[(hij, -sij) for hij, sij in zip(hrow, srow)] for hrow, srow in zip(h, s)]
    char_poly = _determinant(pencil, "eps")
    return SecularSystem(n=n, potential=potential, h=h, s=s, char_poly=char_poly)


def bareiss_determinant(matrix: list[list[RationalPoly]]) -> RationalPoly:
    """Exact determinant of a square polynomial matrix, fraction-free."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    return _determinant([[p.coeffs for p in row] for row in matrix], matrix[0][0].var)


def _determinant(matrix: list[list[Sequence[Fraction]]], var: str) -> RationalPoly:
    """Determinant of a square matrix of coefficient lists (no trailing zeros).

    The denominators are cleared once: with D the lcm of every coefficient
    denominator, the Bareiss recurrence runs on the integer polynomials
    D a_ij, and det = det(D A) / D^size.  Every division in the recurrence is
    exact in Z[eps], which keeps intermediate degrees linear in the
    elimination step instead of exponential and needs no gcd.
    """
    size = len(matrix)
    den = lcm(*(c.denominator for row in matrix for e in row for c in e))
    a = [[[c.numerator * (den // c.denominator) for c in e] for e in row] for row in matrix]
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


def solve_secular(
    system: SecularSystem,
    bracket=None,
    state: int = 0,
    selection: RootSelection = DEFAULT_SELECTION,
    tol: Fraction = SOLVER_TOL,
) -> EigenEstimate | None:
    """The root of det(H - eps S) in the bracket that ``selection`` picks.

    By default that is the (state+1)-th smallest.  A basis of size n has n
    roots, so a state at or past n has none: the result is None, as for
    every solver that finds no root.
    """
    if state >= system.size:
        return None
    bracket = resolve_bracket(bracket, system.potential, state)
    enclosure = select_root(system.char_poly, bracket, state, selection, tol)
    if enclosure is None:
        return None
    return EigenEstimate(METHOD_RR, system.n, state, enclosure)
