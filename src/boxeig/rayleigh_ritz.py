"""Rayleigh-Ritz reference method on the integrated-Legendre basis.

The trial space, the polynomials of degree <= n that vanish at both walls,
is spanned by q^j - q^n (j = 1..n-1) and equally by Shen's Legendre-Galerkin
basis (J. Shen, SIAM J. Sci. Comput. 15 (1994) 1489-1505)

    phi_k = (P_k - P_{k-2}) / (2(2k-1)),   k = 2..n,   so phi_k' = P_{k-1},

with P_k the shifted Legendre polynomial on [0, 1].  S_ij = integral
phi_i phi_j and H_ij = integral (phi_i' phi_j' + v phi_i phi_j) follow in
closed form from integral P_a P_b = delta_ab / (2a+1) and from
x P_m = ((m+1) P_{m+1} + m P_{m-1}) / (2m+1) with q = (1+x)/2.  The kinetic
part is diagonal, 1/(2i-1); S is pentadiagonal; a potential of degree d
gives H a half-bandwidth of 2 + max(d, 0).

Eigenvalue estimates are the roots of det(H - eps S).  With R the diagonal
of the lcms r_i of the denominators in row i of H and S, det(R(H - eS)) is
evaluated at n integer points e <= floor(v_0 + sum_{k>=1} min(0, v_k)) - 1,
below min v on [0, 1].  There <phi, (H - eS) phi> = integral phi'^2 +
(v - e) phi^2 > 0, so every leading minor of R(H - eS) is positive and a
banded fraction-free (Bareiss) elimination on integers needs no pivoting.
Newton interpolation recovers det(R(H - eps S)), which is divided by
det(R) det(T)^2 for the change of basis T from q^j - q^n to the phi_k.  T is
triangular against q^j (1 - q), so |det T| = prod_k C(2k, k) / (2(2k-1)),
the product of the leading coefficients of the phi_k.  ``char_poly`` is
therefore det(H - eps S) of the basis q^j - q^n, sign included.  For a
symmetric positive-definite S all n-1 roots are real and they bound the
true spectrum from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, lcm, prod

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
from .poly import RationalPoly

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SecularSystem:
    """The pencil (H, S) for one n and its characteristic polynomial.

    ``h`` and ``s`` are the matrices in the integrated-Legendre basis
    phi_2..phi_n of :func:`galerkin_matrices`.  ``char_poly`` is
    det(H - eps S) in the basis q^j - q^n, which is det(h - eps s) / det(T)^2
    (see the module docstring).
    """

    n: int
    potential: PotentialSpec
    h: Matrix
    s: Matrix
    char_poly: RationalPoly

    @property
    def size(self) -> int:
        return self.n - 1


def basis_function(j: int, n: int) -> RationalPoly:
    """f_j = q^j - q^n."""
    return RationalPoly.monomial(j, 1, "q") - RationalPoly.monomial(n, 1, "q")


def _times_q(u: list[Fraction]) -> list[Fraction]:
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


def galerkin_matrices(potential: PotentialSpec, n: int) -> tuple[Matrix, Matrix]:
    """(S, H) of the basis phi_k, k = 2..n, in closed form.

    Entry [i-2][j-2] belongs to phi_i and phi_j.  H takes the Legendre
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


def build_secular(potential: PotentialSpec, n: int) -> SecularSystem:
    """Take S and H from :func:`galerkin_matrices` and expand det(H - eps S).

    Requires n >= 3.
    """
    s, h = galerkin_matrices(potential, n)
    v = potential.v
    band = 2 + max(v.degree, 0)
    dens = [lcm(*(x.denominator for x in hrow + srow)) for hrow, srow in zip(h, s)]
    a = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(h, dens)]
    b = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(s, dens)]
    low = v.coeff(0) + sum(min(vk, 0) for vk in v.coeffs[1:])
    nodes = [floor(low) - 1 - m for m in range(n)]
    values = [
        _band_determinant([[x - e * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], band)
        for e in nodes
    ]
    lead = prod(Fraction(comb(2 * k, k), 2 * (2 * k - 1)) for k in range(2, n + 1))
    char_poly = RationalPoly._canonical(
        _interpolate(nodes, values), 1 / (prod(dens) * lead**2), "eps"
    )
    return SecularSystem(n=n, potential=potential, h=h, s=s, char_poly=char_poly)


def _band_determinant(m: list[list[int]], band: int) -> int:
    """Determinant of an integer matrix of half-bandwidth ``band`` >= 1.

    Bareiss elimination without pivoting, so every leading minor must be
    nonzero.  Each step is confined to the band, and every division is
    exact.  A row below the band is untouched by a step, where Bareiss would
    scale it by the pivot over the previous pivot; those factors telescope,
    so the row is scaled by the previous pivot once, as it enters the band.
    """
    size = len(m)
    prev = 1
    for k in range(size - 1):
        pivot, pivot_row = m[k][k], m[k]
        if k + band < size:
            row = m[k + band]
            for j in range(k, min(size, k + 2 * band + 1)):
                row[j] *= prev
        for i in range(k + 1, min(size, k + band + 1)):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, min(size, i + band + 1)):
                row[j] = (pivot * row[j] - lead * pivot_row[j]) // prev
        prev = pivot
    return m[-1][-1]


def _interpolate(nodes: list[int], values: list[int]) -> list[int]:
    """Coefficients of the integer polynomial through (nodes[m], values[m]).

    The nodes are consecutive descending integers, so x_m - x_{m-k} = -k and
    every divided difference of an integer polynomial is an integer.
    """
    d = list(values)
    for k in range(1, len(d)):
        for m in range(len(d) - 1, k - 1, -1):
            d[m] = (d[m - 1] - d[m]) // k
    out = [d[-1]]
    for k in range(len(d) - 2, -1, -1):
        x = nodes[k]
        out = [d[k] - x * out[0]] + [lo - x * hi for lo, hi in zip(out, out[1:])] + [out[-1]]
    return out


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
