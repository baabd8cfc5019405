"""Rayleigh-Ritz reference method on the integrated-Legendre basis.

The trial space, the polynomials of degree <= n that vanish at both walls,
is spanned by q^j - q^n (j = 1..n-1) and equally by Shen's Legendre-Galerkin
basis (J. Shen, SIAM J. Sci. Comput. 15 (1994) 1489-1505)

    phi_k = (P_k - P_{k-2}) / (2(2k-1)),   k = 2..n,   so phi_k' = P_{k-1},

with P_k the shifted Legendre polynomial on [0, 1].  S_ij = integral
phi_i phi_j and H_ij = integral (phi_i' phi_j' + v phi_i phi_j) follow in
closed form from integral P_a P_b = delta_ab / (2a+1): the kinetic part is
diagonal, 1/(2i-1); S_ii = 1/(2(2i-3)(2i-1)(2i+1)) and
S_i,i+2 = -1/(4(2i-1)(2i+1)(2i+3)) are its only nonzero entries; and the
potential part comes from the Legendre coefficients of v (P_i - P_{i-2}),
formed on integers by Horner steps of multiplication by q = (1+x)/2 with
x P_m = ((m+1) P_{m+1} + m P_{m-1}) / (2m+1).  A potential of degree d
gives H a half-bandwidth of 2 + max(d, 0).  Each row is stored as integer
band entries over r_i, the lcm of the denominators of row i of H and S; the
pencil has no other form, dense or in fractions.

Eigenvalue estimates are the roots of det(H - eps S).  det(R(H - eS)), with
R = diag(r_i), is evaluated at n integer points
e <= floor(v_0 + sum_{k>=1} min(0, v_k)) - 1, below min v on [0, 1].  There
<phi, (H - eS) phi> = integral phi'^2 + (v - e) phi^2 > 0, so every leading
minor of R(H - eS) is positive and a banded fraction-free (Bareiss)
elimination on integers needs no pivoting.  Newton interpolation recovers
det(R(H - eps S)), which is divided by det(R) det(T)^2 for the change of
basis T from q^j - q^n to the phi_k.  T is triangular against q^j (1 - q),
so |det T| = prod_k C(2k, k) / (2(2k-1)), the product of the leading
coefficients of the phi_k.  ``char_poly`` is therefore det(H - eps S) of the
basis q^j - q^n, sign included.  For a symmetric positive-definite S all
n-1 roots are real and they bound the true spectrum from above.

The basis does not depend on n, so the pencil of order n is the leading
(n-1) x (n-1) block of the pencil of any larger order, and so are its row
lcms up to the last rows, whose band reaches past column n.  The k-th
pivot of a Bareiss elimination is the k-th leading principal minor
(E. H. Bareiss, Math. Comp. 22 (1968) 565-578).  So one elimination per
node of the largest requested order gives every order's determinant: order
n takes the minor of order n - 1 at the first n nodes, which are the nodes
it would use alone, and divides by the product of the first n - 1 of the
largest pencil's row lcms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, floor, gcd, lcm
from typing import Iterable

from .estimates import (
    DEFAULT_SELECTION,
    METHOD_RR,
    SOLVER_TOL,
    EigenEstimate,
    RootSelection,
    solve_closure,
)
from .model import PotentialSpec
from .poly import RationalPoly, Record, _set


class SecularSystem(Record):
    """The characteristic polynomial of the pencil (H, S) of one order n.

    ``char_poly`` is det(H - eps S) in the basis q^j - q^n, which is
    det(h - eps s) / det(T)^2 for the pencil (h, s) of the
    integrated-Legendre basis phi_2..phi_n (see the module docstring).  The
    pencil itself lives only as the integer band rows of :func:`_pencil`.
    """

    __slots__ = ("n", "potential", "char_poly")

    def __init__(self, n: int, potential: PotentialSpec, char_poly: RationalPoly) -> None:
        _set(self, "n", n)
        _set(self, "potential", potential)
        _set(self, "char_poly", char_poly)

    @property
    def size(self) -> int:
        return self.n - 1


def _legendre_horner(ints: tuple[int, ...], i: int) -> tuple[list[int], int]:
    """(w, den): the Legendre coefficients w[m] / den of sum_k ints[k] q^k (P_i - P_{i-2}).

    Each Horner step multiplies by q, which sends the coefficient w_m to
    w_m (2m+1, m+1, m) / (2(2m+1)) at P_m, P_{m+1}, P_{m-1}; the common
    denominator takes 2 lcm(2m+1) over the step's support.
    """
    w = [0] * (i + len(ints) + 2)  # room up to P_{i+d+2}, the edge of the band
    den = 1
    for t, c in enumerate(reversed(ints)):
        if t:
            lo, hi = max(i - 1 - t, 0), i + t - 1
            step = 2 * lcm(*range(2 * lo + 1, 2 * hi + 2, 2))
            out = [0] * len(w)
            for m in range(lo, hi + 1):
                if w[m]:
                    u = w[m] * (step // (2 * (2 * m + 1)))
                    out[m] += (2 * m + 1) * u
                    out[m + 1] += (m + 1) * u
                    if m:
                        out[m - 1] += m * u
            w, den = out, den * step
        w[i] += c * den
        w[i - 2] -= c * den
    return w, den


def _pencil(potential: PotentialSpec, n: int) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """(a, b, r): the band rows of R H and R S for phi_2..phi_n, and R's diagonal.

    Row i - 2 belongs to phi_i and holds columns j = max(2, i - band)..
    min(n, i + band) (matrix columns j - 2), with band = 2 + max(deg v, 0).
    r[i - 2] is the lcm of the reduced denominators of row i of H and S, so
    a and b hold integers.
    """
    ints, scale = potential.v.ints, potential.v.scale
    band = 2 + max(len(ints) - 1, 0)
    a, b, r = [], [], []
    for i in range(2, n + 1):
        first = max(2, i - band)
        cols = range(first, min(n, i + band) + 1)
        # H_ij and S_ij as (numerator, denominator) in lowest terms
        h = [(1, 2 * i - 1) if j == i else (0, 1) for j in cols]
        if ints:
            w, den = _legendre_horner(ints, i)
            for t, j in enumerate(cols):
                num = scale.numerator * (w[j] * (2 * j - 3) - w[j - 2] * (2 * j + 1))
                d = scale.denominator * den * (2 * j + 1) * (2 * j - 3) * 4 * (2 * i - 1) * (2 * j - 1)
                if j == i:
                    num += d // (2 * i - 1)
                g = gcd(num, d)
                h[t] = (num // g, d // g)
        s = [(0, 1)] * len(cols)
        s[i - first] = (1, 2 * (2 * i - 3) * (2 * i - 1) * (2 * i + 1))
        if i >= 4:
            s[i - 2 - first] = (-1, 4 * (2 * i - 5) * (2 * i - 3) * (2 * i - 1))
        if i + 2 <= n:
            s[i + 2 - first] = (-1, 4 * (2 * i - 1) * (2 * i + 1) * (2 * i + 3))
        row_lcm = lcm(*(d for _, d in h), *(d for _, d in s))
        a.append([x * (row_lcm // d) for x, d in h])
        b.append([x * (row_lcm // d) for x, d in s])
        r.append(row_lcm)
    return a, b, r


def build_secular_systems(
    potential: PotentialSpec, orders: Iterable[int]
) -> dict[int, SecularSystem]:
    """The secular system of every order in ``orders``, from one pencil.

    The pencil is built once at the largest order and eliminated once per
    node; each order reads its determinants off the leading minors (see the
    module docstring).  Orders may repeat and come in any order; each must
    be at least 3.
    """
    orders = set(orders)
    if min(orders) < 3:
        raise ValueError("basis order must be at least 3")
    top = max(orders)
    a, b, r = _pencil(potential, top)
    v = potential.v
    low = v.coeff(0) + sum(min(vk, 0) for vk in v.coeffs[1:])
    nodes = [floor(low) - 1 - m for m in range(top)]
    minors = [
        _band_pivots([[x - e * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        for e in nodes
    ]
    systems = {}
    lead_num = lead_den = 1  # phi_2 has leading coefficient C(4, 2) / 6 = 1
    row_lcms = r[0]
    for n in range(3, top + 1):
        lead_num *= comb(2 * n, n)
        lead_den *= 2 * (2 * n - 1)
        row_lcms *= r[n - 2]
        if n in orders:
            values = [minor[n - 2] for minor in minors[:n]]
            scale = Fraction(lead_den**2, row_lcms * lead_num**2)
            char_poly = RationalPoly._canonical(_interpolate(nodes[:n], values), scale, "eps")
            systems[n] = SecularSystem(n=n, potential=potential, char_poly=char_poly)
    return systems


def build_secular(potential: PotentialSpec, n: int) -> SecularSystem:
    """The secular system of order n: :func:`build_secular_systems` for n alone.

    Requires n >= 3.
    """
    return build_secular_systems(potential, (n,))[n]


def _band_pivots(rows: list[list[int]]) -> list[int]:
    """The Bareiss pivots of an integer band matrix: its leading principal minors.

    Row i holds columns max(0, i - band)..min(size - 1, i + band) of a
    matrix of half-bandwidth ``band``, which row 0 reveals.  There is no
    pivoting, so every leading minor must be nonzero.  Each step is confined
    to the band, every division is exact, and a row drops its first column
    as that column is eliminated, so row k starts with the k-th pivot.  A
    row below the band is untouched by a step, where Bareiss would scale it
    by the pivot over the previous pivot; those factors telescope to the
    previous pivot as the row enters the band, which cancels that step's
    division.
    """
    size = len(rows)
    band = len(rows[0]) - 1
    pivots = []
    prev = 1
    for k in range(size):
        pivot, *tail = rows[k]
        pivots.append(pivot)
        for i in range(k + 1, min(size, k + band + 1)):
            lead, *rest = rows[i]
            div = prev if i - k < band else 1
            rows[i] = [(pivot * x - lead * y) // div for x, y in zip(rest, tail)] + [
                pivot * x // div for x in rest[len(tail) :]
            ]
        prev = pivot
    return pivots


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

    By default that is the (state+1)-th smallest.  The basis of order n has
    n - 1 functions and det(H - eps S) as many roots, so a state at or past
    n - 1 has none: the result is None, as for every solver that finds no
    root.
    """
    if state >= system.size:
        return None
    return solve_closure(METHOD_RR, system, system.char_poly, bracket, state, selection, tol)
