"""Power-series solution of the confined problem and the boundary method.

For -phi'' + v(q) phi = eps phi on [0, 1] with phi(0) = phi(1) = 0, write
phi = sum_j c_j q^j.  The left boundary condition and the equation force
c_0 = 0, c_2 = 0, and (choosing the normalization c_1 = 1)

    c_j = ( sum_{i=0}^{j-2} v_{j-i-2} c_i  -  eps c_{j-2} ) / (j (j-1)),  j >= 3,

where v_k are the coefficients of the dimensionless potential.  Each c_j is a
polynomial in eps with exact rational coefficients, of eps-degree at most
floor((j-1)/2).

Truncating at order N gives the boundary polynomial B_N = sum_{j=1..N} c_j,
whose roots enforce phi(1) = 0 (the "A1" estimates), and a trial function
sum_{j=1..N-1} c_j (q^j - q^N) that satisfies both boundary conditions
identically and feeds the variational methods, which read its terms straight
off the series: it has no record of its own.  The c_j do not depend on N,
so the series of order n is the prefix c_0..c_n of a run at any larger
order, which keeps each B_n = B_{n-1} + c_n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .estimates import (
    DEFAULT_SELECTION,
    METHOD_A1,
    SOLVER_TOL,
    EigenEstimate,
    RootSelection,
    solve_closure,
)
from .model import PotentialSpec
from .poly import RationalPoly, Record, _set

# A trial function keeps the terms j = 1..n-1, so it needs n >= 4 (A2, A3).
TRIAL_MIN_ORDER = 4


class EnergySeries(Record):
    """Coefficients c_0..c_n of the interior solution, as polynomials in eps."""

    __slots__ = ("n", "potential", "c", "sums")

    def __init__(
        self,
        n: int,
        potential: PotentialSpec,
        c: tuple[RationalPoly, ...],
        sums: tuple[tuple[tuple[int, ...], int], ...],  # B_j = c_1 + ... + c_j: integers, denominator
    ) -> None:
        _set(self, "n", n)
        _set(self, "potential", potential)
        _set(self, "c", c)
        _set(self, "sums", sums)

    def prefix(self, n: int) -> EnergySeries:
        """The series of order n, for 3 <= n <= self.n: c_0..c_n and their sums."""
        if not 3 <= n <= self.n:
            raise ValueError(f"a prefix of an order-{self.n} series needs 3 <= n <= {self.n}")
        if n == self.n:
            return self
        _note_ignored(self.potential.v, n)
        return EnergySeries(n, self.potential, self.c[: n + 1], self.sums[: n + 1])


def build_series(potential: PotentialSpec, n: int) -> EnergySeries:
    """Run the recurrence up to c_n, normalised to c_1 = 1.  Requires n >= 3.

    The recurrence runs on integer lists, each c_j over one positive
    denominator, and each c_j becomes a polynomial once at the end.
    """
    if n < 3:
        raise ValueError("series order must be at least 3")
    v = potential.v
    _note_ignored(v, n)
    # c_j = ints[j] / dens[j]: an integer list over one positive denominator,
    # reduced by their common gcd at each order
    vn, vd = v.scale.numerator, v.scale.denominator
    ints: list[list[int]] = [[], [1], []]
    dens = [1, 1, 1]
    for j in range(3, n + 1):
        # c_0 = 0 contributes nothing to the potential sum
        terms = [
            (v.ints[j - i - 2] * vn, vd * dens[i], ints[i])
            for i in range(max(1, j - 1 - len(v.ints)), j - 1)
            if v.ints[j - i - 2] and ints[i]
        ]
        terms.append((-1, dens[j - 2], [0] + ints[j - 2]))  # -eps c_{j-2}
        den = lcm(*(t[1] for t in terms))
        acc = [0] * max(len(t[2]) for t in terms)
        for m, d, p in terms:
            m *= den // d
            for k, x in enumerate(p):
                acc[k] += m * x
        while acc and acc[-1] == 0:
            acc.pop()
        den *= j * (j - 1)
        g = gcd(den, *acc)
        ints.append([x // g for x in acc])
        dens.append(den // g)
    sums, acc, den = [], [], 1  # B_j = acc / den, one integer axpy per order
    for p, d in zip(ints, dens):
        m = lcm(den, d)
        f, g = m // den, m // d
        acc, den = [f * x + g * y for x, y in zip_longest(acc, p, fillvalue=0)], m
        sums.append((tuple(acc), den))
    c = [RationalPoly._canonical(p, Fraction(1, d), "eps") for p, d in zip(ints, dens)]
    return EnergySeries(n=n, potential=potential, c=tuple(c), sums=tuple(sums))


def _note_ignored(v: RationalPoly, n: int) -> None:
    if v.degree > n - 3:
        import logging

        logging.getLogger(__name__).info(
            "potential coefficients beyond degree %d cannot affect a series "
            "truncated at N=%d; they are ignored", n - 3, n)


def boundary_polynomial(series: EnergySeries) -> RationalPoly:
    """B(eps) = sum_{j=1..n} c_j(eps); its roots make phi(1) vanish."""
    ints, den = series.sums[series.n]
    return RationalPoly._canonical(list(ints), Fraction(1, den), "eps")


# ----------------------------------------------------------------------
# A1: roots of the boundary polynomial

def solve_a1(
    series: EnergySeries,
    bracket=None,
    state: int = 0,
    selection: RootSelection = DEFAULT_SELECTION,
    tol: Fraction = SOLVER_TOL,
) -> EigenEstimate | None:
    """The root of B(eps) that :func:`~boxeig.estimates.solve_closure` selects, or None."""
    p = boundary_polynomial(series)
    return solve_closure(METHOD_A1, series, p, bracket, state, selection, tol)
