"""Quotient-based refinements of the power-series trial function.

With phi the order-N trial function (which satisfies both wall conditions
identically), the quotient

    W(eps) = num(eps) / den(eps),
    num = integral of phi'^2 + v phi^2,   den = integral of phi^2,

is a ratio of exact polynomials in eps.  Two closures of eps = "energy of
the trial function" are implemented:

* stationary points of W (roots of S = num' den - num den'), reporting both
  the stationary eps and the quotient value W there — the quotient value is
  a true upper bound on the ground state;
* self-consistent points eps = W(eps) (roots of F = eps den - num).

The trial function is sum_j c_j(eps) f_j in the Rayleigh-Ritz basis
f_j = q^j - q^N, so num and den are the quadratic forms c^T H c and c^T S c
with that method's matrices.  All of it, root refinement included, is exact
rational arithmetic; the kinetic term uses the integrated-by-parts form
(phi' squared), which equals the literal -phi phi'' form identically because
the trial function vanishes at both walls.

Both solvers take the quotient they solve, so a caller that wants A2 and A3
at one order builds it once and hands it to each.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .estimates import (
    DEFAULT_SELECTION,
    METHOD_A2,
    METHOD_A3,
    SOLVER_TOL,
    EigenEstimate,
    RootSelection,
    resolve_bracket,
    select_root,
)
from .model import PotentialSpec
from .poly import RationalPoly, as_rational
from .rayleigh_ritz import basis_function, basis_matrices
from .series import TrialFunction

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RayleighQuotient:
    """num/den as exact eps-polynomials for one trial function."""

    n: int
    potential: PotentialSpec
    num: RationalPoly
    den: RationalPoly

    def value(self, eps):
        """W(eps) = num(eps) / den(eps), an exact Fraction, for a rational eps."""
        eps = as_rational(eps)
        return self.num.eval(eps) / self.den.eval(eps)

    def stationarity_polynomial(self) -> RationalPoly:
        """S = num' den - num den'; W'(eps) = S / den^2."""
        return (
            self.num.differentiate() * self.den
            - self.num * self.den.differentiate()
        )

    def fixed_point_polynomial(self) -> RationalPoly:
        """F = eps den - num; roots satisfy eps = W(eps)."""
        eps = RationalPoly.monomial(1, 1, "eps")
        return eps * self.den - self.num


def _quadratic_form(matrix, terms) -> RationalPoly:
    """sum_i c_i sum_j matrix[i-1][j-1] c_j over the terms (j, c_j)."""
    acc = RationalPoly.zero("eps")
    for i, ci in terms:
        row = matrix[i - 1]
        acc = acc + ci * sum((cj * row[j - 1] for j, cj in terms), RationalPoly.zero("eps"))
    return acc


def build_quotient(trial: TrialFunction) -> RayleighQuotient:
    """num = c^T H c and den = c^T S c over the trial function's terms."""
    s, h = basis_matrices(trial.potential, trial.n)
    return RayleighQuotient(
        n=trial.n,
        potential=trial.potential,
        num=_quadratic_form(h, trial.terms),
        den=_quadratic_form(s, trial.terms),
    )


def kinetic_energy_forms(trial: TrialFunction) -> tuple[RationalPoly, RationalPoly]:
    """(integral of phi'^2, integral of -phi phi'') as eps-polynomials.

    The first is the kinetic part of the quotient, from the closed-form
    matrix; the second integrates -f_i f_j'' of the basis polynomials
    directly.  The two agree identically for functions vanishing at both
    walls; the test suite checks the equality exactly.
    """
    n = trial.n
    by_parts = _quadratic_form(basis_matrices(PotentialSpec.zero(), n)[1], trial.terms)
    f = [basis_function(j, n) for j in range(1, n)]
    ddf = [fj.differentiate().differentiate() for fj in f]
    minus_f_ddf = [[-(fi * ddfj).integrate_01() for ddfj in ddf] for fi in f]
    return by_parts, _quadratic_form(minus_f_ddf, trial.terms)


def solve_a2(
    quotient: RayleighQuotient,
    bracket=None,
    state: int = 0,
    selection: RootSelection = DEFAULT_SELECTION,
    tol: Fraction = SOLVER_TOL,
) -> EigenEstimate | None:
    """Stationary point of W in the bracket; None when there is none.

    Reports the stationary eps and the quotient value W(eps) there.  The
    default selection takes the stationary point with the smallest W (for
    state k, the (k+1)-th smallest W, which is heuristic for k >= 1).
    """
    if state > 0:
        logger.warning("excited-state selection for the stationary method is heuristic")
    bracket = resolve_bracket(bracket, quotient.potential, state)
    rank = quotient.value if selection.policy in ("default", "min-w") else None
    enclosure = select_root(
        quotient.stationarity_polynomial(), bracket, state, selection, tol, rank
    )
    if enclosure is None:
        return None
    w = quotient.value((enclosure[0] + enclosure[1]) / 2)
    return EigenEstimate(METHOD_A2, quotient.n, state, enclosure, w)


def solve_a3(
    quotient: RayleighQuotient,
    bracket=None,
    state: int = 0,
    selection: RootSelection = DEFAULT_SELECTION,
    tol: Fraction = SOLVER_TOL,
) -> EigenEstimate | None:
    """Self-consistent point eps = W(eps); smallest root by default."""
    if state > 0:
        logger.warning("excited-state selection for the fixed-point method is heuristic")
    bracket = resolve_bracket(bracket, quotient.potential, state)
    rank = quotient.value if selection.policy == "min-w" else None
    enclosure = select_root(
        quotient.fixed_point_polynomial(), bracket, state, selection, tol, rank
    )
    if enclosure is None:
        return None
    return EigenEstimate(METHOD_A3, quotient.n, state, enclosure)
