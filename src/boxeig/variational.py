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

Everything up to root refinement is exact rational arithmetic; the kinetic
term uses the integrated-by-parts form (phi' squared), which equals the
literal -phi phi'' form identically because the trial function vanishes at
both walls.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .estimates import (
    DEFAULT_SELECTION,
    METHOD_A2,
    METHOD_A3,
    EigenEstimate,
    RootSelection,
    resolve_bracket,
    select_root,
)
from .model import PotentialSpec
from .poly import RationalPoly, as_rational
from .series import (
    SOLVER_TOL,
    TrialFunction,
    build_series,
    build_trial,
    potential_q_series,
    q_series_derivative,
    q_series_integral01,
    q_series_mul,
    trial_q_series,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RayleighQuotient:
    """num/den as exact eps-polynomials for one trial function."""

    n: int
    potential: PotentialSpec
    num: RationalPoly
    den: RationalPoly

    def value(self, eps):
        """W(eps); exact Fraction for rational eps, float for float eps."""
        if isinstance(eps, float):
            return float(self.value(Fraction(eps)))
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


def build_quotient(trial: TrialFunction) -> RayleighQuotient:
    """Assemble num and den by exact integration of the trial function."""
    phi = trial_q_series(trial)
    dphi = q_series_derivative(phi)
    phi2 = q_series_mul(phi, phi)
    num_series = q_series_mul(dphi, dphi)
    if not trial.potential.v.is_zero:
        v = potential_q_series(trial.potential.v)
        v_phi2 = q_series_mul(v, phi2)
        n = max(len(num_series), len(v_phi2))
        zero = RationalPoly.zero("eps")
        num_series = [
            (num_series[k] if k < len(num_series) else zero)
            + (v_phi2[k] if k < len(v_phi2) else zero)
            for k in range(n)
        ]
    return RayleighQuotient(
        n=trial.n,
        potential=trial.potential,
        num=q_series_integral01(num_series),
        den=q_series_integral01(phi2),
    )


def kinetic_energy_forms(trial: TrialFunction) -> tuple[RationalPoly, RationalPoly]:
    """(integral of phi'^2, integral of -phi phi'') as eps-polynomials.

    The two agree identically for functions vanishing at both walls; the
    test suite checks the equality exactly.
    """
    phi = trial_q_series(trial)
    dphi = q_series_derivative(phi)
    by_parts = q_series_integral01(q_series_mul(dphi, dphi))
    ddphi = q_series_derivative(dphi)
    minus_phi_ddphi = [-c for c in q_series_mul(phi, ddphi)]
    literal = q_series_integral01(minus_phi_ddphi)
    return by_parts, literal


@lru_cache(maxsize=8)
def quotient_for(potential: PotentialSpec, n: int) -> RayleighQuotient:
    """Convenience: series -> trial -> quotient at order n (n >= 4).

    Cached for the last few (potential, n), so that A2 and A3 on one row
    share a single build.
    """
    return build_quotient(build_trial(build_series(potential, n)))


def solve_a2(
    potential: PotentialSpec,
    n: int,
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
    quotient = quotient_for(potential, n)
    bracket = resolve_bracket(bracket, potential, state)
    s_poly = quotient.stationarity_polynomial()
    rank = quotient.value if selection.policy in ("default", "min-w") else None
    enclosure = select_root(s_poly, bracket, state, selection, tol, rank)
    if enclosure is None:
        return None
    mid = (enclosure[0] + enclosure[1]) / 2
    w_exact = quotient.value(mid)
    den_mid = quotient.den.eval(mid)
    residual = abs(s_poly.eval(mid) / den_mid**2)  # |W'(eps)| at the report point
    return EigenEstimate(
        method=METHOD_A2,
        n=n,
        state=state,
        eps=float(mid),
        residual=float(residual),
        bracket=(float(bracket[0]), float(bracket[1])),
        w=float(w_exact),
        enclosure=enclosure,
        w_exact=w_exact,
    )


def solve_a3(
    potential: PotentialSpec,
    n: int,
    bracket=None,
    state: int = 0,
    selection: RootSelection = DEFAULT_SELECTION,
    tol: Fraction = SOLVER_TOL,
) -> EigenEstimate | None:
    """Self-consistent point eps = W(eps); smallest root by default."""
    if state > 0:
        logger.warning("excited-state selection for the fixed-point method is heuristic")
    quotient = quotient_for(potential, n)
    bracket = resolve_bracket(bracket, potential, state)
    f_poly = quotient.fixed_point_polynomial()
    rank = quotient.value if selection.policy == "min-w" else None
    enclosure = select_root(f_poly, bracket, state, selection, tol, rank)
    if enclosure is None:
        return None
    mid = (enclosure[0] + enclosure[1]) / 2
    residual = abs(mid - quotient.value(mid))
    return EigenEstimate(
        method=METHOD_A3,
        n=n,
        state=state,
        eps=float(mid),
        residual=float(residual),
        bracket=(float(bracket[0]), float(bracket[1])),
        enclosure=enclosure,
    )

