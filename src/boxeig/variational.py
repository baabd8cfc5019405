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

The trial function sum_j c_j(eps) (q^j - q^N) is, in powers of q,

    phi = sum_{a=1..N} Phi_a q^a,   Phi_j = c_j (j < N),   Phi_N = -sum_j c_j,

so num and den are double sums over a and b of Phi_a Phi_b times a closed-form
weight, the integral of the corresponding q-monomials:

    den = sum_{a,b} Phi_a Phi_b / (a+b+1),
    num = sum_{a,b} Phi_a Phi_b [ab/(a+b-1) + sum_k v_k/(a+b+k+1)].

The Phi_a are brought to integer lists over one common denominator and each
weight table to integers over one common multiple of its denominators, so a
form is summed on integers and made a polynomial once.  All of it, root
refinement included, is exact rational arithmetic; the kinetic term uses the
integrated-by-parts form (phi' squared), which equals the literal -phi phi''
form identically because the trial function vanishes at both walls.

Both solvers take the quotient they solve, so a caller that wants A2 and A3
at one order builds it once and hands it to each.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .estimates import (
    DEFAULT_SELECTION,
    METHOD_A2,
    METHOD_A3,
    SOLVER_TOL,
    EigenEstimate,
    RootSelection,
    solve_closure,
)
from .model import PotentialSpec
from .poly import RationalPoly, _int_mul, _int_sub, as_rational
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


def _q_coefficients(trial: TrialFunction) -> tuple[list[list[int]], int]:
    """Integer lists P_1..P_n and one denominator d with Phi_a = P_a / d."""
    d = lcm(*(c.scale.denominator for _, c in trial.terms))
    phi: list[list[int]] = [[] for _ in range(trial.n)]
    wall: list[int] = []
    for j, c in trial.terms:
        m = c.scale.numerator * (d // c.scale.denominator)
        phi[j - 1] = [m * x for x in c.ints]
        wall = _int_sub(wall, phi[j - 1])
    phi[trial.n - 1] = wall
    return phi, d


def _norm_weight(n: int):
    """l and the integer l/(a+b+1): l times the integral of q^a q^b."""
    l = lcm(*range(1, 2 * n + 2))
    return l, lambda a, b: l // (a + b + 1)


def _energy_weight(v: RationalPoly, n: int):
    """l and l [ab/(a+b-1) + sum_k v_k/(a+b+k+1)] as integers.

    That is l times the integral of (q^a)' (q^b)' + v q^a q^b; the potential
    part depends on a+b alone and is tabulated once.
    """
    top = lcm(*range(1, 2 * n + len(v.ints) + 1))
    l = top * v.scale.denominator
    vk = [x * v.scale.numerator * top for x in v.ints]
    pot = [sum(x // (s + k + 1) for k, x in enumerate(vk)) for s in range(2 * n + 1)]
    return l, lambda a, b: l * a * b // (a + b - 1) + pot[a + b]


def _form(phi: list[list[int]], d: int, l: int, weight) -> RationalPoly:
    """sum_{a,b} Phi_a Phi_b w_ab as an eps-polynomial, for Phi_a = phi[a-1] / d.

    ``weight(a, b)`` is the integer l w_ab of a weight symmetric in a and b.
    Row a accumulates r_a = l w_aa P_a + 2 sum_{b>a} l w_ab P_b by integer
    axpy, and the form is sum_a P_a r_a / (l d^2), reduced once.
    """
    live = [(a, p) for a, p in enumerate(phi, 1) if p]
    width = max((len(p) for _, p in live), default=0)
    out = [0] * (2 * width - 1)
    for i, (a, pa) in enumerate(live):
        row = [0] * width
        for b, pb in live[i:]:
            w = weight(a, b) if b == a else 2 * weight(a, b)
            for k, x in enumerate(pb):
                row[k] += w * x
        for k, x in enumerate(_int_mul(pa, row)):
            out[k] += x
    return RationalPoly._canonical(out, Fraction(1, l * d * d), "eps")


def build_quotient(trial: TrialFunction) -> RayleighQuotient:
    """num and den as double sums over the q-coefficients Phi_a of phi.

    Both forms share the integer lists of the Phi_a over one denominator and
    differ only in their weight tables (see the module docstring).
    """
    phi, d = _q_coefficients(trial)
    return RayleighQuotient(
        n=trial.n,
        potential=trial.potential,
        num=_form(phi, d, *_energy_weight(trial.potential.v, trial.n)),
        den=_form(phi, d, *_norm_weight(trial.n)),
    )


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
    w = quotient.value
    rank = w if selection.policy in ("default", "min-w") else None
    p = quotient.stationarity_polynomial()
    return solve_closure(METHOD_A2, quotient, p, bracket, state, selection, tol, rank, w)


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
    rank = quotient.value if selection.policy == "min-w" else None
    p = quotient.fixed_point_polynomial()
    return solve_closure(METHOD_A3, quotient, p, bracket, state, selection, tol, rank)
