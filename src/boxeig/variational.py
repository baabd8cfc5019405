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

The trial function sum_j c_j(eps) (q^j - q^N) is sum_{a=1..N} Phi_a q^a, with
Phi_a = c_a (a < N) and Phi_N = -B_{N-1} = -sum_{a<N} c_a, so num and den are
double sums of Phi_a Phi_b times the integral of the q-monomials: the weight
w_ab is ab/(a+b-1) + sum_k v_k/(a+b+k+1) for num and 1/(a+b+1) for den.
With P_a the c_a over one common denominator (and B_{n-1} = sum_{a<n} P_a),
G_n = sum_{a<n} w_an P_a and F_n = sum_{a,b<n} w_ab P_a P_b, the form of
order n is

    F_n + B_{n-1} (w_nn B_{n-1} - 2 G_n),   F_{n+1} = F_n + P_n (2 G_n + w_nn P_n),

so one pass over one weight table at the largest order builds the form of
every order, one product per order, on integers; each is made a polynomial
once.  S, F and W(eps) are each one pass over the integer coefficients of
num and den, and W(eps) is one Fraction.  All of it, root refinement
included (whose float guesses only choose probe points), is exact;
the kinetic term uses the integrated-by-parts form (phi' squared), which
equals the literal -phi phi'' form identically because the trial function
vanishes at both walls.

:func:`build_quotients` is the one builder, and it reads the trial
function's terms straight off the series; a single order n is
``build_quotients(series, (n,))[n]``.  Both solvers take the quotient they
solve, so a caller that wants A2 and A3 at one order builds it once and
hands it to each.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable

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
from .poly import RationalPoly, Record, _horner, _int_addmul, _set, as_rational
from .series import TRIAL_MIN_ORDER, EnergySeries


class RayleighQuotient(Record):
    """num/den as exact eps-polynomials for one trial function."""

    __slots__ = ("n", "potential", "num", "den")

    def __init__(self, n: int, potential: PotentialSpec, num: RationalPoly, den: RationalPoly) -> None:
        _set(self, "n", n)
        _set(self, "potential", potential)
        _set(self, "num", num)
        _set(self, "den", den)

    def value(self, eps):
        """W(eps) = num(eps) / den(eps), an exact Fraction, for a rational eps.

        One Fraction, so one gcd: with eps = x/d, W is the ratio of the
        integer Horner values, times the scales and a power of d.
        """
        eps = as_rational(eps)
        (a, b), (c, e) = self.num.scale.as_integer_ratio(), self.den.scale.as_integer_ratio()
        x, d, gap = eps.numerator, eps.denominator, len(self.den.ints) - len(self.num.ints)
        top = a * e * _horner(self.num.ints, x, d) * d ** max(gap, 0)
        return Fraction(top, b * c * _horner(self.den.ints, x, d) * d ** max(-gap, 0))

    def stationarity_polynomial(self) -> RationalPoly:
        """S = num' den - num den'; W'(eps) = S / den^2.

        One pass over the integer coefficients: S_k = sum over i + j = k + 1
        of (i - j) n_i d_j, times the product of the two scales.
        """
        num, den = self.num, self.den
        s = [0] * max(len(num.ints) + len(den.ints) - 2, 0)
        for i, x in enumerate(num.ints):
            for j, y in enumerate(den.ints):
                if i != j:
                    s[i + j - 1] += (i - j) * x * y
        return RationalPoly._canonical(s, num.scale * den.scale, num.var)

    def fixed_point_polynomial(self) -> RationalPoly:
        """F = eps den - num; roots satisfy eps = W(eps).

        One pass over the integer coefficients, the scales over a common g/l.
        """
        num, den = self.num, self.den
        sn, sd = num.scale, den.scale
        g, l = gcd(sn.numerator, sd.numerator), lcm(sn.denominator, sd.denominator)
        x, y = sn.numerator // g * (l // sn.denominator), sd.numerator // g * (l // sd.denominator)
        f = [y * c - x * e for c, e in zip_longest((0, *den.ints), num.ints, fillvalue=0)]
        return RationalPoly._canonical(f, Fraction(g, l), num.var)


def _weights(v: RationalPoly, n: int):
    """(l, w) for num and for den: w(a, b) = l w_ab, an integer for a, b <= n.

    The weights are those of the module docstring; the potential part of
    num's depends on a+b alone and is tabulated once.
    """
    top = lcm(*range(1, 2 * n + len(v.ints) + 1))
    le, ln = top * v.scale.denominator, lcm(*range(1, 2 * n + 2))
    vk = [x * v.scale.numerator * top for x in v.ints]
    pot = [sum(x // (s + k + 1) for k, x in enumerate(vk)) for s in range(2 * n + 1)]
    energy = lambda a, b: le * a * b // (a + b - 1) + pot[a + b]
    return (le, energy), (ln, lambda a, b: ln // (a + b + 1))


def build_quotients(series: EnergySeries, orders: Iterable[int]) -> dict[int, RayleighQuotient]:
    """The quotient of every order in ``orders``, in one pass over the series.

    Each order lies in [4, series.n]; orders may repeat and come in any order.
    """
    orders = set(orders)
    if min(orders) < TRIAL_MIN_ORDER or max(orders) > series.n:
        raise ValueError(f"quotient orders must lie in [{TRIAL_MIN_ORDER}, {series.n}]")
    top = max(orders)
    terms = series.c[:top]  # c_a is the trial function's term a, for a < top
    d = lcm(*(c.scale.denominator for c in terms))
    phi = [[c.scale.numerator * (d // c.scale.denominator) * x for x in c.ints] for c in terms] + [[]]
    (le, energy), (ln, norm) = _weights(series.potential.v, top)
    size = 2 * max(map(len, phi)) - 1
    forms = ((le, energy, [0] * size), (ln, norm, [0] * size))  # F_n of num and of den
    wall, live, out = [], [], {}  # B_{n-1} = sum_{a<n} P_a; (a, P_a) for the nonzero P_a, a < n
    for n, p in enumerate(phi[1:], 1):
        width = max((len(pa) for _, pa in live), default=0)
        g = ge, gn = [0] * width, [0] * width  # 2 G_n of num and of den
        for a, pa in live:
            we, wn = 2 * energy(a, n), 2 * norm(a, n)
            for k, x in enumerate(pa):
                ge[k] += we * x
                gn[k] += wn * x
        if n in orders:
            closed = []
            for (l, weight, f), gw in zip(forms, g):
                form, w = f[:], weight(n, n)
                _int_addmul(form, wall, [w * x - y for x, y in zip_longest(wall, gw, fillvalue=0)])
                closed.append(RationalPoly._canonical(form, Fraction(1, l * d * d), "eps"))
            out[n] = RayleighQuotient(n, series.potential, *closed)
        if p:  # phi[top] is empty: no form is built past the largest order
            for (_, weight, f), gw in zip(forms, g):
                w = weight(n, n)
                _int_addmul(f, p, [y + w * x for x, y in zip_longest(p, gw, fillvalue=0)])
            wall = [x + y for x, y in zip_longest(wall, p, fillvalue=0)]
            live.append((n, p))
    return out


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
    state k, the (k+1)-th smallest W, which is heuristic for k >= 1).  W
    ranks by the sign of S, as select_root asks: W' = S / den^2, and den > 0
    is the norm of a trial function with c_1 = 1.
    """
    if state > 0:
        import logging

        logging.getLogger(__name__).warning("excited-state selection for the stationary method is heuristic")
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
    """Self-consistent point eps = W(eps); smallest root by default.

    W(eps) = eps at every root, so ``min-w`` is the policy ``smallest``.
    """
    if state > 0:
        import logging

        logging.getLogger(__name__).warning("excited-state selection for the fixed-point method is heuristic")
    if selection.policy == "min-w":
        selection = RootSelection("smallest")
    p = quotient.fixed_point_polynomial()
    return solve_closure(METHOD_A3, quotient, p, bracket, state, selection, tol)
