"""Result containers, root selection, and the one path from closure polynomial to estimate."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from . import rootfind
from .model import KIND_LINEAR, PotentialSpec
from .poly import RationalPoly, Record, _set, as_rational

METHOD_A1 = "A1"
METHOD_A2 = "A2"
METHOD_A3 = "A3"
METHOD_RR = "RR"
METHOD_EXACT = "EXACT"

#: How an estimate of None (no real root in the bracket) renders in a table.
NO_ROOT = "--"


class EigenEstimate(Record):
    """One eigenvalue estimate produced by a single method at one order N.

    ``enclosure`` is the certified rational enclosure of the selected root
    and ``eps`` its exact midpoint.  For the stationary-point method, ``w``
    holds the exact quotient value at eps.
    """

    __slots__ = ("method", "n", "state", "enclosure", "w")

    def __init__(
        self,
        method: str,
        n: int,
        state: int,
        enclosure: tuple[Fraction, Fraction],
        w: Fraction | None = None,
    ) -> None:
        _set(self, "method", method)
        _set(self, "n", n)
        _set(self, "state", state)
        _set(self, "enclosure", enclosure)
        _set(self, "w", w)

    @property
    def eps(self) -> Fraction:
        return (self.enclosure[0] + self.enclosure[1]) / 2


class RootSelection(Record):
    """Which root of a method's closure equation to report.

    ``default`` is each method's own rule, and :func:`solve_closure` holds
    every method's rules.  ``nearest`` needs a target.
    """

    __slots__ = ("policy", "target")

    def __init__(self, policy: str = "default", target: Fraction | None = None) -> None:
        if policy not in ("default", "smallest", "nearest", "min-w"):
            raise ValueError(f"unknown selection policy {policy!r}")
        if (policy == "nearest") != (target is not None):
            raise ValueError("'nearest' selection requires a target, others forbid it")
        _set(self, "policy", policy)
        _set(self, "target", target)

    @classmethod
    def parse(cls, text: str) -> "RootSelection":
        """Parse ``smallest``, ``min-w``, or ``nearest:<value>``."""
        text = text.strip()
        if text.startswith("nearest:"):
            return cls("nearest", as_rational(text.split(":", 1)[1]))
        return cls(text)


DEFAULT_SELECTION = RootSelection()


def default_bracket(potential: PotentialSpec, state: int = 0) -> tuple[Fraction, Fraction]:
    """Search bracket (0, (state+2)^2 pi^2 max(1, 1 + bound)) on the energy axis.

    The bound term accounts for how far the potential can shift the spectrum:
    the exact slope for a linear ramp, otherwise the sum of the coefficients'
    magnitudes (0 for the free box).
    """
    if potential.kind == KIND_LINEAR:
        bound = potential.lam
    else:
        bound = sum((abs(c) for c in potential.v.coeffs), Fraction(0))
    factor = max(Fraction(1), 1 + bound)
    hi = Fraction((state + 2) ** 2) * Fraction(math.pi) ** 2 * factor
    return (Fraction(0), hi)


# Enclosure width to which the candidates left in contention are refined
# before their values are compared; the chosen one is then refined on to the
# solver's tolerance.
COARSE_WIDTH = Fraction(1, 10**12)

# Enclosure half-width used by the solver entry points; tight enough that a
# renderer can trust 25 significant digits from the midpoint.
SOLVER_TOL = Fraction(1, 10**26)


def select_root(
    p: RationalPoly,
    bracket: tuple[Fraction, Fraction],
    state: int,
    selection: RootSelection,
    tol: Fraction,
    rank: Callable[[Fraction], Fraction] | None = None,
) -> tuple[Fraction, Fraction] | None:
    """Certified enclosure (width <= 2*tol) of the root of p at a nonnegative ``state``.

    The mechanism of selection; :func:`solve_closure` holds the rules that
    choose among its three modes.  By index (no ``rank``, any policy but
    ``nearest``) it isolates only the first state+1 roots in the bracket and
    refines only the last of them.  ``nearest`` and a ``rank`` (a key on
    eps) isolate every root.  A rank must rise where p > 0 and fall where
    p < 0, so the sign of p between two neighbouring roots orders their
    ranks strictly: a root with state+1 others on strictly descending runs
    of the rank beside it is dropped unrefined.  The candidates left are
    compared at the midpoints of coarse certified enclosures; a lone one is
    refined once, straight to 2*tol.  None when the bracket holds no
    suitable root.
    """
    if p.degree < 1:
        return None
    # refine on the polynomial isolation used: at a multiple root that is the
    # square-free part, which changes sign there
    by_index = rank is None and selection.policy != "nearest"
    isolated, intervals = rootfind.isolate_real_roots(p, bracket, state + 1 if by_index else None)
    # nearest needs one root, an index or a rank state+1
    if len(intervals) <= (0 if rank is None and not by_index else state):
        return None
    if by_index:
        return rootfind.refine_enclosure(isolated, intervals[state], 2 * tol)
    if rank is not None:
        intervals = [intervals[i] for i in _contenders(p, intervals, state)]
    idx = 0
    if len(intervals) > 1:
        intervals = [rootfind.refine_enclosure(isolated, iv, COARSE_WIDTH) for iv in intervals]
        mids = [(a + b) / 2 for a, b in intervals]
        if rank is None:
            idx = min(range(len(mids)), key=lambda i: abs(mids[i] - selection.target))
        else:
            idx = sorted(range(len(mids)), key=lambda i: rank(mids[i]))[state]
    return rootfind.refine_enclosure(isolated, intervals[idx], 2 * tol)


def _contenders(p: RationalPoly, intervals, state: int) -> list[int]:
    """Indices of the roots with at most ``state`` others below them on the rank's runs beside them.

    p has no root between neighbouring intervals.  Its sign there is read on
    p itself, not on the square-free part: at a nondegenerate end, where p
    is nonzero, or midway between two degenerate intervals.
    """
    gaps = zip(intervals, intervals[1:])
    signs = [rootfind._sign_at(p.ints, b if a < b else c if c < d else (b + c) / 2) for (a, b), (c, d) in gaps]
    below, run = [0] * len(intervals), 0
    for i in range(len(signs) - 1, -1, -1):  # falling to the right
        run = run + 1 if signs[i] < 0 else 0
        below[i] = run
    run = 0
    for i, sign in enumerate(signs, 1):  # rising to the left
        run = run + 1 if sign > 0 else 0
        below[i] += run
    return [i for i, k in enumerate(below) if k <= state]


def resolve_bracket(bracket, potential: PotentialSpec, state: int) -> tuple[Fraction, Fraction]:
    """The given search bracket as exact rationals, or the default one."""
    if bracket is None:
        return default_bracket(potential, state)
    return (as_rational(bracket[0]), as_rational(bracket[1]))


#: The methods whose choice of an excited state is heuristic, as the warning names them.
_HEURISTIC = {METHOD_A2: "stationary", METHOD_A3: "fixed-point"}


def solve_closure(
    method: str,
    source,
    p: RationalPoly,
    bracket,
    state: int,
    selection: RootSelection,
    tol: Fraction,
    w: Callable[[Fraction], Fraction] | None = None,
) -> EigenEstimate | None:
    """The estimate of ``method`` at the root of its closure polynomial p that ``selection`` picks.

    Every solver builds p and ends here, and every rule that labels a root
    lives here.  A negative state is refused.  ``nearest:<x>`` takes the
    root nearest x, whatever the state.  ``smallest`` takes the (state+1)-th
    smallest root in the bracket, and so do ``default`` for A1, A3 and RR
    and A3's ``min-w``: W(eps) = eps at every fixed point, so the smallest W
    is the smallest root.  A2's ``default`` and ``min-w`` take the
    stationary point with the (state+1)-th smallest W, with the quotient
    ``w`` as the rank of :func:`select_root`; W ranks by the sign of S = p,
    as that asks, because W' = S / den^2 and den > 0 is the norm of a trial
    function with c_1 = 1.  A1 and RR have no quotient and refuse ``min-w``.
    RR's basis of order n has n - 1 functions and p = det(H - eps S) as many
    roots, so a state at or past n - 1 has none, whatever the policy.  A2's
    and A3's choice of an excited state is heuristic: each such solve logs
    one warning.

    ``source`` is what p was built from: its ``n`` labels the estimate, and
    its ``potential`` sets the default bracket, which a ``bracket`` of None
    asks for.  ``w``, when given, is the quotient whose value at eps the
    estimate reports.  None when the bracket holds no suitable root.
    """
    if state < 0:
        raise ValueError("state must be nonnegative")
    if selection.policy == "min-w" and method in (METHOD_A1, METHOD_RR):
        raise ValueError("'min-w' selection ranks by quotient value, which only A2 and A3 have")
    if state > 0 and method in _HEURISTIC:
        import logging

        logging.getLogger(__name__).warning(
            "excited-state selection for the %s method is heuristic", _HEURISTIC[method])
    bracket = resolve_bracket(bracket, source.potential, state)
    if method == METHOD_RR and state >= p.degree:
        return None
    rank = w if method == METHOD_A2 and selection.policy in ("default", "min-w") else None
    enclosure = select_root(p, bracket, state, selection, tol, rank)
    if enclosure is None:
        return None
    value = None if w is None else w((enclosure[0] + enclosure[1]) / 2)
    return EigenEstimate(method, source.n, state, enclosure, value)
