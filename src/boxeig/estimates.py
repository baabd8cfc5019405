"""Result containers and root-selection policies shared by the solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import rootfind
from .model import KIND_LINEAR, KIND_ZERO, PotentialSpec
from .poly import RationalPoly, as_rational, exact_rational

METHOD_A1 = "A1"
METHOD_A2 = "A2"
METHOD_A3 = "A3"
METHOD_RR = "RR"
METHOD_EXACT = "EXACT"


@dataclass(frozen=True)
class EigenEstimate:
    """One eigenvalue estimate produced by a single method at one order N.

    ``enclosure`` is the certified rational enclosure of the selected root
    and ``eps`` its exact midpoint.  For the stationary-point method, ``w``
    holds the exact quotient value at eps.
    """

    method: str
    n: int
    state: int
    enclosure: tuple[Fraction, Fraction]
    w: Fraction | None = None

    @property
    def eps(self) -> Fraction:
        return (self.enclosure[0] + self.enclosure[1]) / 2


@dataclass(frozen=True)
class RootSelection:
    """Which root of a method's closure equation to report.

    ``default`` lets each method use its natural rule (smallest root for the
    boundary and fixed-point methods, smallest quotient value for the
    stationary method).  ``nearest`` needs a target.
    """

    policy: str = "default"
    target: Fraction | None = None

    def __post_init__(self) -> None:
        if self.policy not in ("default", "smallest", "nearest", "min-w"):
            raise ValueError(f"unknown selection policy {self.policy!r}")
        if (self.policy == "nearest") != (self.target is not None):
            raise ValueError("'nearest' selection requires a target, others forbid it")

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
    the exact slope for a linear ramp, a coefficient-sum bound otherwise.
    """
    if potential.kind == KIND_ZERO:
        bound = Fraction(0)
    elif potential.kind == KIND_LINEAR:
        bound = potential.lam
    else:
        bound = sum((abs(c) for c in potential.v.coeffs), Fraction(0))
    factor = max(Fraction(1), 1 + bound)
    hi = Fraction((state + 2) ** 2) * Fraction(math.pi) ** 2 * factor
    return (Fraction(0), hi)


# Enclosure width to which candidates are refined before their values are
# compared; the chosen one is then refined on to the solver's tolerance.
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
    """Certified enclosure (width <= 2*tol) of the root of p that is selected.

    Index policies take the (state+1)-th isolating interval and refine only
    that one.  Policies that compare values, ``nearest`` and any ``rank``
    (a key on eps, such as the quotient value for ``min-w``), first refine
    every candidate to a coarse certified enclosure and compare its
    midpoint.  None when the bracket holds no suitable root.  ``min-w``
    without a ``rank`` is refused: only the quotient methods have a value
    to rank by, and so is a negative state.
    """
    if state < 0:
        raise ValueError("state must be nonnegative")
    if selection.policy == "min-w" and rank is None:
        raise ValueError("'min-w' selection ranks by quotient value, which only A2 and A3 have")
    if p.degree < 1:
        return None
    # refine on the polynomial isolation used: at a multiple root that is the
    # square-free part, which changes sign there
    p, intervals = rootfind.isolate_real_roots(p, bracket)
    if rank is None and selection.policy != "nearest":
        if state >= len(intervals):
            return None
        return rootfind.refine_enclosure(p, intervals[state], 2 * tol)
    if not intervals:
        return None
    candidates = [rootfind.refine_enclosure(p, iv, COARSE_WIDTH) for iv in intervals]
    mids = [(a + b) / 2 for a, b in candidates]
    if rank is None:
        idx = min(range(len(mids)), key=lambda i: abs(mids[i] - selection.target))
    else:
        if state >= len(mids):
            return None
        idx = sorted(range(len(mids)), key=lambda i: rank(mids[i]))[state]
    return rootfind.refine_enclosure(p, candidates[idx], 2 * tol)


def resolve_bracket(bracket, potential: PotentialSpec, state: int) -> tuple[Fraction, Fraction]:
    """The given search bracket as exact rationals, or the default one."""
    if bracket is None:
        return default_bracket(potential, state)
    return (exact_rational(bracket[0]), exact_rational(bracket[1]))
