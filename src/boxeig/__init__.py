"""Eigenvalues of a particle confined to a 1D box with a polynomial potential.

The package implements three power-series estimates (boundary roots,
stationary Rayleigh quotients, and quotient fixed points), a Rayleigh-Ritz
reference on the same polynomial space, and independent high-precision
benchmarks (box eigenvalues, the linear ramp's wall condition summed as the
series at N -> oo in fixed point, and an RK4 shooting integrator).  All
symbolic work and root finding are exact rational and integer arithmetic,
and every estimate is an exact enclosure with its rational midpoint;
floating point appears only in the benchmarks and in the value of pi that
scales the default search bracket.  The exact entry points take ints,
Fractions and rational strings, and refuse a float.

Each object has one builder: :func:`build_series` runs the recurrence once,
at the largest order N a caller needs (a smaller order is its ``prefix``),
and ``variational.build_quotients`` and
``rayleigh_ritz.build_secular_systems`` build the quotient and the secular
system of every requested order in one pass each.  The solvers take those
objects; the oracles take the coupling.
"""

from .estimates import (
    METHOD_A1,
    METHOD_A2,
    METHOD_A3,
    METHOD_EXACT,
    METHOD_RR,
    EigenEstimate,
    RootSelection,
    default_bracket,
)
from .model import (
    BoxProblem,
    DimensionlessProblem,
    PotentialSpec,
    load_problem,
    nondimensionalize,
    parse_problem,
    require_unit_interval,
)
from .oracle import (
    RootScanError,
    exact_box,
    exact_linear,
    shoot,
    shoot_root,
)
from .poly import Rational, RationalPoly, as_rational, format_rational
from .rayleigh_ritz import SecularSystem, solve_secular
from .rootfind import isolate_real_roots, refine_enclosure, sturm_sequence
from .series import EnergySeries, boundary_polynomial, build_series, solve_a1
from .variational import RayleighQuotient, solve_a2, solve_a3

__version__ = "0.1.0"

__all__ = [
    "BoxProblem",
    "DimensionlessProblem",
    "EigenEstimate",
    "EnergySeries",
    "METHOD_A1",
    "METHOD_A2",
    "METHOD_A3",
    "METHOD_EXACT",
    "METHOD_RR",
    "PotentialSpec",
    "Rational",
    "RationalPoly",
    "RayleighQuotient",
    "RootScanError",
    "RootSelection",
    "SecularSystem",
    "as_rational",
    "boundary_polynomial",
    "build_series",
    "default_bracket",
    "exact_box",
    "exact_linear",
    "format_rational",
    "isolate_real_roots",
    "load_problem",
    "nondimensionalize",
    "parse_problem",
    "refine_enclosure",
    "require_unit_interval",
    "shoot",
    "shoot_root",
    "solve_a1",
    "solve_a2",
    "solve_a3",
    "solve_secular",
    "sturm_sequence",
]
