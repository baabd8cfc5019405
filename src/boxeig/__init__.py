"""Eigenvalues of a particle confined to a 1D box with a polynomial potential.

The package implements three power-series estimates (boundary roots,
stationary Rayleigh quotients, and quotient fixed points), a Rayleigh-Ritz
reference on the same polynomial space, and independent high-precision
benchmarks (box eigenvalues, the linear ramp's wall condition summed as the
series at N -> oo in fixed point, and an RK4 shooting integrator).  All
symbolic work and root finding are exact rational and integer arithmetic,
and every estimate is an exact enclosure with its rational midpoint;
floating point appears only in the benchmarks and in the value of pi that
scales the default search bracket.
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
    energy_to_epsilon,
    epsilon_to_energy,
    linear_coupling,
    load_problem,
    nondimensionalize,
    parse_problem,
    require_unit_interval,
    serialize_problem,
)
from .oracle import (
    RootScanError,
    exact_box,
    exact_linear,
    shoot,
    shoot_root,
)
from .poly import Rational, RationalPoly, as_rational, format_rational
from .rayleigh_ritz import (
    SecularSystem,
    build_secular,
    solve_secular,
)
from .rootfind import (
    count_real_roots,
    isolate_real_roots,
    refine_enclosure,
    sturm_sequence,
)
from .series import (
    EnergySeries,
    TrialFunction,
    boundary_polynomial,
    build_series,
    build_trial,
    solve_a1,
    specialize,
)
from .variational import (
    RayleighQuotient,
    build_quotient,
    kinetic_energy_forms,
    solve_a2,
    solve_a3,
)

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
    "TrialFunction",
    "as_rational",
    "boundary_polynomial",
    "build_quotient",
    "build_secular",
    "build_series",
    "build_trial",
    "count_real_roots",
    "default_bracket",
    "energy_to_epsilon",
    "epsilon_to_energy",
    "exact_box",
    "exact_linear",
    "format_rational",
    "isolate_real_roots",
    "kinetic_energy_forms",
    "linear_coupling",
    "load_problem",
    "nondimensionalize",
    "parse_problem",
    "refine_enclosure",
    "require_unit_interval",
    "serialize_problem",
    "shoot",
    "shoot_root",
    "solve_a1",
    "solve_a2",
    "solve_a3",
    "solve_secular",
    "specialize",
    "sturm_sequence",
]
