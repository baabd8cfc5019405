"""Physical problem description and exact reduction to the unit interval.

A particle of mass m lives in a hard-walled box [L1, L2] under a polynomial
potential V(x) given by its Taylor coefficients about a reference point x0.
The substitution q = (x - x0)/L with L = L2 - L1 maps the box to an interval
of unit length and turns the stationary Schroedinger equation into

    -phi'' + v(q) phi = eps phi,    v(q) = (2 m L^2 / hbar^2) V(L q + x0),

with eps = (2 m L^2 / hbar^2) E.  All reductions here are exact rational
arithmetic; no floating point is introduced.

The solver modules assume the left-anchored choice x0 = L1, which maps the box
to [0, 1].  Other reference points are representable and validated, but the
solvers reject them explicitly rather than silently producing series about an
interior point.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import RationalPoly, Record, ScalarLike, _set, as_rational, format_rational

KIND_ZERO = "zero"
KIND_LINEAR = "linear"
KIND_GENERAL = "general"


class PotentialSpec(Record):
    """Dimensionless potential v(q); its kind and slope are read off v."""

    __slots__ = ("v",)

    def __init__(self, v: RationalPoly) -> None:
        _set(self, "v", v)

    @property
    def kind(self) -> str:
        """``zero``, ``linear`` for a pure ramp lam * q, else ``general``."""
        if self.v.is_zero:
            return KIND_ZERO
        if self.v.degree == 1 and self.v.coeff(0) == 0:
            return KIND_LINEAR
        return KIND_GENERAL

    @property
    def lam(self) -> Fraction | None:
        """The slope when kind == "linear", else None."""
        return self.v.coeff(1) if self.kind == KIND_LINEAR else None

    @classmethod
    def linear(cls, lam: ScalarLike) -> "PotentialSpec":
        """The ramp v(q) = lam * q; lam = 0 degenerates to the zero kind."""
        return cls(RationalPoly.from_coeffs([0, as_rational(lam)], "q"))

    @classmethod
    def general(cls, v: RationalPoly) -> "PotentialSpec":
        return cls(v if v.var == "q" else v.with_var("q"))

    def describe(self) -> str:
        if self.kind == KIND_ZERO:
            return "v = 0"
        if self.kind == KIND_LINEAR:
            return f"v = {format_rational(self.lam)}*q"
        return f"v = {self.v}"


class BoxProblem(Record):
    """Physical box problem: walls, mass, hbar, and a polynomial potential.

    The five scalars are coerced to exact rationals.  ``v_taylor`` holds the
    Taylor coefficients of V about x0, i.e. the coefficient of (x - x0)**j, in
    energy units.
    """

    __slots__ = ("mass", "hbar", "l1", "l2", "x0", "v_taylor")

    def __init__(
        self,
        mass: ScalarLike,
        hbar: ScalarLike,
        l1: ScalarLike,
        l2: ScalarLike,
        x0: ScalarLike,
        v_taylor: RationalPoly,
    ) -> None:
        mass, hbar, l1, l2, x0 = map(as_rational, (mass, hbar, l1, l2, x0))
        if mass <= 0:
            raise ValueError("mass must be positive")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        if l1 >= l2:
            raise ValueError("box walls must satisfy L1 < L2")
        if not (l1 <= x0 <= l2):
            raise ValueError("reference point x0 must lie inside [L1, L2]")
        _set(self, "mass", mass)
        _set(self, "hbar", hbar)
        _set(self, "l1", l1)
        _set(self, "l2", l2)
        _set(self, "x0", x0)
        _set(self, "v_taylor", v_taylor)

    @property
    def length(self) -> Fraction:
        return self.l2 - self.l1


class DimensionlessProblem(Record):
    """Image of a BoxProblem on an interval of unit length."""

    __slots__ = ("potential", "energy_scale", "q1", "q2")

    def __init__(
        self,
        potential: PotentialSpec,
        energy_scale: Fraction,  # 2 m L^2 / hbar^2, so eps = energy_scale * E
        q1: Fraction,  # image of L1
        q2: Fraction,  # image of L2 (q2 - q1 = 1)
    ) -> None:
        _set(self, "potential", potential)
        _set(self, "energy_scale", energy_scale)
        _set(self, "q1", q1)
        _set(self, "q2", q2)


def nondimensionalize(problem: BoxProblem) -> DimensionlessProblem:
    """Exact reduction: v(q) = (2 m L^2/hbar^2) V(L q + x0) on [q1, q1 + 1]."""
    length = problem.length
    scale = 2 * problem.mass * length**2 / problem.hbar**2
    # v_taylor is expressed in powers of (x - x0); x = L q + x0 substitutes L q.
    v = problem.v_taylor.compose_scale_shift(length, 0, var="q") * scale
    q1 = (problem.l1 - problem.x0) / length
    return DimensionlessProblem(
        potential=PotentialSpec.general(v),
        energy_scale=scale,
        q1=q1,
        q2=q1 + 1,
    )


def require_unit_interval(problem: DimensionlessProblem) -> PotentialSpec:
    """Solvers support only the left-anchored reduction (x0 = L1)."""
    if problem.q1 != 0:
        raise NotImplementedError(
            "series solvers are implemented only for the reduction anchored at "
            "the left wall (x0 = L1), which maps the box to [0, 1]; "
            f"got [{problem.q1}, {problem.q2}]"
        )
    return problem.potential


# ----------------------------------------------------------------------
# problem file format: `name=value` headers plus `j coefficient` lines

_HEADERS = {"m", "hbar", "L1", "L2", "x0"}


def parse_problem(text: str) -> BoxProblem:
    """Parse the line-oriented problem format.

    Headers ``m= hbar= L1= L2=`` are required, ``x0=`` defaults to L1.  Each
    remaining line is ``j value``: the Taylor coefficient of (x - x0)**j in
    energy units.  Blank lines and ``#`` comments are ignored.
    """
    headers: dict[str, Fraction] = {}
    coeffs: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            name, _, value = line.partition("=")
            name = name.strip()
            if name not in _HEADERS:
                raise ValueError(f"line {lineno}: unknown header {name!r}")
            if name in headers:
                raise ValueError(f"line {lineno}: duplicate header {name!r}")
            try:
                headers[name] = as_rational(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad rational {value.strip()!r}") from exc
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'j coefficient', got {raw!r}")
        try:
            j = int(parts[0])
            value = as_rational(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad coefficient line {raw!r}") from exc
        if j < 0:
            raise ValueError(f"line {lineno}: negative power {j}")
        if j in coeffs:
            raise ValueError(f"line {lineno}: duplicate coefficient for power {j}")
        coeffs[j] = value
    missing = {"m", "hbar", "L1", "L2"} - headers.keys()
    if missing:
        raise ValueError(f"missing required headers: {', '.join(sorted(missing))}")
    x0 = headers.get("x0", headers["L1"])
    size = max(coeffs) + 1 if coeffs else 0
    taylor = [Fraction(0)] * size
    for j, value in coeffs.items():
        taylor[j] = value
    return BoxProblem(
        mass=headers["m"],
        hbar=headers["hbar"],
        l1=headers["L1"],
        l2=headers["L2"],
        x0=x0,
        v_taylor=RationalPoly.from_coeffs(taylor, "x"),
    )


def load_problem(path) -> BoxProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())
