"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as a tuple of `fractions.Fraction` coefficients in
ascending powers (``coeffs[k]`` multiplies ``x**k``) with no trailing zeros,
so the zero polynomial is the empty tuple and has degree -1.  Every ring
operation is exact; floating point enters only through :meth:`RationalPoly.eval`
when the caller passes an inexact point.

Each polynomial carries an advisory variable tag (``"q"`` for the spatial
coordinate, ``"eps"`` for the energy).  Binary operations insist that the tags
agree, which catches the easy mistake of combining a spatial series with an
energy polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rational = Fraction

ScalarLike = Union[int, Fraction, str]


def as_rational(x: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or string like ``"2/3"`` / ``"0.25"`` to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rational(x: Fraction) -> str:
    """Render ``p/q``, or just ``p`` when the denominator is 1."""
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _normalize(coeffs: Iterable[ScalarLike]) -> tuple[Fraction, ...]:
    out = [as_rational(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    coeffs: tuple[Fraction, ...] = field(default=())
    var: str = "q"

    def __post_init__(self) -> None:
        normalized = _normalize(self.coeffs)
        object.__setattr__(self, "coeffs", normalized)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[ScalarLike], var: str = "q") -> "RationalPoly":
        return cls(tuple(as_rational(c) for c in coeffs), var)

    @classmethod
    def zero(cls, var: str = "q") -> "RationalPoly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "q") -> "RationalPoly":
        return cls((Fraction(1),), var)

    @classmethod
    def constant(cls, c: ScalarLike, var: str = "q") -> "RationalPoly":
        return cls((as_rational(c),), var)

    @classmethod
    def monomial(cls, power: int, c: ScalarLike = 1, var: str = "q") -> "RationalPoly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls((Fraction(0),) * power + (as_rational(c),), var)

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self) -> int:
        """Degree with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _check_var(self, other: "RationalPoly") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}"
            )

    def with_var(self, var: str) -> "RationalPoly":
        return RationalPoly(self.coeffs, var)

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            self._check_var(other)
            return other
        return RationalPoly.constant(as_rational(other), self.var)

    def __add__(self, other) -> "RationalPoly":
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return RationalPoly(
            tuple(self.coeff(k) + o.coeff(k) for k in range(n)), self.var
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other) -> "RationalPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            c = as_rational(other)
            return RationalPoly(tuple(c * a for a in self.coeffs), self.var)
        self._check_var(other)
        if self.is_zero or other.is_zero:
            return RationalPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(tuple(out), self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = RationalPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs and self.var == other.var
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.var))

    # ------------------------------------------------------------------
    # calculus

    def differentiate(self) -> "RationalPoly":
        """Exact derivative."""
        return RationalPoly(
            tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1), self.var
        )

    def antiderivative(self) -> "RationalPoly":
        """Antiderivative with zero constant term."""
        return RationalPoly(
            (Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)),
            self.var,
        )

    def integrate_01(self) -> Fraction:
        """Exact integral over [0, 1]: sum of coeffs[k] / (k+1)."""
        return sum((c / (k + 1) for k, c in enumerate(self.coeffs)), Fraction(0))

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, x):
        """Evaluate at x.

        Exact (Fraction) for int/Fraction arguments.  A float argument is
        converted to its exact rational value, evaluated exactly, and rounded
        once at the end, so the result is correctly rounded.  Any other
        numeric type (e.g. an mpmath float) is evaluated by Horner's rule in
        that type's own arithmetic.
        """
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        if isinstance(x, float):
            return float(self.eval(Fraction(x)))
        zero = x * 0
        acc = zero
        for c in reversed(self.coeffs):
            acc = acc * x + (zero + c.numerator) / c.denominator
        return acc

    def __call__(self, x):
        return self.eval(x)

    # ------------------------------------------------------------------
    # composition and division

    def compose_scale_shift(self, a: ScalarLike, b: ScalarLike, var: str | None = None) -> "RationalPoly":
        """Exact coefficients of p(a*t + b), reported in variable `var`."""
        a = as_rational(a)
        b = as_rational(b)
        new_var = self.var if var is None else var
        inner = RationalPoly.from_coeffs([b, a], new_var)
        acc = RationalPoly.zero(new_var)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        """Exact polynomial division: self = q*other + r with deg r < deg other."""
        self._check_var(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return RationalPoly.zero(self.var), self
        quo = [Fraction(0)] * (dq + 1)
        d = other.degree
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[d + k] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return (
            RationalPoly(tuple(quo), self.var),
            RationalPoly(tuple(rem[:d] if d > 0 else []), self.var),
        )

    def divexact(self, other: "RationalPoly") -> "RationalPoly":
        """Division that must be remainder-free (used by fraction-free elimination)."""
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    # ------------------------------------------------------------------
    # normalization helpers for root finding

    def primitive_part(self) -> "RationalPoly":
        """Scale by a positive rational so coefficients are coprime integers.

        The sign of the polynomial is preserved, so sign-based root counting
        on the primitive part agrees with the original.
        """
        if self.is_zero:
            return self
        return _from_ints(_primitive_ints(self), self.var)

    # ------------------------------------------------------------------
    # rendering

    def coeff_strings(self) -> list[str]:
        """Coefficients as ``p/q`` strings, lowest power first."""
        return [format_rational(c) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(format_rational(c))
            elif k == 1:
                parts.append(f"{format_rational(c)}*{self.var}")
            else:
                parts.append(f"{format_rational(c)}*{self.var}^{k}")
        return " + ".join(parts).replace("+ -", "- ")


# ----------------------------------------------------------------------
# integer coefficient lists
#
# The fraction-free kernels (the Bareiss determinant and the Sturm chain)
# clear denominators once and then work on plain lists of ints, ascending
# powers with no trailing zeros, so that no ring operation pays the gcd a
# Fraction takes.  RationalPoly stays the type at their boundaries.


def _denominator(polys: Iterable[RationalPoly]) -> int:
    """Least common multiple of every coefficient denominator."""
    return lcm(*(c.denominator for p in polys for c in p.coeffs))


def _scaled_ints(p: RationalPoly, den: int) -> list[int]:
    """Coefficients of den * p, where den is a multiple of every denominator."""
    return [c.numerator * (den // c.denominator) for c in p.coeffs]


def _primitive_ints(p: RationalPoly) -> list[int]:
    """p scaled by a positive rational to coprime integer coefficients."""
    ints = _scaled_ints(p, _denominator((p,)))
    g = _int_content(ints)
    return [v // g for v in ints]


def _from_ints(a: Sequence[int], var: str, den: int = 1) -> RationalPoly:
    """The polynomial a / den."""
    return RationalPoly(tuple(Fraction(v, den) for v in a), var)


def _int_content(a: Sequence[int]) -> int:
    """gcd of the coefficients, nonnegative."""
    return gcd(*a)


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _int_divexact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for a nonzero b that divides a in Z[x]; ValueError otherwise."""
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(a) - len(b), -1, -1):
        c, m = divmod(rem[db + k], lead)
        if m:
            raise ValueError("inexact polynomial division")
        quo[k] = c
        if c:
            for j in range(db):
                rem[j + k] -= c * b[j]
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return quo


def _int_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, for deg a >= deg b.

    It is the remainder of a / b over the rationals times that power of
    lc(b), so it has integer coefficients and needs no division.
    """
    db = len(b) - 1
    lead = b[-1]
    low = b[:-1]
    rem = list(a)
    for k in range(len(a) - len(b), -1, -1):
        # rem := lead * rem - c x^k b, whose x^(db+k) term cancels
        c = rem.pop()
        rem = [lead * v for v in rem]
        if c:
            for j, y in enumerate(low):
                rem[j + k] -= c * y
    while rem and rem[-1] == 0:
        rem.pop()
    return rem
