"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as one positive rational ``scale`` times an integer
polynomial, ``scale * sum(ints[k] * x**k)``.  The tuple ``ints`` runs over
ascending powers with no trailing zeros, its entries are coprime, and it
carries the sign; the zero polynomial has ``ints == ()``, scale 1 and degree
-1.  This is the content-times-primitive-part form (Gauss's lemma; Knuth,
TAOCP Vol. 2, 4.6.1).  It is canonical, so equal polynomials have equal
fields, and the ring operations run on integers: a scalar product changes
only the scale, a product multiplies the integer tuples (a product of
primitive polynomials is primitive), and a sum clears two denominators.
Root finding reads the stored integers directly.  ``coeffs`` gives the
rational coefficients.  Every operation is exact, and no operation takes a
float: a float argument raises TypeError.

Each polynomial carries an advisory variable tag (``"q"`` for the spatial
coordinate, ``"eps"`` for the energy).  Binary operations insist that the tags
agree, which catches the easy mistake of combining a spatial series with an
energy polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Sequence, Union

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


#: Sets a field of a :class:`Record` in its ``__init__``, past the refusal.
_set = object.__setattr__


class Record:
    """Immutable value object whose fields are the names in its ``__slots__``.

    A subclass lists its fields in ``__slots__`` and sets each exactly once in
    its ``__init__`` through ``_set``.  Records compare and hash by their
    fields, in slot order, and only with records of their own class; they
    repr as ``Name(field=value, ...)`` and rebuild from their fields when
    copied or pickled.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class RationalPoly(Record):
    """Dense univariate polynomial with exact rational coefficients.

    The fields hold the canonical form ``scale * sum(ints[k] x**k)``; build a
    polynomial through :meth:`from_coeffs` or the other constructors, which
    bring it to that form.
    """

    __slots__ = ("ints", "scale", "var")

    def __init__(self, ints: tuple[int, ...] = (), scale: Fraction = Fraction(1), var: str = "q") -> None:
        _set(self, "ints", ints)
        _set(self, "scale", scale)
        _set(self, "var", var)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _canonical(cls, ints: list[int], scale: Fraction, var: str) -> "RationalPoly":
        """scale * ints in canonical form, for any int list and a nonzero scale."""
        while ints and ints[-1] == 0:
            ints.pop()
        if not ints:
            return cls.zero(var)
        g = gcd(*ints)
        if scale < 0:
            g = -g
        return cls(tuple(c // g for c in ints), scale * g, var)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[ScalarLike], var: str = "q") -> "RationalPoly":
        fracs = [as_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        ints = [c.numerator * (den // c.denominator) for c in fracs]
        return cls._canonical(ints, Fraction(1, den), var)

    @classmethod
    def zero(cls, var: str = "q") -> "RationalPoly":
        return cls((), Fraction(1), var)

    @classmethod
    def constant(cls, c: ScalarLike, var: str = "q") -> "RationalPoly":
        return cls.from_coeffs([c], var)

    # ------------------------------------------------------------------
    # structure

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients, ascending powers, no trailing zeros."""
        return tuple(self.scale * c for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree with the convention deg 0 = -1."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the stored degree)."""
        if 0 <= k < len(self.ints):
            return self.scale * self.ints[k]
        return Fraction(0)

    def _check_var(self, other: "RationalPoly") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}"
            )

    def with_var(self, var: str) -> "RationalPoly":
        return RationalPoly(self.ints, self.scale, var)

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            self._check_var(other)
            return other
        return RationalPoly.constant(other, self.var)

    def __add__(self, other) -> "RationalPoly":
        o = self._coerce(other)
        if not o.ints:
            return self
        if not self.ints:
            return o
        x, y, scale = _common_scale(self.scale, o.scale)
        ints = [x * u + y * w for u, w in zip_longest(self.ints, o.ints, fillvalue=0)]
        return RationalPoly._canonical(ints, scale, self.var)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.ints), self.scale, self.var)

    def __sub__(self, other) -> "RationalPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            c = as_rational(other)
            if not c or not self.ints:
                return RationalPoly.zero(self.var)
            ints = self.ints if c > 0 else tuple(-v for v in self.ints)
            return RationalPoly(ints, self.scale * abs(c), self.var)
        self._check_var(other)
        if not self.ints or not other.ints:
            return RationalPoly.zero(self.var)
        # Gauss's lemma: a product of primitive polynomials is primitive
        ints = tuple(_int_mul(self.ints, other.ints))
        return RationalPoly(ints, self.scale * other.scale, self.var)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # calculus

    def differentiate(self) -> "RationalPoly":
        """Exact derivative."""
        return RationalPoly._canonical(
            [k * c for k, c in enumerate(self.ints)][1:], self.scale, self.var
        )

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, x):
        """Evaluate at x: the exact Fraction value at an int or Fraction."""
        if isinstance(x, (int, Fraction)):
            if not self.ints:
                return Fraction(0)
            d = x.denominator
            value = self.scale.numerator * _horner(self.ints, x.numerator, d)
            return Fraction(value, self.scale.denominator * d**self.degree)
        raise TypeError(f"cannot evaluate at {x!r}: pass an int or Fraction")

    def __call__(self, x):
        return self.eval(x)

    # ------------------------------------------------------------------
    # composition

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


def _common_scale(a: Fraction, b: Fraction) -> tuple[int, int, Fraction]:
    """(x, y, s): integers x = a / s and y = b / s over s = gcd of numerators / lcm of denominators."""
    g, l = gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator)
    return a.numerator // g * (l // a.denominator), b.numerator // g * (l // b.denominator), Fraction(g, l)


# ----------------------------------------------------------------------
# integer coefficient lists
#
# Plain lists (or tuples) of ints, ascending powers with no trailing zeros,
# as RationalPoly stores them: the ring operations above, the A2/A3 quotient
# and root finding run on these kernels, so that no coefficient operation
# pays the gcd a Fraction takes.


def _horner(a: Sequence[int], n: int, d: int) -> int:
    """d^deg a(n/d) = sum a_i n^i d^(deg-i) by integer Horner steps, for d > 0.

    Its sign is the sign of a at n/d.
    """
    acc = 0
    power = 1
    for c in reversed(a):
        acc = acc * n + c * power
        power *= d
    return acc


def _horner_dyadic(a: Sequence[int], m: int, k: int) -> int:
    """2^(k deg) a(m/2^k), equal to ``_horner(a, m, 1 << k)``, by shift-Horner steps.

    At a dyadic point the powers of the denominator are shifts, so no step
    multiplies by a power of two.
    """
    acc = 0
    shift = 0
    for c in reversed(a):
        acc = acc * m + (c << shift)
        shift += k
    return acc


def _ratio_at(num: RationalPoly, den: RationalPoly, x: Fraction) -> tuple[int, int]:
    """(t, u) with t / u = num(x) / den(x), for a rational x at which den is nonzero.

    u has the sign of den(x).  One integer Horner pass over each polynomial
    (shift-Horner at a dyadic x), times the scales and a power of the
    denominator of x.
    """
    (a, b), (c, e) = num.scale.as_integer_ratio(), den.scale.as_integer_ratio()
    n, d = x.numerator, x.denominator
    k = d.bit_length() - 1
    if d == 1 << k:
        top, bottom = _horner_dyadic(num.ints, n, k), _horner_dyadic(den.ints, n, k)
    else:
        top, bottom = _horner(num.ints, n, d), _horner(den.ints, n, d)
    gap = len(den.ints) - len(num.ints)
    return a * e * top * d ** max(gap, 0), b * c * bottom * d ** max(-gap, 0)


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    _int_addmul(out, a, b)
    return out


def _int_addmul(out: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """out += a b, for an ``out`` long enough to hold the product."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y


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
