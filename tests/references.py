"""Independent references the tests check the package against.

No command runs any of these.  The Sturm counter checks root isolation (and
acceptance criterion 8's "Sturm vs grid scan"); the Fraction division,
primitive part and integral over [0, 1] check the integer kernels and the
closed-form pencils; ``trial_terms`` and ``specialize`` give the trial
function of a series, and the series or the trial function at one eps as a
polynomial in q.
"""

from fractions import Fraction

from boxeig.poly import RationalPoly, _int_divexact, as_rational
from boxeig.rootfind import _sign_at, sturm_sequence

# ---------------------------------------------------------------------------
# Sturm counting


def _counting_chain(p: RationalPoly) -> list[list[int]]:
    """Sturm chain of p divided through by its last member, gcd(p, p').

    Every member of p's own chain vanishes at a multiple root of p, so sign
    variations there would count nothing; the divided chain is the chain of
    the square-free part and counts distinct roots at every point.
    """
    chain = sturm_sequence(p)
    g = chain[-1]
    if len(g) < 2:
        return chain
    return [_int_divexact(q, g) for q in chain]


def sign_variations(chain, x: Fraction) -> int:
    """Number of sign changes in the integer chain evaluated at x (zeros skipped)."""
    signs = [s for s in (_sign_at(a, x) for a in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: RationalPoly, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    lo, hi = as_rational(lo), as_rational(hi)
    if lo >= hi:
        raise ValueError("empty interval")
    chain = _counting_chain(p)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


# ---------------------------------------------------------------------------
# polynomials in Fraction arithmetic


def poly_divmod(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Exact polynomial division: a = q*b + r with deg r < deg b.

    A plain Fraction loop, apart from the integer kernels of ``poly``, so
    that the tests can check those against it.
    """
    if a.var != b.var:
        raise ValueError(f"variable mismatch: {a.var!r} vs {b.var!r}")
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dq = a.degree - b.degree
    if dq < 0:
        return RationalPoly.zero(a.var), a
    rem = list(a.coeffs)
    divisor = b.coeffs
    quo = [Fraction(0)] * (dq + 1)
    d = b.degree
    lead = divisor[-1]
    for k in range(dq, -1, -1):
        c = rem[d + k] / lead
        quo[k] = c
        if c:
            for j, y in enumerate(divisor):
                rem[j + k] -= c * y
    return RationalPoly.from_coeffs(quo, a.var), RationalPoly.from_coeffs(rem[:d], a.var)


def primitive_part(p: RationalPoly) -> RationalPoly:
    """p divided by its positive scale: coprime integer coefficients, the sign of p kept."""
    return RationalPoly(p.ints, Fraction(1), p.var)


def integrate_01(p: RationalPoly) -> Fraction:
    """Exact integral over [0, 1]: sum of coeffs[k] / (k+1)."""
    return p.scale * sum((Fraction(c, k + 1) for k, c in enumerate(p.ints)), Fraction(0))


# ---------------------------------------------------------------------------
# the series and its trial function at one energy


def trial_terms(series) -> tuple[tuple[int, RationalPoly], ...]:
    """Terms (j, c_j), j = 1..n-1 and c_j nonzero, of the trial function sum c_j (q^j - q^n)."""
    return tuple((j, series.c[j]) for j in range(1, series.n) if not series.c[j].is_zero)


def specialize(series, eps, trial: bool = False) -> RationalPoly:
    """The series sum c_j(eps) q^j at a rational eps, exactly, as a polynomial in q.

    With ``trial``, the trial function sum_{j<n} c_j(eps) (q^j - q^n) instead.
    """
    eps = as_rational(eps)
    if not trial:
        return RationalPoly.from_coeffs([cj.eval(eps) for cj in series.c], "q")
    coeffs = [Fraction(0)] * (series.n + 1)
    for j, cj in trial_terms(series):
        value = cj.eval(eps)
        coeffs[j] += value
        coeffs[series.n] -= value
    return RationalPoly.from_coeffs(coeffs, "q")
