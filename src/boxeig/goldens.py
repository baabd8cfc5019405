"""Frozen golden reference tables for the regression suite and the CLI.

Each table stores the reference digit strings verbatim; nothing here is ever
recomputed or reformatted at build time.  A computed value matches a golden
cell when the two differ by at most one unit in the cell's last printed digit,
which absorbs the mixed truncation/rounding in the reference data.  Cells
holding :data:`NO_ROOT` assert that the corresponding search finds no real
root in its bracket.

All comparisons are exact: a cell's digits and the computed value, rounded
to the cell's last printed digit, are compared as integer counts of that
digit's unit.
"""

from __future__ import annotations

from fractions import Fraction

from .estimates import METHOD_A1, METHOD_A2, METHOD_A3, METHOD_RR, NO_ROOT
from .poly import Rational, Record, _set, as_rational

#: Ground-state benchmark values at 20 significant digits: the free box
#: (exactly pi**2) and the unit linear ramp.  The oracle module reproduces
#: both; the regression suite pins them.
BENCHMARK_EPS_FREE = "9.8696044010893586191"
BENCHMARK_EPS_RAMP = "10.368507161836337127"


class GoldenColumn(Record):
    """One column of a golden table: a method applied at a fixed coupling.

    ``quantity`` selects which number the column reports: ``"eps"`` for the
    eigenvalue estimate itself, ``"w"`` for the Rayleigh-quotient value at a
    stationary point (only meaningful for the stationary-quotient method).
    """

    __slots__ = ("label", "method", "lam", "quantity")

    def __init__(self, label: str, method: str, lam: Rational, quantity: str = "eps") -> None:
        if quantity not in ("eps", "w"):
            raise ValueError(f"unknown column quantity {quantity!r}")
        if quantity == "w" and method != METHOD_A2:
            raise ValueError("w columns only apply to the stationary-quotient method")
        _set(self, "label", label)
        _set(self, "method", method)
        _set(self, "lam", lam)
        _set(self, "quantity", quantity)

    @property
    def key(self) -> str:
        """The ``solve`` output column this golden column reads."""
        return "W(A2)" if self.quantity == "w" else f"eps({self.method})"


class GoldenTable(Record):
    """A frozen reference table: row-per-N cells of verbatim digit strings."""

    __slots__ = ("table_id", "title", "n_values", "columns", "cells")

    def __init__(
        self,
        table_id: int,
        title: str,
        n_values: tuple[int, ...],
        columns: tuple[GoldenColumn, ...],
        cells: tuple[tuple[str, ...], ...],
    ) -> None:
        if len(cells) != len(n_values):
            raise ValueError("one cell row required per N value")
        for row in cells:
            if len(row) != len(columns):
                raise ValueError("cell row width must match column count")
        _set(self, "table_id", table_id)
        _set(self, "title", title)
        _set(self, "n_values", n_values)
        _set(self, "columns", columns)
        _set(self, "cells", cells)


def cell_matches(golden: str, computed: Rational | None) -> bool:
    """Digit-string match: the computed value, rendered at the golden cell's
    precision (round-half-even), may differ from the cell by at most one unit
    in the final printed digit.

    Comparing rendered representations rather than raw magnitudes is what "one
    unit in the last printed digit" means for tabulated digit strings: the
    reference data mixes truncation and rounding at the last place, so a cell
    can sit a full unit below the true value, and the computed side must first
    be put on the same decimal grid before the off-by-one allowance applies.
    Both sides are compared as integer counts of that unit: the cell's digits,
    and the count :func:`cell_digits` renders.
    """
    if golden == NO_ROOT or computed is None:
        return golden == NO_ROOT and computed is None
    whole, _, decimals = golden.partition(".")
    return abs(_units(computed, len(decimals)) - int(whole + decimals)) <= 1


def cell_digits(golden: str, computed: Rational) -> str:
    """The computed value at the golden cell's last digit: the count :func:`cell_matches` compares."""
    decimals = len(golden.partition(".")[2])
    q = _units(computed, decimals)
    sign, digits = "-" * (q < 0), str(abs(q)).rjust(decimals + 1, "0")
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}" if decimals else sign + digits


def _units(computed: Rational, decimals: int) -> int:
    """computed rounded half-even to a count of 10^-decimals, by one ``divmod``."""
    value = as_rational(computed)
    q, r = divmod(value.numerator * 10**decimals, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q & 1):
        q += 1
    return q


_LAM0 = Fraction(0)
_LAM1 = Fraction(1)


def _columns_full(lam: Rational) -> tuple[GoldenColumn, ...]:
    return (
        GoldenColumn("eps(A1)", METHOD_A1, lam),
        GoldenColumn("eps(A2)", METHOD_A2, lam),
        GoldenColumn("W(A2)", METHOD_A2, lam, quantity="w"),
        GoldenColumn("eps(A3)", METHOD_A3, lam),
    )


TABLE_1 = GoldenTable(
    table_id=1,
    title="Ground state, free box (lambda = 0), series methods",
    n_values=(4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
    columns=_columns_full(_LAM0),
    cells=(
        ("6", "12.08941897", "9.870757651", "9.9717028"),
        (NO_ROOT, "9.101852828", "9.875388202", "9.949871274"),
        (NO_ROOT, "9.558639637", "9.870985812", "9.881622575"),
        ("9.478038438", "9.960092497", "9.86992353", "9.870713549"),
        ("9.478038438", "9.905617739", "9.869662206", "9.869825364"),
        ("9.914249166", "9.863621098", "9.869607064", "9.869612707"),
        ("9.914249166", "9.867032812", "9.869604943", "9.869606146"),
        ("9.866812676", "9.869907624", "9.869604411", "9.86960443"),
        ("9.866812676", "9.869739577", "9.869604403", "9.869604407"),
        ("9.869737257", "9.869592550", "9.869604401", "9.869604401"),
    ),
)

TABLE_2 = GoldenTable(
    table_id=2,
    title="Ground state, unit linear ramp (lambda = 1), series methods",
    n_values=(4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
    columns=_columns_full(_LAM1),
    cells=(
        ("6.5", "12.26637996", "10.36907124", "10.44756346"),
        (NO_ROOT, "9.434668415", "10.37615238", "10.50115579"),
        (NO_ROOT, "10.11267971", "10.36932531", "10.37634015"),
        ("9.568181651", "10.51534961", "10.36928674", "10.37131465"),
        ("10", "10.39424448", "10.36853346", "10.36861906"),
        ("10.53613098", "10.3551899", "10.36851922", "10.36854793"),
        ("10.40454178", "10.36714011", "10.36850729", "10.36850764"),
        ("10.35308651", "10.36945371", "10.36850725", "10.36850744"),
        ("10.36699657", "10.36853572", "10.36850716", "10.36850716"),
        ("10.36959361", "10.36845690", "10.36850716", "10.36850716"),
    ),
)

TABLE_3 = GoldenTable(
    table_id=3,
    title="Boundary-root estimates at larger truncation orders",
    n_values=(15, 16, 17, 18, 19, 20, 21),
    columns=(
        GoldenColumn("eps(A1, lam=0)", METHOD_A1, _LAM0),
        GoldenColumn("eps(A1, lam=1)", METHOD_A1, _LAM1),
    ),
    cells=(
        ("9.869599545", "10.36845326"),
        ("9.869599545", "10.36851066"),
        ("9.869604541", "10.36850904"),
        ("9.869604541", "10.36850690"),
        ("9.869604397", "10.36850711"),
        ("9.869604397", "10.36850717"),
        ("9.869604401", "10.36850716"),
    ),
)

TABLE_4 = GoldenTable(
    table_id=4,
    title="Rayleigh-Ritz ground-state estimates",
    n_values=(4, 6, 8),
    columns=(
        GoldenColumn("eps(RR, lam=0)", METHOD_RR, _LAM0),
        GoldenColumn("eps(RR, lam=1)", METHOD_RR, _LAM1),
    ),
    cells=(
        ("9.869749621", "10.36873394"),
        ("9.869604434", "10.36850740"),
        ("9.869604401", "10.36850716"),
    ),
)

TABLES: dict[int, GoldenTable] = {
    1: TABLE_1,
    2: TABLE_2,
    3: TABLE_3,
    4: TABLE_4,
}
