"""Checks on the output of one benchmark command.

A command fails when it raises, exits with another status than expected,
or prints a cell that fails its check:

* ``table``: every golden cell must match under ``goldens.cell_matches``
  and the report must say so;
* ``W(A2)`` and ``eps(RR)`` are upper bounds: each must be at least the
  reference eigenvalue of its state, to within one unit of its last printed
  digit, and more than that unit below the next state's eigenvalue (a
  state-label check);
* ``eps(A1)`` and ``eps(A3)`` must lie within their :data:`SERIES_TOL` of
  the reference eigenvalue once N >= :data:`SERIES_MIN_N`;
* ``exact`` must agree with the shooting root (bracket starting at min v)
  to :data:`EXACT_TOL`.

A failure of a command marked with a known defect counts as that defect
only when :func:`shows_known_defect` recognises it.

Reference eigenvalues are frozen in ``reference.json`` (see
``derive_reference.py``), so no check computes anything expensive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from boxeig import goldens

from workloads import Command

EXACT_TOL = Fraction(1, 10**8)
SERIES_MIN_N = 14
#: Over every command of the series-sweep workload and every seeded
#: coupling, the largest deviations at N >= 14 are |A1 - eps| = 1.6e-3
#: (lambda = -8, N = 14) and |A3 - eps| = 7.1e-10 (lambda = -8, N = 15);
#: each tolerance leaves a margin above five.
SERIES_TOL = {"eps(A1)": Fraction(1, 10**2), "eps(A3)": Fraction(1, 10**8)}

NO_ROOT = goldens.NO_ROOT
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Eigenvalue:
    value: Fraction
    err: Fraction
    shoot: float


class Reference:
    """Frozen eigenvalues by (coupling, state)."""

    def __init__(self, path: Path = REFERENCE_FILE) -> None:
        data = json.loads(path.read_text())["eigenvalues"]
        self._table = {
            (Fraction(lam), int(state)): Eigenvalue(
                Fraction(entry["value"]), Fraction(entry["err"]), float(entry["shoot"])
            )
            for lam, states in data.items()
            for state, entry in states.items()
        }

    def __call__(self, lam, state: int) -> Eigenvalue:
        return self._table[(Fraction(lam), state)]


def _golden_no_roots() -> set[tuple[str, Fraction, int]]:
    """(column, coupling, N) whose ground-state search has no root."""
    out = set()
    for table in goldens.TABLES.values():
        for i, n in enumerate(table.n_values):
            for j, column in enumerate(table.columns):
                if table.cells[i][j] == NO_ROOT:
                    name = "W(A2)" if column.quantity == "w" else f"eps({column.method})"
                    out.add((name, column.lam, n))
    return out


_NO_ROOTS = _golden_no_roots()

_METHOD_COLUMNS = {
    "a1": ["eps(A1)"],
    "a2": ["eps(A2)", "W(A2)"],
    "a3": ["eps(A3)"],
    "rr": ["eps(RR)"],
    "exact": ["eps(exact)"],
}


def expects_no_root(column: str, lam, state: int, n: int) -> bool:
    return state == 0 and (column, Fraction(lam), n) in _NO_ROOTS


def last_digit_unit(text: str) -> Fraction:
    """One unit in the last printed digit of a decimal string."""
    _, _, decimals = text.partition(".")
    return Fraction(1, 10 ** len(decimals))


def check_cell(column: str, text: str | None, lam, state: int, n: int, ref: Reference) -> str | None:
    """Why a printed ``solve`` cell is wrong, or None when it passes."""
    if text in (None, NO_ROOT):
        if expects_no_root(column, lam, state, n):
            return None
        return f"N={n} {column}: no root printed"
    value = Fraction(text)
    if column in ("W(A2)", "eps(RR)"):
        unit = last_digit_unit(text)
        eig = ref(lam, state)
        if value < eig.value - eig.err - unit:
            return f"N={n} {column}={text} is below eps_{state}={float(eig.value):.12g}"
        above = ref(lam, state + 1)
        if value >= above.value - above.err - unit:
            return f"N={n} {column}={text} is not below eps_{state + 1}={float(above.value):.12g}"
    elif column in SERIES_TOL and n >= SERIES_MIN_N:
        eig = ref(lam, state)
        if abs(value - eig.value) > SERIES_TOL[column] + eig.err:
            return f"N={n} {column}={text} is not within {float(SERIES_TOL[column]):g} of eps_{state}"
    return None


def _markdown(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """(headers, rows, trailing lines) of a rendered markdown table."""
    lines = text.strip().splitlines()
    table = [line for line in lines if line.startswith("|")]
    rest = [line for line in lines if not line.startswith("|")]
    cells = [[c.strip() for c in line.strip().strip("|").split("|")] for line in table]
    if len(cells) < 2:
        return [], [], rest
    return cells[0], cells[2:], rest


def _check_solve(cmd: Command, rc: int, out: str, ref: Reference) -> list[str]:
    columns = [col for m in cmd.methods.split(",") for col in _METHOD_COLUMNS[m]]
    n_values = cmd.n_values
    if cmd.fmt == "json":
        payload = json.loads(out)
        headers = payload["columns"]
        rows = [[str(row["N"]), *(row[c] for c in headers[1:])] for row in payload["rows"]]
    else:
        headers, rows, _ = _markdown(out)
    if headers != ["N", *columns]:
        return [f"columns {headers} != {['N', *columns]}"]
    if [int(row[0]) for row in rows] != n_values:
        return [f"rows for N={[row[0] for row in rows]}, expected {n_values}"]
    failures = []
    for row in rows:
        n = int(row[0])
        for column, text in zip(columns, row[1:]):
            reason = check_cell(column, text, cmd.lam, cmd.state, n, ref)
            if reason:
                failures.append(reason)
    no_root = any(expects_no_root(c, cmd.lam, cmd.state, n) for c in columns for n in n_values)
    expected_rc = 2 if no_root else 0
    if rc != expected_rc:
        failures.append(f"exit status {rc}, expected {expected_rc}")
    return failures


def _check_table(cmd: Command, rc: int, out: str) -> list[str]:
    table = goldens.TABLES[cmd.table]
    headers, rows, rest = _markdown(out)
    if headers != ["N", "column", "golden", "computed", "status"]:
        return [f"unexpected table header {headers}"]
    expected = [
        (str(n), column.label, table.cells[i][j])
        for i, n in enumerate(table.n_values)
        for j, column in enumerate(table.columns)
    ]
    if [tuple(row[:3]) for row in rows] != expected:
        return ["table rows do not list the golden cells in order"]
    failures = []
    for n, label, golden, computed, status in rows:
        value = None if computed == NO_ROOT else Fraction(computed)
        if not goldens.cell_matches(golden, value) or status != "ok":
            failures.append(f"table {cmd.table} N={n} {label}: {computed} vs golden {golden} ({status})")
    total = len(expected)
    if rest != [f"table {cmd.table}: {total}/{total} cells match"]:
        failures.append(f"summary {rest}")
    if rc != 0:
        failures.append(f"exit status {rc}, expected 0")
    return failures


def _check_exact(cmd: Command, rc: int, out: str, ref: Reference) -> list[str]:
    text = out.strip()
    shoot = ref(cmd.lam, cmd.state).shoot
    failures = []
    if abs(Fraction(text) - Fraction(shoot)) > EXACT_TOL:
        failures.append(f"exact {text} differs from the shooting root {shoot!r} by more than 1e-8")
    if rc != 0:
        failures.append(f"exit status {rc}, expected 0")
    return failures


def check(cmd: Command, rc: int, out: str, ref: Reference) -> list[str]:
    """Every reason the command's output is wrong; empty when it passes."""
    try:
        if cmd.verb == "table":
            return _check_table(cmd, rc, out)
        if cmd.verb == "exact":
            return _check_exact(cmd, rc, out, ref)
        return _check_solve(cmd, rc, out, ref)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unparseable output ({type(exc).__name__}: {exc}): {out[:200]!r}"]


def shows_known_defect(cmd: Command, rc: int, out: str, ref: Reference) -> bool:
    """Whether a failed command's output is exactly its known defect.

    The one known defect is the lambda = -30 ground state (ROADMAP item 4):
    the command exits 0 and prints the first excited state, so its output
    passes every check of the same command asked for ``--state 1``.  Any
    other failure of such a command (a raise, another exit status,
    unparseable output or another value) is a new defect.
    """
    if cmd.known_defect is None or cmd.state != 0 or rc != 0:
        return False
    return check(replace(cmd, state=1), rc, out, ref) == []
