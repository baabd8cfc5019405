"""Command-line interface: solve problems, sweep N, check golden tables.

Commands
--------
``solve``
    One row per truncation order N with a column per requested method;
    missing roots render as ``--``.
``table``
    Recompute one of the stored golden reference tables and report a
    per-cell pass/fail at one unit in each cell's last printed digit.
``exact``
    Print a benchmark eigenvalue from the high-precision oracle.
``convert``
    Nondimensionalize a problem file and print the scaled image.

Exit status: 0 all requested values produced; 1 usage or runtime error;
2 some cells had no root in the bracket (rendered ``--``); 3 golden-table
mismatch.

Numbers are computed to an absolute enclosure half-width of
10^-max(26, digits+3) and rounded (half-even) only at render time; CSV and
markdown renderings of one run contain identical numeric strings.
"""

from __future__ import annotations

import argparse
import io
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from .estimates import (
    METHOD_A1,
    METHOD_A2,
    METHOD_A3,
    METHOD_EXACT,
    METHOD_RR,
    DEFAULT_SELECTION,
    NO_ROOT,
    RootSelection,
    resolve_bracket,
)
from .model import (
    KIND_LINEAR,
    KIND_ZERO,
    PotentialSpec,
    load_problem,
    nondimensionalize,
    require_unit_interval,
)
from .oracle import (
    DEFAULT_DIGITS as ORACLE_DIGITS,
    RootScanError,
    exact_box,
    exact_linear,
    mpf_to_rational,
)
from .poly import Rational, Record, _set, format_rational
from .rayleigh_ritz import SecularSystem, build_secular_systems, solve_secular
from .series import TRIAL_MIN_ORDER, EnergySeries, build_series, solve_a1
from .variational import RayleighQuotient, build_quotients, solve_a2, solve_a3

if TYPE_CHECKING:
    from .goldens import GoldenTable

N_MIN, N_MAX = 3, 64
DIGITS_MIN, DIGITS_MAX = 6, 40
DEFAULT_DIGITS = 10
WORKING_DIGITS = 25

METHOD_ORDER = (METHOD_A1, METHOD_A2, METHOD_A3, METHOD_RR, METHOD_EXACT)
#: The output columns each method fills, in order; A2 reports W after eps.
METHOD_COLUMNS = {
    METHOD_A1: ("eps(A1)",),
    METHOD_A2: ("eps(A2)", "W(A2)"),
    METHOD_A3: ("eps(A3)",),
    METHOD_RR: ("eps(RR)",),
    METHOD_EXACT: ("eps(exact)",),
}
FORMATS = ("md", "csv", "json")


class UsageError(Exception):
    """Invalid flag value or combination; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1, not 2."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class RunConfig(Record):
    """Fully parsed configuration of one ``solve`` run; it resolves the bracket once."""

    __slots__ = ("methods", "potential", "n_values", "state", "bracket", "digits", "format", "selection")

    def __init__(
        self,
        methods: tuple[str, ...],
        potential: PotentialSpec,
        n_values: tuple[int, ...],
        state: int = 0,
        bracket: tuple[Rational, Rational] | None = None,
        digits: int = DEFAULT_DIGITS,
        format: str = "md",
        selection: RootSelection = DEFAULT_SELECTION,
    ) -> None:
        for n in n_values:
            if not N_MIN <= n <= N_MAX:
                raise UsageError(f"--n {n} outside [{N_MIN}, {N_MAX}]")
        _check_state_digits(state, digits)
        trial = [m for m in (METHOD_A2, METHOD_A3) if m in methods]
        if trial and min(n_values) < TRIAL_MIN_ORDER:
            raise UsageError(
                f"--n {min(n_values)} is below {TRIAL_MIN_ORDER},"
                f" the lowest order for {' and '.join(trial)}"
            )
        # root finding is exact at any size; the check keeps solve to the
        # brackets that the float-bracket cross-checks can take as well (the
        # oracle, whose --lambda has the same limit, and shoot_root)
        lo, hi = resolve_bracket(bracket, potential, state)
        if max(-lo, hi) > sys.float_info.max:
            raise UsageError(
                "the search bracket has an end beyond the float range;"
                " give a smaller --lambda or --bracket"
            )
        _set(self, "methods", methods)
        _set(self, "potential", potential)
        _set(self, "n_values", n_values)
        _set(self, "state", state)
        _set(self, "bracket", (lo, hi))
        _set(self, "digits", digits)
        _set(self, "format", format)
        _set(self, "selection", selection)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _check_state_digits(state: int, digits: int) -> None:
    """Refuse a negative --state or a --digits outside [DIGITS_MIN, DIGITS_MAX]."""
    if state < 0:
        raise UsageError(f"--state must be nonnegative, got {state}")
    if not DIGITS_MIN <= digits <= DIGITS_MAX:
        raise UsageError(f"--digits {digits} outside [{DIGITS_MIN}, {DIGITS_MAX}]")


def parse_rational_flag(text: str, flag: str) -> Rational:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} expects a rational number, got {text!r}: {exc}") from None


def parse_n_values(text: str) -> tuple[int, ...]:
    """Parse an N specification: ``7``, ``4..13``, or ``4,6,8``."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise UsageError(f"--n range {text!r} is empty")
            # RunConfig refuses the first value outside [N_MIN, N_MAX]: stop
            # the range there, so that a huge one is never built
            hi = min(hi, N_MAX + 1) if N_MIN <= lo <= N_MAX else lo
            values = tuple(range(lo, hi + 1))
        else:
            values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--n expects an integer, a..b, or a comma list, got {text!r}") from None
    return values


def parse_bracket_flag(text: str) -> tuple[Rational, Rational]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--bracket expects lo,hi, got {text!r}")
    lo = parse_rational_flag(parts[0], "--bracket")
    hi = parse_rational_flag(parts[1], "--bracket")
    if not lo < hi:
        raise UsageError(f"--bracket needs lo < hi, got {text!r}")
    return lo, hi


def parse_select_flag(text: str) -> RootSelection:
    try:
        return RootSelection.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(
            f"--select expects default|smallest|nearest:<x>|min-w, got {text!r}: {exc}"
        ) from None


def parse_methods_flag(text: str) -> tuple[str, ...]:
    requested = {part.strip().upper() for part in text.split(",") if part.strip()}
    if not requested:
        raise UsageError("--methods is empty")
    unknown = requested - set(METHOD_ORDER)
    if unknown:
        choices = ", ".join(m.lower() for m in METHOD_ORDER)
        raise UsageError(
            f"unknown methods: {', '.join(sorted(unknown)).lower()} (choose from {choices})"
        )
    return tuple(m for m in METHOD_ORDER if m in requested)


def resolve_potential(args: argparse.Namespace) -> PotentialSpec:
    if getattr(args, "potential", None):
        problem = load_problem(args.potential)
        return require_unit_interval(nondimensionalize(problem))
    lam = parse_rational_flag(args.lam, "--lambda")
    return PotentialSpec.linear(lam)


# ---------------------------------------------------------------------------
# rendering


def format_significant(value: Rational, digits: int) -> str:
    """Render an exact rational at ``digits`` significant digits, half-even."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient, "f")


def render_markdown(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def render_csv(headers: list[str], rows: list[list[str]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def render_table(fmt: str, headers: list[str], rows: list[list[str]], meta: dict) -> str:
    if fmt == "md":
        return render_markdown(headers, rows)
    if fmt == "csv":
        return render_csv(headers, rows)
    import json

    payload = dict(meta)
    payload["columns"] = headers

    def json_cell(header: str, cell: str):
        if cell == NO_ROOT:
            return None
        if header == "N":
            return int(cell)
        return cell

    payload["rows"] = [
        {header: json_cell(header, cell) for header, cell in zip(headers, row)}
        for row in rows
    ]
    return json.dumps(payload, indent=2)


def emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        print(text)


# ---------------------------------------------------------------------------
# solve


def method_columns(methods: tuple[str, ...]) -> list[str]:
    return [column for method in methods for column in METHOD_COLUMNS[method]]


def _exact_eigenvalue(potential: PotentialSpec, state: int, digits: int) -> Rational:
    working = max(ORACLE_DIGITS, digits + 5)
    if potential.kind == KIND_ZERO:
        value = exact_box(state, digits=working)
    elif potential.kind == KIND_LINEAR:
        value = exact_linear(potential.lam, state, digits=working)
    else:
        raise UsageError("the exact benchmark only covers flat and linear potentials")
    return mpf_to_rational(value)


def compute_cells(
    cfg: RunConfig, n: int, series: EnergySeries | None, quotient: RayleighQuotient | None,
    system: SecularSystem | None, exact: Rational | None,
) -> dict[str, Rational | None]:
    """All requested numbers for one truncation order N.

    Each solver gets the object of order N it solves (None when no method
    needs it); ``exact`` is the oracle's value, which does not depend on N.
    """
    tol = Fraction(1, 10 ** max(WORKING_DIGITS + 1, cfg.digits + 3))
    options = (cfg.bracket, cfg.state, cfg.selection, tol)
    cells: dict[str, Rational | None] = {}
    for method in cfg.methods:
        if method == METHOD_EXACT:
            cells[METHOD_COLUMNS[method][0]] = exact
            continue
        if method == METHOD_A1:
            est = solve_a1(series, *options)
        elif method == METHOD_RR:
            est = solve_secular(system, *options)
        else:
            est = (solve_a2 if method == METHOD_A2 else solve_a3)(quotient, *options)
        cells.update(zip(METHOD_COLUMNS[method], (None, None) if est is None else (est.eps, est.w)))
    return cells


def compute_rows(cfg: RunConfig) -> list[dict[str, Rational | None]]:
    """One cell mapping per N, in order.

    Each object a row solves is built once per command, at the largest N: one
    run of the recurrence, whose prefix c_0..c_n and running sum B_n serve row
    n; one pass that grows the forms as F_{n+1} = F_n + P_n (2 G_n + w_nn P_n)
    and closes row n's as F_n + B_{n-1} (w_nn B_{n-1} - 2 G_n) (see
    :mod:`boxeig.variational`); one RR pencil; one oracle run.  Rows run one
    after another: exact pure-Python arithmetic gains nothing from threads.
    """
    methods, orders = set(cfg.methods), cfg.n_values
    exact = _exact_eigenvalue(cfg.potential, cfg.state, cfg.digits) if METHOD_EXACT in methods else None
    series = build_series(cfg.potential, max(orders)) if methods - {METHOD_RR, METHOD_EXACT} else None
    quotients = build_quotients(series, orders) if {METHOD_A2, METHOD_A3} & methods else {}
    systems = build_secular_systems(cfg.potential, orders) if METHOD_RR in methods else {}
    return [compute_cells(cfg, n, series and series.prefix(n), quotients.get(n), systems.get(n), exact)
            for n in orders]


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        methods=parse_methods_flag(args.methods),
        potential=resolve_potential(args),
        n_values=parse_n_values(args.n),
        state=args.state,
        bracket=parse_bracket_flag(args.bracket) if args.bracket else None,
        digits=args.digits,
        format=args.format,
        selection=parse_select_flag(args.select),
    )
    columns = method_columns(cfg.methods)
    headers = ["N", *columns]
    values = [[cells[column] for column in columns] for cells in compute_rows(cfg)]
    rows = [
        [str(n), *(NO_ROOT if x is None else format_significant(x, cfg.digits) for x in row)]
        for n, row in zip(cfg.n_values, values)
    ]
    missing = any(None in row for row in values)
    meta = {
        "command": "solve",
        "potential": cfg.potential.describe(),
        "state": cfg.state,
        "digits": cfg.digits,
    }
    emit(render_table(cfg.format, headers, rows, meta), args.out)
    return 2 if missing else 0


# ---------------------------------------------------------------------------
# table


def table_values(table: GoldenTable) -> list[list[Rational | None]]:
    """Every cell of a golden table, row per N, from one ``compute_rows`` per coupling."""
    rows = {}
    for lam in dict.fromkeys(column.lam for column in table.columns):
        methods = {column.method for column in table.columns if column.lam == lam}
        ordered = tuple(m for m in METHOD_ORDER if m in methods)
        rows[lam] = compute_rows(RunConfig(ordered, PotentialSpec.linear(lam), table.n_values))
    return [[rows[c.lam][i][c.key] for c in table.columns] for i in range(len(table.n_values))]


def cmd_table(args: argparse.Namespace) -> int:
    from . import goldens

    table = goldens.TABLES.get(args.id)
    if table is None:
        raise UsageError(f"no golden table {args.id}; choose from 1..4")

    computed = table_values(table)

    headers = ["N", "column", "golden", "computed", "status"]
    rows = []
    failures = 0
    for i, n in enumerate(table.n_values):
        for j, column in enumerate(table.columns):
            golden = table.cells[i][j]
            value = computed[i][j]
            ok = goldens.cell_matches(golden, value)
            failures += 0 if ok else 1
            if value is None:
                shown = NO_ROOT
            elif golden == NO_ROOT:
                shown = format_significant(value, 12)
            else:
                shown = goldens.cell_digits(golden, value)
            rows.append([str(n), column.label, golden, shown, "ok" if ok else "FAIL"])
    total = len(table.n_values) * len(table.columns)
    summary = f"table {table.table_id}: {total - failures}/{total} cells match"
    meta = {"command": "table", "table": table.table_id, "title": table.title, "summary": summary}
    body = render_table(args.format, headers, rows, meta)
    if args.format != "json":
        body = f"{body}\n{summary}"
    emit(body, args.out)
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# exact / convert


def cmd_exact(args: argparse.Namespace) -> int:
    _check_state_digits(args.state, args.digits)
    lam = parse_rational_flag(args.lam, "--lambda")
    if abs(lam) > sys.float_info.max:
        raise UsageError(f"--lambda {args.lam} is beyond the float range")
    value = _exact_eigenvalue(PotentialSpec.linear(lam), args.state, args.digits)
    print(format_significant(value, args.digits))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    problem = load_problem(args.path)
    scaled = nondimensionalize(problem)
    info = {
        "command": "convert",
        "length": format_rational(problem.length),
        "energy_scale": format_rational(scaled.energy_scale),
        "q_interval": [format_rational(scaled.q1), format_rational(scaled.q2)],
        "potential_coeffs": list(scaled.potential.v.coeff_strings()),
        "unit_interval_ready": scaled.q1 == 0,
    }
    if args.format == "json":
        import json

        emit(json.dumps(info, indent=2), args.out)
        return 0
    lines = [
        f"box length L = {info['length']}",
        f"energy scale 2mL^2/hbar^2 = {info['energy_scale']} (eps = scale * E)",
        f"scaled interval q in [{info['q_interval'][0]}, {info['q_interval'][1]}]",
        f"scaled potential v(q) = {scaled.potential.v}",
        f"unit-interval solvers applicable: {'yes' if info['unit_interval_ready'] else 'no'}",
    ]
    emit("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="boxeig", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="estimate eigenvalues across truncation orders")
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", default="0", help="linear-ramp coupling (rational)")
    group.add_argument("--potential", help="problem file to nondimensionalize and solve")
    solve.add_argument("--methods", default="a1,a2,a3", help="comma list from a1,a2,a3,rr,exact")
    solve.add_argument("--n", default="4..13", help="orders: one integer, a..b, or a comma list")
    solve.add_argument("--state", type=int, default=0, help="eigenstate index (0 = ground)")
    solve.add_argument("--bracket", help="root search interval lo,hi (rationals)")
    solve.add_argument("--digits", type=int, default=DEFAULT_DIGITS, help="significant digits to print")
    solve.add_argument("--format", choices=FORMATS, default="md")
    solve.add_argument("--select", default="default", help="root policy: default|smallest|nearest:<x>|min-w")
    solve.add_argument("--out", help="write the rendered table to a file")
    solve.set_defaults(func=cmd_solve)

    table = sub.add_parser("table", help="recompute a stored golden table and diff per cell")
    table.add_argument("id", type=int, help="golden table id (1-4)")
    table.add_argument("--format", choices=FORMATS, default="md")
    table.add_argument("--out", help="write the diff report to a file")
    table.set_defaults(func=cmd_table)

    exact = sub.add_parser("exact", help="print a benchmark eigenvalue from the oracle")
    exact.add_argument("--lambda", dest="lam", default="0", help="linear-ramp coupling (rational)")
    exact.add_argument("--state", type=int, default=0)
    exact.add_argument("--digits", type=int, default=20)
    exact.set_defaults(func=cmd_exact)

    convert = sub.add_parser("convert", help="nondimensionalize a problem file")
    convert.add_argument("path", help="problem file")
    convert.add_argument("--format", choices=("md", "json"), default="md")
    convert.add_argument("--out", help="write the report to a file")
    convert.set_defaults(func=cmd_convert)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: each parse returns a fresh Namespace, and
    # nothing about the parser depends on the command it parses
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError, NotImplementedError, RootScanError) as exc:
        print(f"boxeig: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
