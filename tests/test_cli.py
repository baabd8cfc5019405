"""End-to-end command-line behaviour, run in-process through main()."""

import ast
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from boxeig import cli, estimates, goldens, rayleigh_ritz, rootfind
from boxeig.cli import main
from boxeig.model import PotentialSpec

RAMP_PROBLEM = """\
# a ramp potential in physical units
m=1/2
hbar=1
L1=0
L2=2
x0=0
1 1/16
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_markdown_clean_exit(capsys):
    code, out, _ = run(capsys, "solve", "--methods", "a2", "--n", "4..6", "--digits", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| N | eps(A2) | W(A2) |"
    assert len(lines) == 2 + 3  # header, rule, three rows
    assert f" {goldens.NO_ROOT} " not in out


def test_solve_missing_roots_exit_two(capsys):
    # the boundary-polynomial route has no root in the default bracket at N=5
    code, out, _ = run(capsys, "solve", "--methods", "a1", "--n", "5..6")
    assert code == 2
    assert out.count(f" {goldens.NO_ROOT} ") == 2


def test_rr_state_past_the_basis_size_has_no_root(capsys):
    # the N=4 basis has size 3, so RR has no state 3 there: that cell shows
    # no root and the larger N still print theirs
    code, out, err = run(capsys, "solve", "--n", "4..6", "--methods", "a1,rr", "--state", "3")
    assert code == 2
    assert out.strip().splitlines()[2:] == [
        "| 4 | -- | -- |",
        "| 5 | -- | 200.4984472 |",
        "| 6 | -- | 200.4984472 |",
    ]
    assert err == ""


def test_solve_prints_exact_boundary_roots_exactly(capsys):
    # at lambda=1 the A1 boundary polynomial has the rational roots 13/2
    # (N=4) and 10 (N=8); refinement finds both on its grid
    code, out, _ = run(
        capsys, "solve", "--methods", "a1", "--n", "4,8", "--lambda=1", "--digits", "20"
    )
    assert code == 0
    assert out.strip().splitlines()[2:] == ["| 4 | 6.5 |", "| 8 | 10 |"]


def test_solve_csv_and_markdown_same_numbers(capsys):
    args = ["solve", "--methods", "a1,a2,a3", "--n", "9..11", "--digits", "14"]
    code_md, out_md, _ = run(capsys, *args, "--format", "md")
    code_csv, out_csv, _ = run(capsys, *args, "--format", "csv")
    assert code_md == code_csv == 0

    md_rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in out_md.strip().splitlines()
        if "---" not in line
    ]
    csv_rows = [line.split(",") for line in out_csv.strip().splitlines()]
    assert md_rows == csv_rows


def test_solve_json_types(capsys):
    code, out, _ = run(
        capsys, "solve", "--methods", "a1,exact", "--n", "5,7", "--format", "json"
    )
    assert code == 2  # N=5 has no boundary root
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert payload["columns"] == ["N", "eps(A1)", "eps(exact)"]
    rows = payload["rows"]
    assert [row["N"] for row in rows] == [5, 7]
    assert rows[0]["eps(A1)"] is None
    assert isinstance(rows[1]["eps(A1)"], str)


def test_solve_a1_nearest_compares_refined_roots(capsys):
    # 41.1657 and 50.4912 share one raw isolating interval of the state-1
    # bracket; 50.4912 is nearer to 48 and is the only root in (44, 60]
    a1_n16 = ("solve", "--methods", "a1", "--n", "16", "--lambda=0")
    code, out, _ = run(capsys, *a1_n16, "--state", "1", "--select", "nearest:48")
    assert code == 0
    assert out.strip().splitlines()[-1] == "| 16 | 50.49123864 |"
    assert run(capsys, *a1_n16, "--bracket", "44,60")[1] == out


def test_solve_rr_honours_select(capsys):
    # bracket (0, 200) holds four RR roots; 88.826 (state 2) is nearest to 100
    rr_n10 = ("solve", "--methods", "rr", "--n", "10", "--bracket", "0,200")
    code, out, _ = run(capsys, *rr_n10, "--select", "nearest:100")
    assert code == 0
    assert out.strip().splitlines()[-1] == "| 10 | 88.82644938 |"
    assert run(capsys, *rr_n10, "--state", "2")[1] == out


def test_solve_negative_coupling_equals_form(capsys):
    code, out, _ = run(capsys, "solve", "--lambda=-3/2", "--methods", "a2", "--n", "8")
    assert code == 0
    # a downhill ramp pulls the level below pi^2
    w_cell = out.strip().splitlines()[-1].split("|")[3].strip()
    assert float(w_cell) < 9.8696


def test_solve_state_and_bracket(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--methods",
        "rr",
        "--n",
        "10",
        "--state",
        "1",
        "--bracket",
        "0,50",
        "--digits",
        "12",
    )
    assert code == 0
    value = float(out.strip().splitlines()[-1].split("|")[2])
    assert abs(value - 4 * 9.8696044) < 0.01


def test_solve_problem_file(tmp_path, capsys):
    path = tmp_path / "ramp.box"
    path.write_text(RAMP_PROBLEM)
    code, out, _ = run(
        capsys, "solve", "--potential", str(path), "--methods", "a2", "--n", "10", "--digits", "14"
    )
    code_direct, out_direct, _ = run(
        capsys, "solve", "--lambda", "1/2", "--methods", "a2", "--n", "10", "--digits", "14"
    )
    assert code == code_direct == 0
    assert out.splitlines()[-1] == out_direct.splitlines()[-1]


def count_builds(monkeypatch) -> list[tuple]:
    """Record each series, quotient, pencil and default-bracket build, with its arguments."""
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append((name, *args[1:]))
            return original(*args)

        return wrapper

    for name in ("build_series", "build_quotients", "build_secular_systems"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.setattr(estimates, "default_bracket", counted("default_bracket", estimates.default_bracket))
    return calls


def test_compute_cells_builds_each_object_once(monkeypatch):
    # one series at the largest N serves every row, one pass over it builds
    # every row's quotient, one pencil covers every N for RR, and the
    # default bracket is resolved once, by the command's RunConfig
    calls = count_builds(monkeypatch)
    potential = PotentialSpec.linear(Fraction(3, 7))
    orders = (9, 7, 9)
    series_builds = [("build_series", 9), ("build_quotients", orders)]
    for methods, built in (
        ("a1,a2,a3", series_builds),
        ("a1,a2,a3,rr", [*series_builds, ("build_secular_systems", orders)]),
    ):
        calls.clear()
        rows = cli.compute_rows(cli.RunConfig(cli.parse_methods_flag(methods), potential, orders))
        assert calls == [("default_bracket", 0), *built]
        assert all(None not in cells.values() for cells in rows)


def test_a_repeated_solve_builds_as_much_as_the_first(capsys, monkeypatch):
    # nothing outlives a command: a second run in the same process rebuilds
    # what the first built, and prints the same table
    calls = count_builds(monkeypatch)
    argv = ("solve", "--methods", "a1,a2,a3,rr", "--n", "9,7,9", "--lambda=3/7")
    first = run(capsys, *argv)
    builds = len(calls)
    assert run(capsys, *argv) == first
    assert builds == 4 and len(calls) == 2 * builds


def test_rr_over_a_range_eliminates_once_per_node_of_the_largest_n(capsys, monkeypatch):
    # N = 10..30 from one pencil of order 30: 30 node eliminations, where
    # building each row's system alone would take sum(N) = 420
    calls = []
    original = rayleigh_ritz._band_pivots

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(rayleigh_ritz, "_band_pivots", counted)
    assert run(capsys, "solve", "--methods", "rr", "--n", "10..30", "--lambda=1")[0] == 0
    assert calls == [29] * 30


@pytest.mark.parametrize("methods, n", [("exact", "4..13"), ("a1,exact", "4..40")])
def test_solve_runs_the_oracle_once_per_command(capsys, monkeypatch, methods, n):
    # the oracle's value does not depend on N, so one call serves every row
    calls = []
    original = cli.exact_linear

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_linear", counted)
    code, out, _ = run(capsys, "solve", "--methods", methods, "--n", n, "--lambda=1")
    rows = out.strip().splitlines()[2:]
    assert code in (0, 2) and len(rows) == int(n.split("..")[1]) - 3
    assert len(calls) == 1
    assert len({row.split("|")[-2] for row in rows}) == 1


def test_series_solvers_isolate_on_dyadic_hulls_and_only_up_to_their_root(capsys, monkeypatch):
    # every bracket Descartes bisection runs on has dyadic ends; A1 and A3
    # stop once they hold the root they refine, where isolating every root
    # in the bracket took 9 and 22 de Casteljau splits; A2 stops at W's first
    # valley, whose interval starts at 0, and then runs its no-root test once,
    # on the rest of the bracket, with no split: 9 isolations and 3 tests
    brackets, splits = [], {}
    method = [None]
    original_descartes, original_halves = rootfind._descartes, rootfind._halves

    def descartes(a, left, right, den, bounded):
        brackets.append((Fraction(left, den), Fraction(right, den)))
        return original_descartes(a, left, right, den, bounded)

    def halves(b, d):
        splits[method[0]] = splits.get(method[0], 0) + 1
        return original_halves(b, d)

    def tagged(name, solve):
        def wrapper(*args, **kwargs):
            method[0] = name
            return solve(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(rootfind, "_descartes", descartes)
    monkeypatch.setattr(rootfind, "_halves", halves)
    for name in ("solve_a1", "solve_a2", "solve_a3"):
        monkeypatch.setattr(cli, name, tagged(name, getattr(cli, name)))
    code, _, _ = run(capsys, "solve", "--methods", "a1,a2,a3", "--n", "14..16", "--lambda=1")
    assert code == 0 and len(brackets) == 12
    assert all(x.denominator & (x.denominator - 1) == 0 for bracket in brackets for x in bracket)
    assert splits == {"solve_a1": 4, "solve_a2": 6, "solve_a3": 15}


def test_solve_out_file(tmp_path, capsys):
    target = tmp_path / "levels.md"
    code, out, err = run(
        capsys, "solve", "--methods", "a3", "--n", "6", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert str(target) in err
    assert "| N | eps(A3) |" in target.read_text()


# ---------------------------------------------------------------------------
# usage errors all map to exit status 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--methods", "a9"),
        ("solve", "--n", "banana"),
        ("solve", "--n", "9..4"),
        ("solve", "--n", "2"),
        ("solve", "--n", "65"),
        ("solve", "--digits", "3"),
        ("solve", "--digits", "99"),
        ("solve", "--bracket", "5"),
        ("solve", "--bracket", "9,4"),
        ("solve", "--lambda", "1/0"),
        ("solve", "--select", "largest"),
        ("solve", "--methods", "a1", "--n", "10", "--select", "min-w"),
        ("solve", "--methods", "rr", "--n", "10", "--select", "min-w"),
        ("solve", "--methods", "a1", "--n", "10", "--state", "-1"),
        ("solve", "--methods", "a2", "--n", "10", "--state", "-1"),
        ("solve", "--methods", "rr", "--n", "10", "--state", "-1"),
        ("exact", "--digits", "4"),
        ("exact", "--lambda=1", "--state", "25", "--digits", "6"),
        ("solve", "--methods", "exact", "--lambda=1", "--state", "25", "--n", "4"),
        ("convert", "/nonexistent/file.box"),
        # search brackets with an end beyond the float range
        ("solve", "--methods", "a2", "--n", "10", "--lambda=1", "--bracket", "0,1e400"),
        ("solve", "--methods", "a1", "--n", "10", "--lambda=1", "--bracket", "0,1e400"),
        ("solve", "--methods", "a3", "--n", "10", "--lambda=1", "--bracket=-1e400,1"),
        ("solve", "--methods", "a2", "--n", "10", "--lambda=1e400"),
        ("solve", "--n", "5", "--select", "nearest:1/0"),
        ("solve", "--n", "5", "--select", "nearest:abc"),
        # past the half-line bound, or beyond the float range
        ("exact", "--lambda=30000"),
        ("exact", "--lambda=1e300"),
        ("exact", "--lambda=1e400"),
        ("exact", "--lambda=-1e400"),
        # the --serial flag is gone
        ("solve", "--serial"),
        ("table", "4", "--serial"),
        ("solve", "--methods", ","),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    try:
        code, _, err = run(capsys, *argv)
    except SystemExit as exc:
        # argparse refuses an unknown flag itself, after a usage line
        code, err = exc.code, capsys.readouterr().err
        assert err.startswith("usage: ")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("solve", "--n", "5", "--select", "nearest:1/0"), "--select"),
        (("solve", "--n", "5", "--select", "nearest:abc"), "--select"),
        (("exact", "--lambda=1e400"), "--lambda"),
        (("exact", "--lambda=-1e400"), "--lambda"),
        (("solve", "--n", "3"), "--n"),
        (("exact", "--state", "-1"), "--state"),
    ],
)
def test_flag_errors_name_the_flag(capsys, argv, flag):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("boxeig: error: ")
    assert flag in err


@pytest.mark.parametrize(
    "n, first_outside",
    [
        ("4..1" + "0" * 30, "65"),
        ("-1" + "0" * 30 + "..5", "-1" + "0" * 30),
        ("100..1" + "0" * 20, "100"),
    ],
)
def test_a_huge_n_range_is_refused_without_building_it(capsys, n, first_outside):
    # each range is too long to build: the refusal names its first value
    # outside [3, 64], as for a short range
    code, out, err = run(capsys, "solve", f"--n={n}")
    assert (code, out) == (1, "")
    assert err == f"boxeig: error: --n {first_outside} outside [3, 64]\n"


def test_order_three_is_refused_only_for_trial_functions(capsys):
    # A2 and A3 build a trial function from terms j = 1..N-1; A1 and RR take N = 3
    code, out, _ = run(capsys, "solve", "--n", "3", "--methods", "rr", "--format", "csv")
    assert (code, out) == (0, "N,eps(RR)\n3,10\n")
    code, _, err = run(capsys, "solve", "--n", "3..5", "--methods", "a1,a3")
    assert code == 1 and "--n 3" in err and "A3" in err and "A2" not in err
    code, _, err = run(capsys, "solve", "--methods", "a2", "--n", "3")
    assert code == 1 and "the lowest order for A2\n" in err


def test_argparse_failures_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["solve", "--format", "xml"])
    assert info.value.code == 1


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # usage failures leave nothing behind in the reused parser: a command
    # prints the same after them as it does on a fresh one
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    command = ("solve", "--methods", "a1,rr", "--n", "6,8", "--lambda=1/3", "--format", "csv")
    first = cli_digest(command)
    with pytest.raises(SystemExit) as info:
        main(["solve", "--format", "xml"])
    assert info.value.code == 1
    assert main(["solve", "--n", "3"]) == 1
    capsys.readouterr()
    assert cli_digest(command) == first
    assert len(built) == 1


# the probe passes its data as Python literals: importing json would hide
# whether a command loads it
_IMPORT_PROBE = """
import ast, contextlib, io, sys
import boxeig.cli
commands, watched, layers = map(ast.literal_eval, sys.argv[1:])

def loaded():
    return [name for name in watched if name in sys.modules]

report = [loaded(), [layer for layer in layers if f"boxeig.{layer}" not in sys.modules]]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        report.append([boxeig.cli.main(argv), loaded()])
print(repr(report))
"""

#: Modules that a ``solve`` in markdown has no use for: each loads on first use,
#: except ``dataclasses`` and ``inspect`` (16-20 ms together), which none loads.
_LAZY_MODULES = ["mpmath", "logging", "json", "csv", "boxeig.goldens", "dataclasses", "inspect"]
#: The layers the benchmark's span tracer finds in ``sys.modules``.
_TRACED_LAYERS = ["cli", "series", "variational", "rayleigh_ritz", "rootfind", "oracle"]


def test_only_the_oracle_imports_mpmath(tmp_path):
    # a fresh interpreter per case, so that nothing else has loaded a module yet
    path = tmp_path / "ramp.box"
    path.write_text(RAMP_PROBLEM)
    solve = ["solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=1"]
    cases = [
        (
            [
                solve,
                [*solve, "--format", "csv"],
                [*solve, "--format", "json"],
                ["table", "1"],
                ["convert", str(path)],
                ["solve", "--methods", "a2", "--state", "1", "--n", "5", "--lambda=1"],
                ["exact", "--lambda=1"],
            ],
            [
                [0, []],
                [0, ["csv"]],
                [0, ["json", "csv"]],
                [0, ["json", "csv", "boxeig.goldens"]],
                [0, ["json", "csv", "boxeig.goldens"]],
                [0, ["logging", "json", "csv", "boxeig.goldens"]],
                [0, ["mpmath", "logging", "json", "csv", "boxeig.goldens"]],
            ],
            "excited-state selection for the stationary method is heuristic\n",
        ),
        (
            [["convert", str(path)], ["convert", str(path), "--format", "json"]],
            [[0, []], [0, ["json"]]],
            "",
        ),
    ]
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for commands, expected, err in cases:
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *map(repr, (commands, _LAZY_MODULES, _TRACED_LAYERS))],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert ast.literal_eval(proc.stdout) == [[], [], *expected]
        assert proc.stderr == err


def test_exact_rejects_general_potential(tmp_path, capsys):
    path = tmp_path / "quad.box"
    path.write_text("m=1/2\nhbar=1\nL1=0\nL2=1\n2 3\n")
    code, _, err = run(
        capsys, "solve", "--potential", str(path), "--methods", "exact", "--n", "4"
    )
    assert code == 1
    assert "flat and linear" in err


def test_interior_reference_point_rejected(tmp_path, capsys):
    path = tmp_path / "centered.box"
    path.write_text("m=1/2\nhbar=1\nL1=0\nL2=2\nx0=1\n1 1\n")
    code, _, err = run(capsys, "solve", "--potential", str(path), "--n", "5")
    assert code == 1
    assert "left wall" in err


# ---------------------------------------------------------------------------
# table


def test_table_four_all_cells_match(capsys):
    code, out, _ = run(capsys, "table", "4")
    assert code == 0
    assert "table 4: 6/6 cells match" in out
    assert "FAIL" not in out


def test_table_one_all_cells_match(capsys):
    code, out, _ = run(capsys, "table", "1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "table 1: 40/40 cells match"
    rows = {
        (cells[0], cells[1]): cells[2:]
        for cells in (
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in out.splitlines()
            if line.startswith("| ")
        )
    }
    w_rows = [key for key in rows if key[1] == "W(A2)"]
    assert [n for n, _ in w_rows] == [str(n) for n in range(4, 14)]
    assert all(rows[key][2] == "ok" for key in w_rows)
    assert rows[("13", "W(A2)")] == ["9.869604401", "9.869604401", "ok"]
    # the boundary polynomial has no root in the bracket at N=5 and N=6
    for n in ("5", "6"):
        assert rows[(n, "eps(A1)")] == [goldens.NO_ROOT, goldens.NO_ROOT, "ok"]


@pytest.mark.parametrize("table_id, isolations", [(1, 30), (2, 30), (3, 14), (4, 6)])
def test_table_solves_each_row_once_per_coupling(capsys, monkeypatch, table_id, isolations):
    # one isolation per (coupling, N, method): A2's eps and W columns share
    # it; isolate_real_roots runs the lazy search, and A2 runs it on its own
    calls = []
    original = rootfind.real_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rootfind, "real_roots", counted)
    assert run(capsys, "table", str(table_id))[0] == 0
    assert len(calls) == isolations


def test_table_unknown_id(capsys):
    code, _, err = run(capsys, "table", "5")
    assert code == 1
    assert "1..4" in err


def test_table_json_summary(capsys):
    code, out, _ = run(capsys, "table", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == 4
    assert payload["summary"].endswith("6/6 cells match")
    assert all(row["status"] == "ok" for row in payload["rows"])


def test_table_mismatch_exit_three(capsys, monkeypatch):
    table = goldens.TABLES[4]
    tampered_cells = tuple(
        tuple("9.999999" if (i, j) == (0, 0) else cell for j, cell in enumerate(row))
        for i, row in enumerate(table.cells)
    )
    monkeypatch.setitem(
        goldens.TABLES,
        4,
        goldens.GoldenTable(table.table_id, table.title, table.n_values, table.columns, tampered_cells),
    )
    code, out, _ = run(capsys, "table", "4")
    assert code == 3
    assert "5/6 cells match" in out
    assert out.count("FAIL") == 1


def test_table_shows_a_value_computed_for_a_no_root_cell_as_fail(capsys, monkeypatch):
    # a golden "--" asserts that no root exists; a computed one is shown at
    # 12 significant digits
    table = goldens.TABLES[4]
    cells = ((goldens.NO_ROOT, table.cells[0][1]), *table.cells[1:])
    tampered = goldens.GoldenTable(table.table_id, table.title, table.n_values, table.columns, cells)
    monkeypatch.setitem(goldens.TABLES, 4, tampered)
    code, out, _ = run(capsys, "table", "4")
    assert code == 3
    assert "| 4 | eps(RR, lam=0) | -- | 9.86974962132 | FAIL |" in out.splitlines()
    assert out.count("FAIL") == 1


@st.composite
def golden_cells(draw):
    """(cell, computed): a decimal cell or "--", and None or a value near the cell.

    The offsets are in halves of the cell's unit, so exact half-way ties
    between two renderings come up often, on both sides of zero.
    """
    decimals = draw(st.integers(0, 12))
    digits = draw(st.integers(-(10**14), 10**14))
    text = str(abs(digits)).rjust(decimals + 1, "0")
    cell = ("-" if digits < 0 else "") + (f"{text[:-decimals]}.{text[-decimals:]}" if decimals else text)
    cell = draw(st.sampled_from((cell, goldens.NO_ROOT)))
    kind = draw(st.sampled_from(("none", "near", "near", "any")))
    if kind == "none":
        return cell, None
    if kind == "any":
        return cell, draw(st.builds(Fraction, st.integers(), st.integers(1, 10**20)))
    half = draw(st.integers(-5, 5))
    nudge = draw(st.sampled_from((0, 0, Fraction(1, 10**40), Fraction(-1, 10**40))))
    return cell, Fraction(2 * digits + half, 2 * 10**decimals) + nudge


@settings(max_examples=500, derandomize=True, deadline=None)
@given(golden_cells())
def test_integer_cell_match_equals_the_fraction_rounding(case):
    # and the digits `table` shows are the rounding that cell_matches compares
    cell, computed = case
    assert goldens.cell_matches(cell, computed) == references.cell_matches(cell, computed)
    if cell != goldens.NO_ROOT and computed is not None:
        shown = goldens.cell_digits(cell, computed)
        assert len(shown.partition(".")[2]) == len(cell.partition(".")[2])
        assert Fraction(shown) == references.round_to_unit(computed, references.cell_unit(cell))


def test_cell_match_rounds_half_to_even():
    # at one decimal 0.25 renders as 0.2 and 0.35 as 0.4, so a cell two
    # units past the even rendering fails even where the other one passes
    quarter, seven_twentieths, tiny = Fraction(1, 4), Fraction(7, 20), Fraction(1, 10**30)
    assert goldens.cell_matches("0.3", quarter) and not goldens.cell_matches("0.4", quarter)
    assert goldens.cell_matches("0.4", quarter + tiny)
    assert goldens.cell_matches("0.5", seven_twentieths) and not goldens.cell_matches("0.2", seven_twentieths)
    assert goldens.cell_matches("0.2", seven_twentieths - tiny)
    assert goldens.cell_matches("-0.3", -quarter) and not goldens.cell_matches("-0.4", -quarter)
    assert goldens.cell_matches("-0.5", -seven_twentieths) and not goldens.cell_matches("-0.2", -seven_twentieths)
    assert goldens.cell_matches("--", None) and not goldens.cell_matches("--", Fraction(1))
    assert not goldens.cell_matches("6", None)


def _golden_column(quantity="eps", method=estimates.METHOD_A2):
    return goldens.GoldenColumn("c", method, Fraction(1), quantity)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _golden_column("W"), "unknown column quantity 'W'"),
        (lambda: _golden_column("w", estimates.METHOD_A3), "w columns only apply"),
        (lambda: goldens.GoldenTable(9, "t", (4, 5), (_golden_column(),), (("1",),)), "one cell row"),
        (lambda: goldens.GoldenTable(9, "t", (4,), (_golden_column(),), (("1", "2"),)), "row width"),
    ],
    ids=["quantity", "w-column", "row-count", "row-width"],
)
def test_a_malformed_golden_table_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# exact


def test_exact_free_box_benchmark(capsys):
    code, out, _ = run(capsys, "exact", "--digits", "20")
    assert code == 0
    printed = Decimal(out.strip())
    reference = Decimal(goldens.BENCHMARK_EPS_FREE)
    assert abs(printed / reference - 1) < Decimal("1e-18")


def test_exact_ramp_benchmark(capsys):
    code, out, _ = run(capsys, "exact", "--lambda", "1", "--digits", "20")
    assert code == 0
    printed = Decimal(out.strip())
    reference = Decimal(goldens.BENCHMARK_EPS_RAMP)
    assert abs(printed / reference - 1) < Decimal("1e-18")


def test_exact_excited_state(capsys):
    code, out, _ = run(capsys, "exact", "--state", "1", "--digits", "12")
    assert code == 0
    assert abs(float(out.strip()) - 4 * 9.869604401089358) < 1e-9


def test_exact_refuses_a_huge_negative_coupling(capsys):
    # the wall series would need about 10^150 bits: refused at once, with the
    # coupling named, instead of running without end
    code, out, err = run(capsys, "exact", "--lambda=-1e300")
    assert code == 1
    assert out == ""
    assert "lam = -1.0e+300 is out of reach" in err


# ---------------------------------------------------------------------------
# convert


def test_convert_markdown(tmp_path, capsys):
    path = tmp_path / "ramp.box"
    path.write_text(RAMP_PROBLEM)
    code, out, _ = run(capsys, "convert", str(path))
    assert code == 0
    assert "box length L = 2" in out
    assert "energy scale 2mL^2/hbar^2 = 4" in out
    assert "q in [0, 1]" in out
    assert "1/2*q" in out.replace(" q", "*q") or "1/2" in out
    assert "applicable: yes" in out


def test_convert_json(tmp_path, capsys):
    path = tmp_path / "ramp.box"
    path.write_text(RAMP_PROBLEM)
    code, out, _ = run(capsys, "convert", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == "2"
    assert payload["energy_scale"] == "4"
    assert payload["q_interval"] == ["0", "1"]
    assert payload["unit_interval_ready"] is True
    assert payload["potential_coeffs"] == ["0", "1/2"]


def test_convert_interior_reference_is_reported_not_fatal(tmp_path, capsys):
    path = tmp_path / "centered.box"
    path.write_text("m=1\nhbar=1\nL1=-1\nL2=1\nx0=0\n2 1\n")
    code, out, _ = run(capsys, "convert", str(path))
    assert code == 0
    assert "q in [-1/2, 1/2]" in out
    assert "applicable: no" in out


# ---------------------------------------------------------------------------
# pinned output of a fixed command list

PINNED_COUPLINGS = ("0", "1", "3/7", "-7", "10", "-30")
PINNED_MIXES = (
    ("--methods", "a1,a2,a3,rr", "--n", "4..9"),
    ("--methods", "a1,a2,a3", "--n", "6,9,12", "--digits", "20"),
    ("--methods", "a2,a3", "--n", "5..7", "--select", "min-w", "--state", "1"),
    ("--methods", "a1,a3,rr", "--n", "8,9", "--select", "nearest:40"),
    ("--methods", "a1,rr", "--n", "6,8", "--state", "2", "--format", "csv"),
    ("--methods", "a2,rr", "--n", "4,7", "--select", "smallest", "--bracket", "0,300",
     "--format", "json"),
)
PINNED_COMMANDS = (
    [("solve", f"--lambda={lam}", *mix) for lam in PINNED_COUPLINGS for mix in PINNED_MIXES]
    + [("table", table_id, "--format", fmt) for table_id in "1234" for fmt in ("md", "json")]
    + [
        ("solve", "--state", "-1"),
        ("solve", "--methods", "a2", "--n", "3"),
        ("solve", "--methods", "a1", "--select", "min-w"),
        ("solve", "--lambda=1e400"),
    ]
)
# sha256 (first 24 hex digits) of repr((exit status, stdout, stderr)) for each
# command of PINNED_COMMANDS, in order, recorded from the implementation in
# which every estimate still carried float views and a residual.  stderr
# includes the package's warnings as the command line shows them.
PINNED_DIGESTS = (
    "114772f415be509784e337f5", "5cc8dfb246234827af2a09c9", "2e0433ec9fc0b43d8e952d7d",
    "7634a5658661b59ae34ecdc5", "2c8560c5bb586c048b1e4c02", "e96d916ee4cbac10a4ea66b3",
    "24b407857ac27a98d794a05f", "ad0d45f92574ad25b478eae1", "8f903df73583186fb76d4984",
    "214312138a467c0486c1b74e", "e36e9e335f75ce63f000c91f", "de51dbac511d9963cd274e9b",
    "590362415624c908b264b7d5", "1355197f421edd780e0fce7d", "f660e02391c7d1d74fe4da0c",
    "b874d55ddaf437fbaa7631b3", "26ab47d008019b756f75a139", "c0af87b75e6a55a201943196",
    "70109b53dcccb6158b9e4f56", "4273cdb7b64ff6c819cafcd7", "bf2b8ce1a65c276f3798adf0",
    "16eb5d5fbc751fd33d80cf8e", "6844c716110c83998b55e5d5", "032b8b25c36133d2a17f4672",
    "a5ddb6ac589db9de7b1731be", "03ba6879cf6860ea157f5056", "20a2de2a99c9687ed313e04a",
    "e215a1b57e32ebde9fc1dd61", "1138cb52a914e840bcb46523", "c2333af3bcd2eac9dff41ed3",
    "f531d9a95ddb7f84ef38c85f", "70a64e973a3bcca3abec33de", "f7610acc149b8ccfbbcff17f",
    "e97790d9b59b1bc8d95b82ff", "8e05debd82a77723d1073f7b", "84651e5767a5f291aab1b241",
    "eb4aaf9282159c32454c2d7a", "72780740373e4441229bebd2", "890d5796982692f5b96fb7cb",
    "0583e5b53ad4c70722e94437", "c8f342f2f180eae6a5948789", "60195ce1c81024a5755e1f5c",
    "35529e12d8285c34e6ef63e7", "ba9ebe0c317761d65e17597e", "a331fa12487fd6ea8daded5c",
    "27b15d727a98ec29b6d298bd", "99af421c56450bd0c155e91d", "0f17bc6b8021df8d62105cae",
)


def cli_digest(argv) -> str:
    """Digest of one in-process run; warnings reach stderr as on the command line."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    logger = logging.getLogger("boxeig")
    propagate = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()[:24]


def mismatched_commands(commands, digests) -> list[str]:
    """The commands whose output digest differs from the pinned one."""
    return [
        " ".join(argv)
        for argv, want in zip(commands, digests, strict=True)
        if cli_digest(argv) != want
    ]


def test_cli_output_matches_pinned_digests():
    assert not mismatched_commands(PINNED_COMMANDS, PINNED_DIGESTS)
    assert len(PINNED_COMMANDS) == 48


# Refinement paths that the list above does not reach: degree-34 polynomials
# on the finest grid (--digits 40), bracket ends off every dyadic grid
# (1/3, 0.1, 777.7), non-dyadic nearest targets, an A1 root on the grid
# (lambda = 1, N = 8 prints 10) and RR at 40 digits.
REFINEMENT_COMMANDS = (
    ("solve", "--methods", "a1,a2,a3", "--n", "20", "--lambda=1", "--digits", "40"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=3/7", "--bracket", "1/3,100"),
    ("solve", "--methods", "a2,a3", "--n", "12", "--lambda=-7", "--select", "nearest:1/3",
     "--digits", "30"),
    ("solve", "--methods", "a1,a2,a3", "--n", "14..18", "--lambda=10", "--digits", "40",
     "--format", "json"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "6,10", "--lambda=2", "--state", "2",
     "--bracket", "0.1,777.7", "--digits", "25"),
    ("solve", "--methods", "a1,a3,rr", "--n", "8,12", "--lambda=1/1000", "--select",
     "nearest:88.8", "--digits", "35", "--format", "csv"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=1", "--digits", "40"),
    ("solve", "--methods", "rr", "--n", "12", "--lambda=-30", "--state", "3", "--digits", "40"),
)
# digests as for PINNED_DIGESTS, recorded from the implementation that
# refined by plain bisection with one Fraction probe per grid point
REFINEMENT_DIGESTS = (
    "fd496292f084d34f2cc57ec1", "dbe87c5a4e90b3f4bf9388f9", "aca119d63d2e7d16623328ad",
    "542f2daa89dd7b9e80c78272", "b6ee496abfa4c4bb870f39da", "f14e7df8adb072ffd9d58d25",
    "47a9fda7acc8d8fcdfb2d0ba", "e814d71d507b3f2090acd46d",
)


def test_cli_refinement_output_matches_pinned_digests():
    assert not mismatched_commands(REFINEMENT_COMMANDS, REFINEMENT_DIGESTS)
    assert len(REFINEMENT_COMMANDS) == 8


# the ramp oracle on both sides of zero, for ground and excited states,
# at 20 and 40 digits
EXACT_COMMANDS = tuple(
    ("exact", *args, "--digits", digits)
    for args in (
        ("--lambda=1/10",),
        ("--lambda=-5", "--state", "1"),
        ("--lambda=-3000",),
        ("--lambda=50", "--state", "1"),
        ("--lambda=1", "--state", "3"),
        ("--lambda=-1", "--state", "5"),
    )
    for digits in ("20", "40")
)
# digests as for PINNED_DIGESTS, recorded from the implementation that
# evaluated the eigencondition as an Airy determinant, or by a stepping
# Taylor integrator where the Airy arguments passed 30
EXACT_DIGESTS = (
    "763859fdee9efa59a2c8124a", "a3e3b8f248baad3cf51728bd", "b8fba73ddb765872cc4e9213",
    "ce70621b51ed2365c7e78afb", "e4f1ecf61e8c73a66846891a", "4b0dee2e7e2c0e3e1d63fc3b",
    "c8191cdad99056d96fe34593", "321d11875a4eada41c1075f0", "ab66f4e477f2a53865b1341c",
    "407c979b610b548433d08bd2", "9b7ef935d7475873b54d400e", "a1310c7a0fe0fb15ec614a89",
)


def test_cli_exact_output_matches_pinned_digests():
    assert not mismatched_commands(EXACT_COMMANDS, EXACT_DIGESTS)
    assert len(EXACT_COMMANDS) == 12


# the reference workload's exact commands, every coupling its seed draws
# included, and a short request whose grid is coarse
EXACT_REFERENCE_COMMANDS = (
    *(
        ("exact", *args, "--digits", "30")
        for args in (
            ("--lambda=-5", "--state", "1"),
            ("--lambda=1/10",),
            ("--lambda=-30",),
            ("--lambda=-6",),
            ("--lambda=-7",),
            ("--lambda=-8",),
        )
    ),
    ("exact", "--lambda=1", "--digits", "6"),
)
# digests as for PINNED_DIGESTS, recorded from the implementation that
# refined the oracle's roots by regula falsi in mpf arithmetic, with a
# bisection fallback
EXACT_REFERENCE_DIGESTS = (
    "b6e7dd1b23c33f07f5a4aebb", "f3fb8a7d0669ba93ef53d5cf", "1c36e3b1830912b30da8ff48",
    "98d82025eb8af989b20aa209", "2c3cf9b91a2a916267096891", "1cd41b20fb1329b8813d6cb7",
    "a54a921c90116c5a6a1f0c04",
)


def test_cli_exact_reference_output_matches_pinned_digests():
    assert not mismatched_commands(EXACT_REFERENCE_COMMANDS, EXACT_REFERENCE_DIGESTS)


# RR where the secular determinant is largest: N = 20, 24 and 30 on ramps,
# an excited state, and a general cubic potential from a problem file
RR_COMMANDS = (
    ("solve", "--methods", "rr", "--n", "20,24,30", "--lambda=1", "--digits", "30"),
    ("solve", "--methods", "rr", "--n", "20,24,30", "--lambda=-7"),
    ("solve", "--methods", "rr", "--n", "20,24", "--lambda=1", "--state", "2", "--digits", "25"),
    ("solve", "--methods", "rr", "--n", "20,24", "--potential", "{cubic}", "--state", "1",
     "--digits", "30", "--format", "json"),
)
# v = 1/3 + 2q - 5/2 q^2 + q^3 on the unit box
CUBIC_PROBLEM = "m=1/2\nhbar=1\nL1=0\nL2=1\n0 1/3\n1 2\n2 -5/2\n3 1\n"
# digests as for PINNED_DIGESTS, recorded from the implementation that
# expanded det(H - eps S) by dense Bareiss elimination over Z[eps]
RR_DIGESTS = (
    "45677e2773ca6c5661dd8f3f", "8170d269dd1ed711572a5b20", "03a9a83c8015fc2f76587a79",
    "66e90f8e9f97c60cbf618bbc",
)


def test_cli_rr_output_matches_pinned_digests(tmp_path):
    path = tmp_path / "cubic.box"
    path.write_text(CUBIC_PROBLEM)
    commands = [[arg.format(cubic=path) for arg in argv] for argv in RR_COMMANDS]
    assert not mismatched_commands(commands, RR_DIGESTS)


# RR over many N in one command: a long ascending range at 30 digits, an
# unsorted list with a duplicate next to A1 on an excited state, the cubic
# from a problem file, and the free box
RR_RANGE_COMMANDS = (
    ("solve", "--methods", "rr", "--n", "3..30", "--lambda=1", "--digits", "30"),
    ("solve", "--methods", "rr,a1", "--n", "12,8,8,16", "--lambda=-7/3", "--state", "1",
     "--digits", "25"),
    ("solve", "--methods", "rr", "--n", "3..20", "--potential", "{cubic}", "--format", "json"),
    ("solve", "--methods", "rr", "--n", "4..12", "--lambda=0", "--format", "csv"),
)
# digests as for PINNED_DIGESTS, recorded from the implementation that built
# each row's pencil on its own, in Fraction arithmetic
RR_RANGE_DIGESTS = (
    "ead22bad6e344b89c101e25a", "85b1e1ee280fee6499287920", "46d66252988e28edc6313fa5",
    "a74a93e9398b31363e223a11",
)


def test_cli_rr_range_output_matches_pinned_digests(tmp_path):
    path = tmp_path / "cubic.box"
    path.write_text(CUBIC_PROBLEM)
    commands = [[arg.format(cubic=path) for arg in argv] for argv in RR_RANGE_COMMANDS]
    assert not mismatched_commands(commands, RR_RANGE_DIGESTS)


# --bracket ends the isolation hull rounds: non-dyadic and long-denominator
# ends (default_bracket's float pi^2 at lambda = 1, and a third of it),
# brackets of width 1e-26 and 1e-28 around one method's root, and ends on the
# A1 root 10 (lambda = 1, N = 8), with excited states and every policy
_PI2 = Fraction(math.pi) ** 2
BRACKET_COMMANDS = (
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=1", "--bracket", "10,50",
     "--digits", "30"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=1", "--bracket", "1/7,10",
     "--digits", "30"),
    ("solve", "--methods", "a1", "--n", "8", "--lambda=1", "--bracket", "10,100", "--state", "1",
     "--digits", "25"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=1", "--bracket",
     "10.36850716192479431799703403,10.36850716192479431799703404", "--digits", "30"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=1", "--bracket",
     "10.36861906517368928596785566585,10.36861906517368928596785566595", "--digits", "40"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "6..9", "--lambda=1", "--bracket",
     f"0,{8 * _PI2}", "--digits", "25"),
    ("solve", "--methods", "a1,a2,a3,rr", "--n", "6..9", "--lambda=1", "--bracket",
     f"{_PI2 / 3},{8 * _PI2}", "--digits", "25", "--format", "csv"),
    ("solve", "--methods", "a1,a3,rr", "--n", "10,12", "--lambda=-7", "--state", "1",
     "--bracket", "1/3,777/7", "--digits", "30"),
    ("solve", "--methods", "a1,a3,rr", "--n", "8,9", "--lambda=0", "--select", "nearest:40",
     "--bracket", "0.1,98.7"),
    ("solve", "--methods", "a2,a3", "--n", "5..7", "--lambda=3/7", "--select", "min-w",
     "--state", "1", "--bracket", "1/3,300/7", "--format", "json"),
    ("solve", "--methods", "a2", "--n", "9,12", "--lambda=-30", "--select", "smallest",
     "--bracket", "3/10,200/3", "--digits", "30"),
)
# digests as for PINNED_DIGESTS, recorded from the implementation that ran
# Descartes bisection on the bracket itself and isolated every root in it
BRACKET_DIGESTS = (
    "e9e673482cac8441036e497b", "765daa88e7bd0d21641c0197", "84b0c6dbd15492604d3f2cab",
    "2e9b79bf86669d6bc4edbfda", "5e561ab42181a2cd2cbca327", "500681ad4423afc6870422ac",
    "d5082e3b45c5400f1a0fdc01", "16e41075fa60d1797af5cb91", "f31793068a860b290852767b",
    "f5b31e798b5bda063dc05338", "b34fc8b84865b932f36ab89e",
)


def test_cli_bracket_output_matches_pinned_digests():
    assert not mismatched_commands(BRACKET_COMMANDS, BRACKET_DIGESTS)
