"""End-to-end command-line behaviour, run in-process through main()."""

import dataclasses
import json
from decimal import Decimal

import pytest

from boxeig import goldens, rootfind
from boxeig.cli import main

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


def test_order_three_is_refused_only_for_trial_functions(capsys):
    # A2 and A3 build a trial function from terms j = 1..N-1; A1 and RR take N = 3
    code, out, _ = run(capsys, "solve", "--n", "3", "--methods", "rr", "--format", "csv")
    assert (code, out) == (0, "N,eps(RR)\n3,10\n")
    code, _, err = run(capsys, "solve", "--n", "3..5", "--methods", "a1,a3")
    assert code == 1 and "--n 3" in err and "A3" in err and "A2" not in err


def test_argparse_failures_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["solve", "--format", "xml"])
    assert info.value.code == 1


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
    # one isolation per (coupling, N, method): A2's eps and W columns share it
    calls = []
    original = rootfind.isolate_real_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rootfind, "isolate_real_roots", counted)
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
        goldens.TABLES, 4, dataclasses.replace(table, cells=tampered_cells)
    )
    code, out, _ = run(capsys, "table", "4")
    assert code == 3
    assert "5/6 cells match" in out
    assert out.count("FAIL") == 1


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
