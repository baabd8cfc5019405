"""Self-tests of the benchmark:  ``python3 -m pytest perfbench``."""

from __future__ import annotations

import ast
import inspect
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checker
import run
import speed
import tracer
import workloads
from boxeig.cli import format_significant

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def ref():
    return checker.Reference()


def shift_last_digit(text: str, units: int) -> str:
    """The decimal string moved by ``units`` in its last printed digit."""
    whole, _, frac = text.partition(".")
    scaled = int(whole + frac) + units
    digits = str(abs(scaled)).rjust(len(frac) + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-len(frac)]}.{digits[-len(frac):]}" if frac else f"{sign}{digits}"


def printed(ref, lam: str, state: int, digits: int = 20) -> str:
    return format_significant(ref(lam, state).value, digits)


def test_shift_last_digit():
    assert shift_last_digit("10.36", -2) == "10.34"
    assert shift_last_digit("-6.10", -1) == "-6.11"
    assert shift_last_digit("0.01", -2) == "-0.01"


def test_checker_accepts_this_commits_output(cli, ref):
    for name, commands in workloads.SMOKE.items():
        for cmd in commands:
            outcome = run.run_command(cli, cmd.argv)
            reasons = checker.check(cmd, outcome.rc, outcome.out, ref)
            if cmd.known_defect:
                # the lambda = -30 ground state is mislabelled at this commit
                assert reasons, f"{name}: {cmd} was expected to fail"
            else:
                assert reasons == [], f"{name}: {cmd}: {reasons}"


def test_checker_rejects_last_digit_change_in_bound_cells(ref):
    converged = printed(ref, "1", 0)
    for column in ("W(A2)", "eps(RR)"):
        assert checker.check_cell(column, converged, "1", 0, 16, ref) is None
        assert checker.check_cell(column, shift_last_digit(converged, -1), "1", 0, 16, ref) is None
        low = shift_last_digit(converged, -2)
        assert checker.check_cell(column, low, "1", 0, 16, ref) is not None


def test_checker_rejects_last_digit_change_in_golden_table(cli, ref):
    cmd = workloads.Command("table", table=4)
    outcome = run.run_command(cli, cmd.argv)
    assert checker.check(cmd, outcome.rc, outcome.out, ref) == []
    lines = outcome.out.splitlines()
    row = lines[2].split("|")  # first data row: | N | column | golden | computed | status |
    for units in (-2, 2):
        bad = list(row)
        bad[4] = f" {shift_last_digit(row[4].strip(), units)} "
        tampered = "\n".join([*lines[:2], "|".join(bad), *lines[3:]])
        assert checker.check(cmd, outcome.rc, tampered, ref) != []


def test_checker_rejects_state_label_errors(ref):
    excited = printed(ref, "1", 1)
    for column in ("W(A2)", "eps(RR)"):
        assert checker.check_cell(column, excited, "1", 0, 12, ref) is not None
    for column in ("eps(A1)", "eps(A3)"):
        assert checker.check_cell(column, excited, "1", 0, 16, ref) is not None
    exact = workloads.Command("exact", lam="1", digits=30)
    assert checker.check(exact, 0, printed(ref, "1", 1, 30) + "\n", ref) != []
    assert checker.check(exact, 0, printed(ref, "1", 0, 30) + "\n", ref) == []


def test_checker_rejects_bad_status_and_unexpected_missing_roots(ref):
    cmd = workloads.Command("solve", lam="1", n="14", methods="a1", digits=20, fmt="json")
    good = json.dumps({"columns": ["N", "eps(A1)"], "rows": [{"N": 14, "eps(A1)": printed(ref, "1", 0)}]})
    missing = json.dumps({"columns": ["N", "eps(A1)"], "rows": [{"N": 14, "eps(A1)": None}]})
    assert checker.check(cmd, 0, good, ref) == []
    assert checker.check(cmd, 1, good, ref) != []
    assert checker.check(cmd, 2, missing, ref) != []
    golden_gap = workloads.Command("solve", lam="1", n="5", methods="a1", digits=20, fmt="json")
    gap = json.dumps({"columns": ["N", "eps(A1)"], "rows": [{"N": 5, "eps(A1)": None}]})
    assert checker.check(golden_gap, 2, gap, ref) == []
    assert checker.check(golden_gap, 0, gap, ref) != []


class FakeCli:
    """The real CLI, except that lambda = -30 commands return ``fake(argv)``."""

    def __init__(self, cli, fake):
        self.cli, self.fake = cli, fake

    def main(self, argv):
        if "--lambda=-30" in argv:
            return self.fake(argv)
        return self.cli.main(argv)


def _raise(argv):
    raise RuntimeError("broken")


def _exit_1(argv):
    print("24.756247151952033663")
    return 1


def _wrong_value(argv):
    print("24.7" if argv[0] == "exact" else json.dumps({"columns": ["N"], "rows": []}))
    return 0


def test_only_the_known_defect_keeps_the_result_correct(cli, ref):
    commands = [c for c in workloads.SMOKE["reference"] if c.known_defect] + [
        workloads.Command("exact", lam="-30", known_defect=workloads.NEGATIVE_GROUND_STATE),
    ]
    [phase] = run.run_passes(cli, commands, ref, seconds=0)
    assert phase.failed == len(commands) and sorted(phase.known) == sorted(map(str, commands))
    assert run.result_line([phase], {})["correct"] is True
    for fake in (_raise, _exit_1, _wrong_value):
        [phase] = run.run_passes(FakeCli(cli, fake), commands, ref, seconds=0)
        assert phase.known == {} and phase.unexpected == set(map(str, commands)), fake.__name__
        assert run.result_line([phase], {})["correct"] is False, fake.__name__


def test_seed_permutes_and_draws_only_the_extra_coupling():
    fixed = {"0", "1", "-30", "-5", "50", "1/10"}
    for name in workloads.WORKLOADS:
        runs = [workloads.commands(name, seed) for seed in range(12)]
        assert workloads.commands(name, 3) == runs[3]
        fixed_parts = [sorted(str(c) for c in cmds if c.lam in fixed) for cmds in runs]
        assert all(part == fixed_parts[0] for part in fixed_parts)
        for cmds in runs:
            assert {c.lam for c in cmds} - fixed <= set(workloads.COUPLINGS)
    orders = {tuple(map(str, workloads.commands("reference", seed))) for seed in range(12)}
    assert len(orders) > 1


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every boxeig module and of the classes they define."""
    seen = {}
    for modname, module in list(sys.modules.items()):
        if modname == "boxeig" or modname.startswith("boxeig."):
            for attr, value in vars(module).items():
                seen[(modname, attr)] = value
                if inspect.isclass(value) and value.__module__ == modname:
                    for meth, fn in vars(value).items():
                        seen[(f"{modname}.{attr}", meth)] = fn
    return seen


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_at_a_tiny_size(cli, ref, name):
    commands = workloads.SMOKE[name]
    before = _bindings()
    [phase] = run.run_passes(cli, commands, ref, seconds=0)
    assert _bindings().items() == before.items()  # untraced runs patch nothing
    assert len(phase.pass_s) == 1 and phase.attempted == len(commands)
    assert phase.unexpected == set()
    metrics = run.end_to_end(phase, setup_s=0.5)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())

    tr = tracer.Tracer()
    plain, traced = run.run_passes(cli, commands, ref, seconds=0, tracers=(None, tr))
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert len(plain.pass_s) == len(traced.pass_s) == 1
    assert {s.cmd for s in tr.spans} == set(range(1, len(commands) + 1))  # traced pass only
    assert plain.unexpected == traced.unexpected == set()
    layer = tracer.summarize(tr, len(traced.pass_s))
    layer["trace.overhead_frac"] = (0.0, "ratio")
    assert sorted(layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in layer.items())


def test_traced_run_sees_layers_and_rows(cli, ref):
    commands = [
        workloads.Command("solve", lam="1", n="6..7", methods="a1,a2,a3", digits=20, fmt="json"),
        workloads.Command("exact", lam="1/10", digits=30),
    ]
    tr = tracer.Tracer()
    [phase] = run.run_passes(cli, commands, ref, seconds=0, tracers=(tr,))
    assert phase.failures == {}
    layer = tracer.summarize(tr, 1)
    assert layer["variational.build_quotient.calls_per_row"][0] == 2
    assert layer["oracle.ode_fallback_ratio"][0] == 1
    assert layer["cli.compute_cells.calls"][0] == 2
    assert layer["rootfind.input.degree_max"][0] > 0
    names = {s.name for s in tr.spans}
    assert {"cli.main", "series.build_series", "variational.stationarity_polynomial",
            "rootfind.refine_enclosure", "oracle.series_integrate"} <= names
    # pool rows hang under the call that fanned them out
    by_id = {s.sid: s for s in tr.spans}
    rows = [s for s in tr.spans if s.name == "cli.compute_cells"]
    assert {by_id[s.parent].name for s in rows} == {"cli.compute_rows"}


def test_timings_are_scaled_by_the_speed_probe(cli, ref, monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)  # a machine at half speed
    [phase] = run.run_passes(cli, workloads.SMOKE["goldens"], ref, seconds=0)
    assert phase.factor == [pytest.approx(0.5)]
    assert phase.pass_s == [pytest.approx(phase.wall_s[0] * 0.5)] and phase.pass_s[0] > 0
    assert sum(phase.cmd_s[0]) == phase.pass_s[0]
    imported = {alias.name for node in ast.walk(ast.parse(inspect.getsource(speed)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported == {"annotations", "gc", "time"}  # nothing a change to boxeig can move


def test_setup_measures_a_fresh_interpreter():
    assert 0 < run.measure_setup() < 60


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "goldens", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
