"""Run one benchmark workload against the boxeig sources in ``src/``.

    python3 perfbench/run.py --workload series-sweep --seed 1 --seconds 40 --trace 0

The load is one client in a closed loop: the benchmark calls
``boxeig.cli.main`` in-process with the argument lists a user would type,
and starts each command only after the previous one returned.  The CLI's
row thread pool runs as shipped.  Passes repeat the workload's command list
until another pass would overrun ``--seconds``; every output is checked
outside the timed region.  Timings are scaled to a reference machine speed
with the probe of ``speed.py``, timed before and after each command.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that have the span tracer installed, and
reports the per-layer metrics plus the tracer's overhead.
The last line of standard output is one JSON object; lines before it, each
starting with ``#``, describe the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cheap command that touches series, variational, rootfind and rayleigh_ritz.
WARMUP = ["solve", "--methods", "a1,a2,a3,rr", "--n", "8", "--lambda=1"]
SETUP_REPEATS = 11

# Set-up as a user pays it: a fresh interpreter imports boxeig and runs one
# command.  Interpreter start-up itself is not counted.  The speed probes
# run in the same interpreter, just before and after.
_SETUP_SCRIPT = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[2])
import speed
before = speed.probe()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import boxeig.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = boxeig.cli.main(sys.argv[3:])
seconds = time.perf_counter() - t0
print(seconds * speed.factor(before, speed.probe()), rc)
"""


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def import_cli():
    """``boxeig.cli`` from this checkout's ``src``, never from elsewhere."""
    package = SRC / "boxeig"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no boxeig sources at {package}")
    sys.path.insert(0, str(SRC))
    import boxeig.cli

    if Path(boxeig.cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported boxeig from {boxeig.cli.__file__}, not from {package}")
    return boxeig.cli


def measure_setup() -> float:
    """Set-up time of one fresh interpreter, in reference seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, str(SRC), str(HERE), *WARMUP],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
        raise BenchError(f"set-up run failed: {proc.stdout!r} {proc.stderr[-500:]!r}")
    return float(fields[0])


@dataclass
class Outcome:
    seconds: float
    rc: int | None
    out: str
    error: str = ""


def run_command(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a raising command is a failed one
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Outcome(seconds, rc, out.getvalue(), error or err.getvalue()[-300:])


@dataclass
class Phase:
    """Passes over one command list and what the checker found."""

    tracer: object = None  # installed around each of this phase's passes
    wall_s: list[float] = field(default_factory=list)  # per pass, unscaled
    factor: list[float] = field(default_factory=list)  # per pass, scaled / unscaled time
    pass_s: list[float] = field(default_factory=list)  # per pass, scaled
    cmd_s: list[list[float]] = field(default_factory=list)  # per pass, scaled, in command order
    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)  # command -> reasons
    known: dict[str, str] = field(default_factory=dict)  # command -> known defect it showed
    unexpected: set[str] = field(default_factory=set)  # commands with any other failure

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())


def run_pass(cli, commands, ref, phase: Phase) -> None:
    """Run the command list once, timed, then check every output.

    The pass time is the sum of its command times; the speed probes taken
    between commands are not part of it.  Each command's time is scaled by
    the probes just before and after it.
    """
    from checker import check, shows_known_defect

    gc.collect()
    outcomes = []
    probes = [speed.probe()]
    for cmd in commands:
        if phase.tracer is not None:
            phase.tracer.cmd += 1
        outcomes.append(run_command(cli, cmd.argv))
        probes.append(speed.probe())
    scaled = [o.seconds * speed.factor(a, b) for o, a, b in zip(outcomes, probes, probes[1:])]
    wall = sum(outcome.seconds for outcome in outcomes)
    phase.wall_s.append(wall)
    phase.factor.append(sum(scaled) / wall)
    phase.pass_s.append(sum(scaled))
    phase.cmd_s.append(scaled)
    for cmd, outcome in zip(commands, outcomes):
        phase.attempted += 1
        if outcome.rc is None:
            reasons = [outcome.error]
        else:
            reasons = check(cmd, outcome.rc, outcome.out, ref)
        if not reasons:
            continue
        phase.failures.setdefault(str(cmd), []).append("; ".join(reasons))
        if outcome.rc is not None and shows_known_defect(cmd, outcome.rc, outcome.out, ref):
            phase.known[str(cmd)] = cmd.known_defect
        else:
            phase.unexpected.add(str(cmd))


def run_passes(cli, commands, ref, seconds: float, tracers=(None,), before_pass=None) -> list[Phase]:
    """One phase per entry of ``tracers``; whole passes take turns over them.

    Pass i goes to phase i mod len(tracers), with that phase's tracer
    installed around it, so a change in machine speed falls on every phase
    alike.  Passes stop when every phase has one and another pass would
    overrun ``seconds``.  ``before_pass(i)`` runs ahead of pass i; its time
    does not count against ``seconds``.
    """
    phases = [Phase(tracer=t) for t in tracers]
    start = time.perf_counter()
    aside = longest = 0.0
    for i in itertools.count():
        if before_pass is not None:
            t0 = time.perf_counter()
            before_pass(i)
            aside += time.perf_counter() - t0
        phase = phases[i % len(phases)]
        t0 = time.perf_counter()
        with phase.tracer or contextlib.nullcontext():
            run_pass(cli, commands, ref, phase)
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start - aside
        if all(p.pass_s for p in phases) and elapsed + longest > seconds:
            return phases


def cmd_percentile(phase: Phase, q: int) -> float:
    """Median over passes of the pass's q-th command-time percentile.

    Every pass runs the same commands, so a per-pass percentile always lands
    on the same ranks; pooling passes instead would move it between
    commands of very different cost as the number of passes changes.
    """
    per_pass = [
        statistics.quantiles(times, n=100, method="inclusive")[q - 1] if len(times) > 1 else times[0]
        for times in phase.cmd_s
    ]
    return statistics.median(per_pass)


def end_to_end(phase: Phase, setup_s: float) -> dict[str, tuple[float, str]]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(phase.pass_s), "s"),
        "cmd_p50_s": (cmd_percentile(phase, 50), "s"),
        "cmd_p90_s": (cmd_percentile(phase, 90), "s"),
        "ok_frac": ((phase.attempted - phase.failed) / phase.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def describe(workload: str, seed: int, phase: Phase, label: str) -> list[str]:
    n = len(phase.cmd_s[0])
    lines = [
        f"# {workload} seed={seed} {label}: {len(phase.pass_s)} passes of {n} commands "
        f"({n - int(0.9 * n)} per pass at or beyond p90), failed {phase.failed}/{phase.attempted}",
        f"# {workload} seed={seed} {label}: median pass {statistics.median(phase.wall_s):.3f} s wall, "
        f"speed factor {min(phase.factor):.3f}..{max(phase.factor):.3f}",
    ]
    for cmd, reasons in phase.failures.items():
        tag = "FAILED" if cmd in phase.unexpected else f"known defect ({phase.known[cmd]})"
        lines.append(f"# {tag}: {cmd}: {reasons[0]}")
    return lines


def result_line(phases: list[Phase], metrics: dict[str, tuple[float, str]]) -> dict:
    """The run's result; ``correct`` is false when any command failed other than by its known defect."""
    return {
        "correct": not any(p.unexpected for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
        import workloads
        from checker import Reference

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        commands = workloads.commands(args.workload, args.seed)
        ref = Reference()
        if run_command(cli, WARMUP).rc != 0:
            raise BenchError("warm-up command failed")
        if args.trace == 0:
            # Set-up samples are spread over the run, like the passes, so
            # their median sees the same changes in machine speed.
            setups: list[float] = []

            def setup_before(i: int) -> None:
                if i < SETUP_REPEATS:
                    setups.append(measure_setup())

            [phase] = run_passes(cli, commands, ref, args.seconds, before_pass=setup_before)
            while len(setups) < SETUP_REPEATS:
                setups.append(measure_setup())
            metrics = end_to_end(phase, statistics.median(setups))
            phases = [phase]
            notes = describe(args.workload, args.seed, phase, "untraced")
        else:
            from tracer import Tracer, summarize

            tracer = Tracer()
            plain, traced = run_passes(cli, commands, ref, args.seconds, tracers=(None, tracer))
            metrics = summarize(tracer, len(traced.pass_s))
            overhead = statistics.median(traced.pass_s) / statistics.median(plain.pass_s) - 1
            metrics["trace.overhead_frac"] = (overhead, "ratio")
            phases = [plain, traced]
            notes = describe(args.workload, args.seed, plain, "untraced")
            notes += describe(args.workload, args.seed, traced, "traced")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for line in notes:
        print(line)
    print(json.dumps(result_line(phases, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
