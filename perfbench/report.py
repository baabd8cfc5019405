"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                          # all workloads, seed 1
    python3 perfbench/report.py --seeds 1-10 --trace-seeds none  # spread of ten seeds
    python3 perfbench/report.py --seeds 1-10 --trace-seeds 1-2 --record "label"

Each run is a separate ``run.py`` process, started after the previous one
ended: untraced runs for ``--seeds``, then traced runs for ``--trace-seeds``.
For every metric the report prints the median over the seeds and, with more
than one seed, the spread: the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``--record`` appends every value, the medians, the
spreads and the machine to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if text == "none":
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, as statistics.quantiles(n=4) gives the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def machine() -> dict:
    import mpmath

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace-seeds", default="1", help="seeds of the traced runs, or none")
    parser.add_argument("--record", metavar="LABEL", help="append the result to trajectory.json")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    modes = [(0, seeds), (1, parse_seeds(args.trace_seeds))]
    specs = {m["name"]: m for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]}
    point = {"label": args.record, "date": time.strftime("%Y-%m-%d"), "machine": machine(),
             "run_seconds": BENCHMARK["run_seconds"], "seeds": args.seeds, "trace_seeds": args.trace_seeds,
             "workloads": {}}
    for workload in args.workloads.split(","):
        summary = point["workloads"].setdefault(workload, {})
        for trace, mode_seeds in modes:
            if not mode_seeds:
                continue
            results = [run_once(workload, seed, trace) for seed in mode_seeds]
            values: dict[str, list[float]] = {}
            for result in results:
                if not result["correct"]:
                    print(f"# {workload} seed run reported incorrect output", file=sys.stderr)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            summary["attempted"] = summary.get("attempted", 0) + sum(r["attempted"] for r in results)
            summary["failed"] = summary.get("failed", 0) + sum(r["failed"] for r in results)
            summary["correct"] = summary.get("correct", True) and all(r["correct"] for r in results)
            summary["run_wall_s_max"] = max(summary.get("run_wall_s_max", 0.0),
                                            max(r["wall_s"] for r in results))
            for name, vals in values.items():
                spec = specs[name]
                entry = {"median": statistics.median(vals), "spread": spread(vals),
                         "unit": spec["unit"], "better": spec["better"], "values": vals}
                summary.setdefault("metrics", {})[name] = entry
                bound = spec.get("bound")
                flag = ""
                if bound is not None and len(vals) > 1:
                    flag = "  ok" if entry["spread"] < bound / 3 else "  WIDE (>= bound/3)"
                shown = f"  spread {entry['spread']:.4f}" + (f" / bound {bound}" if bound else "")
                print(f"{workload:13s} {name:45s} {entry['median']:14.6g} {spec['unit']:6s}"
                      f"{shown if len(vals) > 1 else ''}{flag}")
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(point)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"# appended '{args.record}' to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
