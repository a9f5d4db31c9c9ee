"""Run workloads over several seeds, each run in a fresh process.

.. code-block:: console

    $ python3 sniffbench/suite.py --seeds 7,23
    $ python3 sniffbench/suite.py --workloads sniffer-stream \\
          --seeds 1-10 --out first.json
    $ python3 sniffbench/suite.py --seeds 1-10 --against first.json

A fresh process per run keeps ``ru_maxrss`` (a lifetime high-water
mark) and process-wide caches from leaking between runs.  For each
workload and metric the suite prints the median over seeds and the
spread: the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``).  With
``--against`` it also compares each median with a saved earlier set
and flags one worse by more than the metric's bound.  Exit status is
non-zero if any run failed a check or exited abnormally.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-small", "sniffer-stream")


def parse_seeds(text: str) -> list[int]:
    """``"7,23"`` or ``"1-10"`` (inclusive) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, __, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a fresh process; its result line, parsed.

    A run that exits abnormally or prints no result comes back as
    ``{"correct": False, ...}`` with the tail of its output.
    """
    command = [
        sys.executable,
        str(ROOT / "sniffbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        return {
            "correct": False,
            "attempted": 0,
            "failed": 0,
            "metrics": {},
            "error": (proc.stdout + proc.stderr)[-2000:],
        }
    result["info"] = info
    result["exit"] = proc.returncode
    return result


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 if undefined)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(runs: list[dict]) -> dict[str, dict]:
    """Per metric: unit, values over runs, median and spread."""
    names = {name for run in runs for name in run["metrics"]}
    table = {}
    for name in sorted(names):
        values = [
            run["metrics"][name]["value"]
            for run in runs
            if name in run["metrics"]
        ]
        unit = next(
            run["metrics"][name]["unit"]
            for run in runs
            if name in run["metrics"]
        )
        table[name] = {
            "unit": unit,
            "values": values,
            "median": statistics.median(values),
            "spread": spread(values),
        }
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="7,23")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, help="save the runs as JSON, workload by workload"
    )
    parser.add_argument(
        "--against", type=Path, help="an earlier --out file to compare"
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    seeds = parse_seeds(args.seeds)
    saved: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, args.trace)
            runs.append(run)
            if not run["correct"] or run.get("exit"):
                ok = False
                problems = run.get("info", {}).get("problems")
                print(f"FAIL {workload} seed {seed}: "
                      f"{problems or run.get('error')}")
        saved[workload] = runs
        if args.out:
            # repro-lint: disable=RPL205 -- the suite's result file, where --out points
            args.out.write_text(json.dumps(saved))
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"failed {failed}/{attempted}")
        before = summarize(earlier.get(workload, []))
        for name, row in summarize(runs).items():
            line = (f"  {name:28s} {row['median']:14.4f} {row['unit']:6s}"
                    f" spread {row['spread']:6.3f}")
            metric = bounds.get(name)
            if metric is not None:
                line += f" bound {metric['bound']:.2f}"
                if name != "setup_s" and row["spread"] > metric["bound"]:
                    line += "  SPREAD>BOUND"
                elif row["spread"] > metric["bound"] / 3:
                    line += "  spread>bound/3"
                if name in before:
                    old = before[name]["median"]
                    change = (row["median"] - old) / old if old else 0.0
                    worse = (
                        change if metric["better"] == "lower" else -change
                    )
                    line += f" vs earlier {change:+.3f}"
                    if worse > metric["bound"]:
                        line += "  WORSE>BOUND"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
