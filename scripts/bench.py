"""Perf-regression gate: run a canonical workload, append one ledger record.

Runs one of the preset benchmark workloads (micro/tiny/small/large)
fully instrumented and distills the run report into one
``kind="bench"`` :class:`~repro.obs.ledger.RunRecord`: per-phase
timings of every ``experiment.*`` span (wall, CPU, peak RSS), the
counter snapshot (``engine.organic_posts``, ``network.captures``,
``label.tweets_labeled``, ...), totals, and a host fingerprint.  The
record is appended to the run ledger (``results/ledger/bench.jsonl``
by default — tracked in git) so the perf trajectory accumulates
across commits.

The regression gate is :func:`~repro.obs.ledger.diff_trajectory`: the
run is compared phase-by-phase against the **median of the last K**
comparable ledger records — same scale, workers and host fingerprint,
so timings from other hardware never serve as a baseline.  Any phase
slower than the threshold (default +35%, override with
``--threshold`` or ``REPRO_BENCH_THRESHOLD``) makes the script **exit
non-zero**; with no comparable history the gate is skipped:

    REPRO_SCALE=tiny PYTHONPATH=src python scripts/bench.py

``--profile`` additionally attaches cProfile top-N hot functions to
each outermost phase span (see ``repro.obs.profiling``); ``--live``
tails the event stream to stderr while the workload runs.
"""

from __future__ import annotations

import argparse
import datetime
import logging
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

from repro import configure_logging  # noqa: E402
from repro.analysis import WORKLOAD_NAMES, run_bench_workload  # noqa: E402
from repro.obs import (  # noqa: E402
    HealthEngine,
    LiveMonitor,
    RunLedger,
    RunRecord,
    diff_trajectory,
    resources,
    set_profiling,
    stable_digest,
)
from repro.obs.ledger import DEFAULT_LAST_K, DEFAULT_THRESHOLD  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=WORKLOAD_NAMES,
        default=os.environ.get("REPRO_SCALE", "tiny"),
        help="workload preset (env REPRO_SCALE; default tiny)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS", "0") or "0"),
        help=(
            "process-pool size for CPU-bound phases (env "
            "REPRO_WORKERS; 0 = sequential, -1 = all cores); "
            "recorded in the ledger record"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(
            os.environ.get("REPRO_BENCH_THRESHOLD", DEFAULT_THRESHOLD)
        ),
        help="regression gate as a fraction (0.35 = fail on +35%%)",
    )
    parser.add_argument(
        "--runid",
        default=None,
        help="record id (default: UTC timestamp)",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        help=(
            "run-ledger JSONL to append to and gate against (default: "
            "results/ledger/bench.jsonl under the repo root)"
        ),
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip the ledger append and trajectory gating entirely",
    )
    parser.add_argument(
        "--last-k",
        type=int,
        default=DEFAULT_LAST_K,
        help=(
            "trajectory window: gate against the median of the last "
            f"K comparable ledger records (default {DEFAULT_LAST_K})"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach cProfile top-N hot functions to phase spans",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="tail the event stream to stderr while running",
    )
    parser.add_argument(
        "--health",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "watch the run with the default health-rule pack and "
            "record totals.alerts_fired (plus the incident list) in "
            "the ledger; --no-health skips the watchdog entirely"
        ),
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="record the run but never fail on regressions",
    )
    parser.add_argument(
        "--lint-wall",
        action="store_true",
        help=(
            "additionally time a full-tree repro-lint pass and record "
            "it as totals.lint_wall_s in the ledger, so the lint "
            "layer's own cost accumulates a trajectory"
        ),
    )
    return parser.parse_args(argv)


def _lint_wall_seconds() -> float:
    """Wall-clock of one full-tree repro-lint pass."""
    import time

    from repro.devtools.lint import run_lint

    start = time.perf_counter()
    run_lint(
        [
            REPO_ROOT / "src" / "repro",
            REPO_ROOT / "scripts",
            REPO_ROOT / "examples",
            REPO_ROOT / "benchmarks",
        ],
        root=REPO_ROOT,
    )
    return time.perf_counter() - start


def host_fingerprint() -> str:
    """Digest of the hardware/software a timing was measured on."""
    return stable_digest(
        {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        }
    )


def _comparable(record: RunRecord, current: RunRecord) -> bool:
    """Whether a ledger record is trajectory material for this run."""
    return record.kind == "bench" and all(
        record.meta.get(key) == current.meta.get(key)
        for key in ("scale", "workers", "host")
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    configure_logging(logging.WARNING)
    runid = args.runid or datetime.datetime.now(
        datetime.timezone.utc
    ).strftime("%Y%m%dT%H%M%SZ")
    if args.profile:
        set_profiling(True)

    monitor = LiveMonitor() if args.live else None
    if monitor is not None:
        monitor.attach()
    health = HealthEngine().attach() if args.health else None
    try:
        report = run_bench_workload(
            args.scale, seed=args.seed, workers=args.workers
        )
    finally:
        if monitor is not None:
            monitor.detach()
        if health is not None:
            health.detach()
    if health is not None and health.alerts_fired:
        print(
            f"health: {health.alerts_fired} alert(s) fired "
            f"({', '.join(sorted(i.rule for i in health.incidents.incidents))})"
        )

    record = RunRecord.from_report(
        report,
        runid,
        kind="bench",
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        host=host_fingerprint(),
    )
    if not record.phases:
        print(
            "bench: report has no experiment.* spans to record",
            file=sys.stderr,
        )
        return 2
    # Peak RSS of the whole run (ru_maxrss is monotonic): the scale
    # workloads exist to track memory as much as wall time.
    record.totals["max_rss_kb"] = resources.sample().max_rss_kb
    if health is not None:
        record.totals["alerts_fired"] = health.alerts_fired
        record.incidents = health.incidents.to_payload()
    if args.lint_wall:
        record.totals["lint_wall_s"] = round(_lint_wall_seconds(), 4)
        print(
            "lint wall-clock: "
            f"{record.totals['lint_wall_s']:.2f}s (full tree)"
        )
    if args.no_ledger:
        print("ledger disabled; regression gate skipped")
        return 0

    # The ledger trajectory accumulates even when gating is skipped:
    # history is what makes future medians trustworthy.  Baseline
    # records are read BEFORE appending so this run never gates
    # against itself.
    ledger = RunLedger(
        args.ledger
        if args.ledger is not None
        else RunLedger.default(REPO_ROOT).path
    )
    baseline_records = [
        previous
        for previous in ledger.trajectory(kind="bench")
        if _comparable(previous, record)
    ]
    ledger.append(record, timestamp=runid)
    print(f"ledger: {ledger.path} ({len(baseline_records) + 1} runs)")

    if not baseline_records:
        print("no comparable ledger history; regression gate skipped")
        return 0
    diff = diff_trajectory(
        baseline_records,
        record,
        threshold=args.threshold,
        k=args.last_k,
    )
    print()
    print(diff.render())
    if not diff.ok and not args.no_gate:
        print(
            f"\nPERF REGRESSION: {len(diff.regressions)} phase(s) "
            f"slower than +{100 * args.threshold:.0f}% "
            f"vs {diff.previous_runid}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
