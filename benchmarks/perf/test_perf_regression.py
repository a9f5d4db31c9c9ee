"""The perf harness end-to-end: ledger records and the trajectory gate.

These run the real ``scripts/bench.py`` CLI (micro workload, seconds)
in a scratch directory, so they live under ``benchmarks/`` rather than
the tier-1 ``tests/`` tree.  Runs accumulate in a scratch ledger and
gate against the median of the comparable history; a doctored fast
history trips the non-zero exit.  Every invocation points the ledger
at the scratch directory — the repo's committed
``results/ledger/bench.jsonl`` must never absorb test runs.  The
single-run record itself (phases, totals, counters) is pinned in
``tests/obs/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_CLI = REPO_ROOT / "scripts" / "bench.py"


def run_bench(tmp_path: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_PROFILE", None)
    args = [
        sys.executable,
        str(BENCH_CLI),
        "--scale",
        "micro",
        *extra,
    ]
    if "--ledger" not in extra and "--no-ledger" not in extra:
        args += ["--no-ledger"]
    return subprocess.run(
        args, capture_output=True, text=True, env=env, check=False
    )


def test_ledger_trajectory_accumulates_and_gates(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    first = run_bench(
        tmp_path, "--runid", "run_a", "--ledger", str(ledger)
    )
    assert first.returncode == 0, first.stderr
    assert "gate skipped" in first.stdout
    second = run_bench(
        tmp_path,
        "--runid",
        "run_b",
        "--ledger",
        str(ledger),
        "--threshold",
        "5.0",
    )
    assert second.returncode == 0, second.stderr
    assert "median[1]" in second.stdout
    lines = [
        json.loads(line)
        for line in ledger.read_text().splitlines()
        if line.strip()
    ]
    assert [entry["runid"] for entry in lines] == ["run_a", "run_b"]
    # The ledger reader accepts v1 records; the writer stamps the
    # current schema (bumped to /2 when incident payloads landed).
    assert all(
        entry["schema"] == "repro-ledger/2" for entry in lines
    )


def test_doctored_slow_trajectory_trips_the_gate(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    first = run_bench(
        tmp_path, "--runid", "run_a", "--ledger", str(ledger)
    )
    assert first.returncode == 0, first.stderr
    # Rewrite the run's ledger line to claim every phase was ~instant.
    entry = json.loads(ledger.read_text())
    for phase in entry["phases"].values():
        phase["wall_s"] = 0.005
    entry["totals"]["wall_s"] = 0.005 * len(entry["phases"])
    # Medians only trust phases that took >= the comparability floor;
    # keep one phase just above it so the gate has a real baseline.
    entry["phases"]["experiment.run_plan"]["wall_s"] = 0.06
    ledger.write_text(json.dumps(entry) + "\n")  # repro-lint: disable=RPL205 -- doctors a scratch tmp_path ledger line to look fast; never touches results/ledger/
    gated = run_bench(
        tmp_path, "--runid", "run_b", "--ledger", str(ledger)
    )
    assert gated.returncode == 1
    assert "PERF REGRESSION" in gated.stderr
    assert "median[1]" in gated.stdout
