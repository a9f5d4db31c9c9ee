"""Self-tests of the benchmark at reduced size.

.. code-block:: console

    $ PYTHONPATH=src python -m pytest sniffbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.obs
from repro.ml.compiled import CompiledForest
from sniffbench import hostspeed, stream, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def _observability_off():
    repro.obs.set_enabled(False)
    yield
    repro.obs.reset()


@pytest.fixture(scope="module")
def tiny_stream():
    """A trained detector and its time-ordered captures, micro size."""
    repro.obs.set_enabled(False)
    setup = workloads.run_phases(
        workloads.scale_for(7, "tiny"), classify=False
    )
    return setup.detector, stream.order_captures(setup.sweep.captures)


def _run_cli(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "sniffbench" / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0.1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_spec_follows_the_benchmark_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS
    )
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result = _run_cli(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def test_cli_fails_without_a_source_tree(tmp_path):
    (tmp_path / "sniffbench").mkdir()
    for path in (ROOT / "sniffbench").glob("*.py"):
        shutil.copy(path, tmp_path / "sniffbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "sniffbench/run.py", "--workload", "paper-small"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_corrupted_verdict_trips_the_stream_check(tiny_stream):
    detector, ordered = tiny_stream
    run = stream.replay(detector, ordered)
    assert workloads.stream_problems(run, run.verdicts) == []
    tweet_id, spam, probability = run.verdicts[0]
    corrupted = replace(
        run,
        verdicts=[(tweet_id, not spam, probability)] + run.verdicts[1:],
    )
    assert workloads.stream_problems(corrupted, run.verdicts)


def test_a_corrupted_verdict_fails_the_run(monkeypatch):
    real_replay = stream.replay
    count = 0

    def corrupting_replay(*args, **kwargs):
        nonlocal count
        run = real_replay(*args, **kwargs)
        count += 1
        if count == 3:  # a timed pass, after the reference and parity
            tweet_id, spam, p = run.verdicts[-1]
            run.verdicts[-1] = (tweet_id, not spam, p)
        return run

    monkeypatch.setattr(stream, "replay", corrupting_replay)
    result = workloads.run_workload(
        "sniffer-stream", seed=7, seconds=0.1, size="tiny", trace=False
    )
    assert not result.correct
    assert result.failed >= result.info["captures"]


def test_a_missing_verdict_trips_the_batch_check():
    captures = [
        SimpleNamespace(tweet=SimpleNamespace(tweet_id=i)) for i in range(3)
    ]
    sweep = SimpleNamespace(captures=captures, n_captures=3)
    whole = SimpleNamespace(captures=captures, is_spam=np.array([0, 1, 0]))
    short = SimpleNamespace(captures=captures[:2], is_spam=np.array([0, 1]))
    assert workloads.verdict_problems(whole, sweep) == []
    assert workloads.verdict_problems(short, sweep)


def test_the_generator_reports_lateness_when_forced_behind(
    tiny_stream, monkeypatch
):
    detector, ordered = tiny_stream
    paced = stream.replay(detector, ordered, rate=2_000.0)
    assert paced.sustained
    predict_proba = CompiledForest.predict_proba

    def slow_predict_proba(self, X, *args, **kwargs):
        time.sleep(0.1)
        return predict_proba(self, X, *args, **kwargs)

    monkeypatch.setattr(CompiledForest, "predict_proba", slow_predict_proba)
    behind = stream.replay(detector, ordered, rate=2_000.0)
    assert behind.verdicts == paced.verdicts
    assert behind.late_max_ms > 100.0 + paced.late_max_ms
    assert behind.late_growth_ms > stream.LATE_GROWTH_LIMIT_MS
    assert not behind.sustained


def test_the_timeline_leaves_probes_out_and_divides_by_slowness(
    monkeypatch,
):
    speeds = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(hostspeed, "slowness", lambda: next(speeds))
    timeline = hostspeed.Timeline()
    for name in ("a", "b", "c"):
        timeline.cut(name)
        time.sleep(0.01)
    walls = timeline.walls()
    assert timeline.names == ["a", "b", "c"]
    assert len(walls) == 2 and (walls >= 0.01).all()
    assert timeline.reference_s() == pytest.approx(walls / [2.0, 2.5])


def test_the_host_probe_reads_a_plausible_speed():
    assert 0.05 < hostspeed.slowness() < 20.0


def test_due_offsets_keep_the_stream_shape():
    captures = [
        SimpleNamespace(tweet=SimpleNamespace(created_at=t))
        for t in (10.0, 10.0, 20.0, 110.0)
    ]
    offsets = stream.due_offsets(captures, rate=2.0)
    assert offsets.tolist() == [0.0, 0.0, 0.2, 2.0]
