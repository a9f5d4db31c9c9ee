"""scripts/bench.py: one ledger record per run, gated by diff_trajectory."""

import importlib.util
import time
from pathlib import Path

import pytest

from repro import obs
from repro.analysis import run_bench_workload
from repro.obs import RunReport, profile
from repro.obs.ledger import (
    MIN_COMPARABLE_SECONDS,
    RunLedger,
    RunRecord,
    diff_trajectory,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()


def synthetic_report() -> RunReport:
    """A report with a couple of experiment phases of real duration."""
    with profile("experiment.fake_collect", hours=2):
        with profile("experiment.fake_plan"):
            sum(i * i for i in range(5_000))
    with profile("experiment.fake_classify"):
        pass
    return RunReport.capture()


def record_with(phases: dict[str, float], runid: str) -> RunRecord:
    return RunRecord(
        runid=runid,
        kind="bench",
        phases={
            name: {"wall_s": wall, "cpu_s": wall, "calls": 1}
            for name, wall in phases.items()
        },
        totals={"wall_s": sum(phases.values()), "cpu_s": 0.0},
    )


def load_cli():
    spec = importlib.util.spec_from_file_location(
        "bench_cli_under_test", REPO_ROOT / "scripts" / "bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_files(*directories: Path) -> list[Path]:
    """Any legacy per-run bench artifact left in ``directories``."""
    return [
        path
        for directory in directories
        for path in directory.iterdir()
        if path.name.startswith("BENCH_")
    ]


class TestCapture:
    def test_phases_reconcile_with_the_span_tree(self):
        report = synthetic_report()
        record = RunRecord.from_report(
            report, "r1", kind="bench", scale="unit"
        )
        assert set(record.phases) == {
            "experiment.fake_collect",
            "experiment.fake_plan",
            "experiment.fake_classify",
        }
        (collect,) = report.find("experiment.fake_collect")
        assert record.phases["experiment.fake_collect"][
            "wall_s"
        ] == pytest.approx(collect.duration_s, abs=1e-6)
        assert record.phases["experiment.fake_collect"]["cpu_s"] >= 0
        # Totals sum root spans only: nested fake_plan is inside
        # fake_collect and must not double-count.
        roots = sum(span.duration_s for span in report.spans)
        assert record.totals["wall_s"] == pytest.approx(
            roots, abs=1e-6
        )
        assert record.kind == "bench"
        assert record.meta["scale"] == "unit"

    def test_capture_requires_experiment_spans(
        self, tmp_path, monkeypatch, capsys
    ):
        cli = load_cli()

        def no_phases(scale_name="tiny", seed=7, **meta):
            obs.reset()
            obs.set_enabled(True)
            with profile("network.deploy"):
                pass
            return RunReport.capture()

        monkeypatch.setattr(cli, "run_bench_workload", no_phases)
        ledger_path = tmp_path / "ledger.jsonl"
        assert cli.main(["--ledger", str(ledger_path)]) != 0
        assert "no experiment.* spans" in capsys.readouterr().err
        assert not ledger_path.exists()


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        original = RunRecord.from_report(
            synthetic_report(), "r1", kind="bench"
        )
        ledger = RunLedger(tmp_path / "bench.jsonl")
        written = ledger.append(original, timestamp="T1")
        (loaded,) = ledger.load()
        assert loaded == written
        assert loaded.phases == original.phases
        assert loaded.totals == original.totals

    def test_save_without_runid_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path / "bench.jsonl")
        with pytest.raises(ValueError, match="runid"):
            ledger.append(RunRecord(runid=""))
        assert not ledger.path.exists()


class TestDiffGate:
    """The gate over a one-record window: a plain before/after diff."""

    def test_synthetic_slow_run_is_a_regression(self):
        previous = record_with({"experiment.collect": 1.0}, "a")
        current = record_with({"experiment.collect": 2.0}, "b")
        diff = diff_trajectory([previous], current, threshold=0.35)
        assert not diff.ok
        # Both the phase and the <total> row doubled.
        assert [d.phase for d in diff.regressions] == [
            "experiment.collect",
            "<total>",
        ]
        assert diff.regressions[0].ratio == pytest.approx(2.0)
        assert "<< REGRESSION" in diff.render()

    def test_within_threshold_passes(self):
        previous = record_with({"experiment.collect": 1.0}, "a")
        current = record_with({"experiment.collect": 1.2}, "b")
        assert diff_trajectory([previous], current, threshold=0.35).ok

    def test_sub_noise_phases_are_not_gated(self):
        wall = MIN_COMPARABLE_SECONDS / 2
        previous = record_with({"experiment.collect": wall}, "a")
        current = record_with({"experiment.collect": wall * 10}, "b")
        assert diff_trajectory([previous], current).ok

    def test_total_row_and_disjoint_phases(self):
        previous = record_with(
            {"experiment.old": 1.0, "experiment.shared": 1.0}, "a"
        )
        current = record_with(
            {"experiment.new": 1.0, "experiment.shared": 1.0}, "b"
        )
        diff = diff_trajectory([previous], current)
        assert [d.phase for d in diff.deltas] == [
            "experiment.shared",
            "<total>",
        ]

    def test_negative_threshold_rejected(self):
        previous = record_with({"experiment.x": 1.0}, "a")
        with pytest.raises(ValueError):
            diff_trajectory(
                [previous], record_with({}, "b"), threshold=-0.1
            )


class TestBenchCli:
    """scripts/bench.py end-to-end against a scratch ledger."""

    @staticmethod
    def fake_workload(delay_s: float):
        def run(scale_name="tiny", seed=7, **meta):
            obs.reset()
            obs.set_enabled(True)
            with profile("experiment.fake_phase"):
                time.sleep(delay_s)
            return RunReport.capture()

        return run

    @staticmethod
    def history(cli, ledger, walls, host=None):
        """Append comparable bench records at the given phase walls."""
        for i, wall in enumerate(walls):
            hist = record_with(
                {"experiment.fake_phase": wall}, f"hist_{i}"
            )
            hist.meta.update(
                scale="micro",
                workers=0,
                host=host or cli.host_fingerprint(),
            )
            ledger.append(hist)

    def test_gate_trips_on_a_slow_run(self, tmp_path, monkeypatch):
        cli = load_cli()
        # The baseline claims the phase used to take 50ms; the stubbed
        # current run sleeps 150ms -> x3 slowdown -> non-zero exit.
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        self.history(cli, ledger, [0.05])
        monkeypatch.setattr(
            cli, "run_bench_workload", self.fake_workload(0.15)
        )
        argv = ["--scale", "micro", "--ledger", str(ledger.path)]
        assert cli.main([*argv, "--runid", "run_b"]) == 1
        assert cli.main([*argv, "--runid", "run_c", "--no-gate"]) == 0

    def test_first_run_has_no_gate(self, tmp_path, monkeypatch, capsys):
        cli = load_cli()
        monkeypatch.setattr(
            cli, "run_bench_workload", self.fake_workload(0.0)
        )
        monkeypatch.chdir(tmp_path)
        ledger_path = tmp_path / "ledger.jsonl"
        rc = cli.main(["--runid", "run_a", "--ledger", str(ledger_path)])
        assert rc == 0
        assert "gate skipped" in capsys.readouterr().out
        records = RunLedger(ledger_path).trajectory(kind="bench")
        assert [record.runid for record in records] == ["run_a"]
        assert bench_files(tmp_path, REPO_ROOT) == []

    def test_ledger_trajectory_gate_trips(self, tmp_path, monkeypatch):
        cli = load_cli()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        # Three comparable historical runs (same scale, workers and
        # host as the CLI invocation below) at ~50ms median.
        self.history(cli, ledger, [0.05, 0.055, 0.05])
        monkeypatch.setattr(
            cli, "run_bench_workload", self.fake_workload(0.15)
        )
        rc = cli.main(
            [
                "--scale",
                "micro",
                "--runid",
                "run_slow",
                "--ledger",
                str(ledger.path),
            ]
        )
        assert rc == 1
        # The slow run is still recorded: the ledger is the history,
        # the gate is advisory on top of it.
        records = ledger.trajectory(kind="bench")
        assert records[-1].runid == "run_slow"

    def test_other_host_is_not_a_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        cli = load_cli()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        # A much faster prior run, but measured on other hardware.
        self.history(cli, ledger, [0.05], host="elsewhere")
        monkeypatch.setattr(
            cli, "run_bench_workload", self.fake_workload(0.15)
        )
        argv = ["--scale", "micro", "--ledger", str(ledger.path)]
        rc = cli.main([*argv, "--runid", "run_b"])
        assert rc == 0
        assert "gate skipped" in capsys.readouterr().out
        assert ledger.load()[-1].meta["host"] == cli.host_fingerprint()

    def test_micro_run_records_counters(
        self, tmp_path, monkeypatch, capsys
    ):
        cli = load_cli()
        reports: list[RunReport] = []

        def keep_report(*args, **kwargs):
            reports.append(run_bench_workload(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_bench_workload", keep_report)
        monkeypatch.chdir(tmp_path)
        ledger_path = tmp_path / "ledger.jsonl"
        argv = ["--scale", "micro", "--ledger", str(ledger_path)]
        rc = cli.main([*argv, "--runid", "run_a"])
        assert rc == 0
        assert "gate skipped" in capsys.readouterr().out
        (record,) = RunLedger(ledger_path).load()
        counters = reports[0].metrics["counters"]
        for key in ("network.captures", "engine.organic_posts"):
            assert record.metrics[key] > 0
            assert record.metrics[key] == counters[key]
        assert any(name.startswith("experiment.") for name in record.phases)
        assert record.totals["wall_s"] > 0
        assert record.meta["scale"] == "micro"
        assert record.meta["host"] == cli.host_fingerprint()
        assert bench_files(tmp_path, REPO_ROOT) == []
