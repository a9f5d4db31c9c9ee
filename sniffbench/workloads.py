"""The benchmark's workloads, their checks, and their metrics.

* ``paper-small``: the paper's batch pipeline at the ``small`` preset
  (4k normal users, unsharded engine): warm-up, ground truth, labeling,
  forest fit, the full attribute plan, then classify.  Almost every
  layer does real work, and world build is a small share.
* ``sniffer-stream``: the always-on service.  Set-up is the
  ``small`` pipeline up to the full-plan run; the timed part replays
  its captures through ``SnifferService`` open-loop and closed-loop
  (:mod:`sniffbench.stream`).

Both workloads report the same end-to-end metrics, each measured on
what that workload's user waits for, and every time in reference
seconds (:mod:`sniffbench.hostspeed`):

``setup_s``        median time to build the starting state: the world
                   (``paper-small``), or world plus the whole pre-replay
                   pipeline (``sniffer-stream``)
``pipeline_s``     wall of the timed job: warm-up to the last phase
                   result (``paper-small``), or one closed-loop replay
                   of every capture (``sniffer-stream``); each segment
                   of it is the median over the run's passes
``peak_rss_mb``    the process's ``ru_maxrss``
``latency_*_ms``   p50 / p99 of a capture's wait for its verdict: from
                   the end of the plan hour that captured it to the end
                   of classify (``paper-small``), or from its due time
                   at the ``mid`` offered rate (``sniffer-stream``)
``max_rate_tps``   the highest tweet rate kept up with: platform
                   tweets per second of full-plan hour wall, or the
                   highest offered capture rate with p99 within 250 ms
                   and no growing backlog

All runs use ``workers=0``: outputs do not depend on the worker count,
and the parallel layer is left out of this benchmark.
"""

from __future__ import annotations

import copy
import gc
import math
import resource
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from repro.analysis.bench import workload_scale
from repro.analysis.session import SessionScale
from repro.core.detector import (
    ClassificationOutcome,
    PseudoHoneypotDetector,
)
from repro.core.experiment import NetworkRun, PseudoHoneypotExperiment
from repro.core.pge import pge_by_sample, ranking_payload
from repro.features.schema import N_FEATURES
from repro.labeling.pipeline import LabeledDataset
from repro.obs import stable_digest
from sniffbench import stream
from sniffbench.hostspeed import Timeline
from sniffbench.tracer import Tracer

WORKLOADS = ("paper-small", "sniffer-stream")

#: Pre-replay pipelines timed per ``sniffer-stream`` run; ``setup_s``
#: is their median.
STREAM_SETUPS = 2

clock = time.perf_counter


def rss_mb() -> float:
    """The process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scale_for(seed: int, size: str = "full") -> SessionScale:
    """The world and phase sizes both workloads run.

    ``size="tiny"`` shrinks them to a few seconds for the benchmark's
    self-tests; the metrics and checks stay the same.

    Raises:
        KeyError: unknown size.
    """
    if size == "full":
        return SessionScale.small(seed=seed)
    if size == "tiny":
        return workload_scale("micro", seed=seed)
    raise KeyError(f"unknown size {size!r}")


# -- checks ------------------------------------------------------------------


def label_problems(dataset: LabeledDataset) -> list[str]:
    """Checks that the labeled ground truth holds both classes."""
    if 0 < dataset.n_spams < dataset.n_tweets:
        return []
    return [
        f"labeled ground truth has {dataset.n_spams} spams of "
        f"{dataset.n_tweets} tweets; both classes are needed"
    ]


def verdict_problems(outcome, sweep) -> list[str]:
    """Checks that classify gave exactly one verdict per capture."""
    problems = []
    if len(outcome.is_spam) != sweep.n_captures:
        problems.append(
            f"{len(outcome.is_spam)} verdicts for {sweep.n_captures} captures"
        )
    verdict_ids = sorted(c.tweet.tweet_id for c in outcome.captures)
    if verdict_ids != sorted(c.tweet.tweet_id for c in sweep.captures):
        problems.append("verdicts are not one per captured tweet")
    if not set(np.unique(outcome.is_spam)) <= {0, 1}:
        problems.append("verdicts are not 0/1")
    return problems


def matrix_problems(X: np.ndarray, n_rows: int) -> list[str]:
    """Checks a feature matrix's shape and finiteness."""
    if X.shape != (n_rows, N_FEATURES):
        return [f"feature matrix {X.shape}, expected ({n_rows}, 58)"]
    if not np.isfinite(X).all():
        return ["feature matrix has non-finite values"]
    return []


def stream_problems(
    run: stream.StreamPass, reference: list[tuple[int, bool, float]]
) -> list[str]:
    """Checks one replay against the reference verdicts."""
    label = "closed" if run.rate is None else f"{run.rate:.0f}/s"
    problems = []
    if run.verdicts != reference:
        problems.append(f"{label}: verdicts differ from the reference")
    if [v[0] for v in run.verdicts] != run.sent_ids:
        problems.append(f"{label}: verdicts are not in send order")
    if run.ingested != run.scored + run.dropped or run.in_flight:
        problems.append(
            f"{label}: ingested {run.ingested} != scored {run.scored} "
            f"+ dropped {run.dropped} (in flight {run.in_flight})"
        )
    if run.dropped:
        problems.append(f"{label}: {run.dropped} tweets dropped")
    return problems


def classify_problems(detector, captures: list) -> list[str]:
    """Checks the service against batch classify on a detector copy.

    The two agree verdict for verdict when the service's batches are
    classify's chunks, that is when no flush deadline cuts a batch
    short; the check replays with the deadline out of reach.
    """
    service = stream.replay(
        detector, stream.order_captures(captures), flush_interval_s=math.inf
    )
    outcome = copy.deepcopy(detector).classify(
        captures, chunk_size=stream.BATCH_SIZE
    )
    batch = [
        (c.tweet.tweet_id, bool(spam))
        for c, spam in zip(outcome.captures, outcome.is_spam)
    ]
    online = [(v[0], v[1]) for v in service.verdicts]
    if online == batch:
        return []
    spams = sum(1 for __, spam in online if spam)
    return [
        f"service verdicts ({spams} spams) differ from classify's "
        f"({outcome.n_spams} spams)"
    ]


# -- the paper's phases ------------------------------------------------------


@dataclass
class Phases:
    """What the paper's phases produced on one world."""

    experiment: PseudoHoneypotExperiment
    #: Cut at the start and at every phase's end.
    timeline: Timeline
    rss_after_build_mb: float
    collection: NetworkRun
    dataset: LabeledDataset
    detector: PseudoHoneypotDetector
    sweep: NetworkRun
    outcome: ClassificationOutcome | None


def run_phases(
    scale: SessionScale, classify: bool, timeline: Timeline | None = None
) -> Phases:
    """Build a world, then run warm-up, ground truth, labeling, fit, the
    full plan and, if asked, classify, cutting ``timeline`` at the
    start and after each phase."""
    if timeline is None:
        timeline = Timeline(probe=False)
    timeline.cut("start")
    experiment = PseudoHoneypotExperiment(
        scale.sim, candidate_pool=scale.candidate_pool, workers=0
    )
    timeline.cut("setup")
    rss_after_build = rss_mb()
    experiment.warm_up(scale.warmup_hours)
    timeline.cut("warm_up")
    collection = experiment.collect_ground_truth(
        hours=scale.gt_hours,
        n_targets=scale.gt_targets,
        per_value=scale.gt_per_value,
    )
    timeline.cut("ground_truth")
    dataset = experiment.label_ground_truth(collection)
    timeline.cut("label")
    detector = experiment.train_detector(collection, dataset)
    timeline.cut("fit")
    sweep = experiment.run_full_network(
        hours=scale.main_hours, per_value=scale.main_per_value
    )
    timeline.cut("full_plan")
    outcome = None
    if classify:
        outcome = experiment.classify(detector, sweep)
        timeline.cut("classify")
    return Phases(
        experiment=experiment,
        timeline=timeline,
        rss_after_build_mb=rss_after_build,
        collection=collection,
        dataset=dataset,
        detector=detector,
        sweep=sweep,
        outcome=outcome,
    )


# -- paper-small -------------------------------------------------------------


@dataclass
class PaperPass:
    """One fresh world run through the paper's phases.

    The pass's wall is cut into segments at every phase end and at the
    start and end of every engine hour and network hour.  The work is
    the same on every pass of a seed, so the segments line up across
    passes and can be settled one by one (:func:`settle`).
    """

    start: float
    end: float
    #: Name of each cut, in time order, from ``start`` to the end of
    #: classify; ``hour<k>.end`` is the end of the k-th network hour.
    cuts: list[str]
    #: Wall of each segment between consecutive cuts, in seconds.
    wall_segment_s: np.ndarray
    #: The same segments in reference seconds (:mod:`.hostspeed`).
    segment_s: np.ndarray
    #: Per capture, the full-plan hour (from 0) that captured it.
    capture_hours: np.ndarray
    #: The full plan's network hours, as ``k`` of the ``hour<k>`` cuts.
    plan_hours: range
    #: Platform tweets posted during the full plan's hours.
    plan_tweets: int
    rss_after_build_mb: float
    verdicts: int
    digest: str
    problems: list[str]

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def figures(self, segment_s: np.ndarray) -> dict[str, float]:
        """``setup_s``, ``pipeline_s``, the capture latencies and the
        plan's tweet rate, with ``segment_s`` laid out on this pass's
        cuts."""
        at = dict(zip(self.cuts, np.cumsum(np.append(0.0, segment_s))))
        hours = self.plan_hours
        hour_end = np.array([at[f"hour{h}.end"] for h in hours])
        plan_s = sum(at[f"hour{h}.end"] - at[f"hour{h}.start"] for h in hours)
        # A capture is in hand when the plan hour that made it ends, and
        # its verdict exists when classify ends.
        waits = (at["classify"] - hour_end[self.capture_hours]) * 1000.0
        return {
            "setup_s": at["setup"],
            "pipeline_s": at["classify"] - at["setup"],
            "latency_p50_ms": stream.percentile(waits, 50),
            "latency_p99_ms": stream.percentile(waits, 99),
            "max_rate_tps": self.plan_tweets / plan_s if plan_s else 0.0,
        }


def settle(segments: list[np.ndarray]) -> np.ndarray:
    """Per segment, the median of its times over the passes.

    A burst of host slowness that the probes do not fully correct hits
    the segments it overlaps on one pass, and seldom the same segments
    on most passes, so a per-segment median keeps it out of the total
    where a median of whole passes would not.
    """
    return np.median(np.vstack(segments), axis=0)


def paper_pass(
    scale: SessionScale, deep_checks: bool, probe: bool = True
) -> PaperPass:
    """Build a fresh world and run the paper's phases on it.

    ``deep_checks`` adds the costlier checks (re-extracting the full
    plan's feature matrix), after the timed region.  ``probe=False``
    cuts the pass without probing the host (traced runs).
    """
    # Each pass starts from a heap without the previous world's garbage.
    gc.collect()
    timeline = Timeline(probe)
    timeline.wrap_steps()
    try:
        run = run_phases(scale, classify=True, timeline=timeline)
    finally:
        timeline.uninstall()
    sweep, outcome = run.sweep, run.outcome
    network_hours = sum(
        1 for cut in timeline.names if cut.startswith("hour")
    ) // 2
    first_plan_clock = scale.warmup_hours + scale.gt_hours
    plan_stats = run.experiment.engine.hour_stats[first_plan_clock:]
    capture_hours = np.array(
        [c.hour - first_plan_clock for c in sweep.captures], dtype=int
    )
    problems = label_problems(run.dataset)
    problems += verdict_problems(outcome, sweep)
    if len(capture_hours) and not (
        0 <= capture_hours.min() and capture_hours.max() < scale.main_hours
    ):
        problems.append("a capture is stamped outside the plan's hours")
        capture_hours = np.clip(capture_hours, 0, scale.main_hours - 1)
    if deep_checks:
        X = run.detector.extract_features(sweep.captures)
        problems += matrix_problems(X, sweep.n_captures)
    digest = stable_digest(
        {
            "verdicts": [
                [c.tweet.tweet_id, int(spam)]
                for c, spam in zip(outcome.captures, outcome.is_spam)
            ],
            "table6": ranking_payload(pge_by_sample(outcome, sweep.exposure)),
        }
    )
    return PaperPass(
        start=timeline.start,
        end=timeline.end,
        cuts=timeline.names,
        wall_segment_s=timeline.walls(),
        segment_s=timeline.reference_s(),
        capture_hours=capture_hours,
        plan_hours=range(network_hours - scale.main_hours, network_hours),
        plan_tweets=sum(s.total_tweets for s in plan_stats),
        rss_after_build_mb=run.rss_after_build_mb,
        verdicts=len(outcome.is_spam),
        digest=digest,
        problems=problems,
    )


# -- running a workload ------------------------------------------------------


@dataclass
class Result:
    """What one benchmark run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    #: Per-pass samples and digests, printed before the result line.
    info: dict[str, object]
    #: The spans of a traced run.
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.problems


def run_paper(seed: int, seconds: float, size: str, trace: bool) -> Result:
    scale = scale_for(seed, size)
    tracer = None
    if trace:
        # Traced passes are compared with plain ones, so neither probes.
        tracer = Tracer()
        first = paper_pass(scale, deep_checks=True, probe=False)
        tracer.install()
        try:
            traced = paper_pass(scale, deep_checks=False, probe=False)
        finally:
            tracer.uninstall()
        last = paper_pass(scale, deep_checks=False, probe=False)
        passes = [first, traced, last]
    else:
        # At least two passes, so set-up time is always a median.
        begin = clock()
        passes = []
        while len(passes) < 2 or clock() - begin < seconds:
            passes.append(paper_pass(scale, deep_checks=not passes))
    problems: list[str] = []
    failed = 0
    for index, run in enumerate(passes):
        if run.digest != passes[0].digest:
            run.problems.append(
                f"output digest {run.digest} differs from pass 0's "
                f"{passes[0].digest}"
            )
        if run.cuts != passes[0].cuts:
            run.problems.append("its phases and hours differ from pass 0's")
        if run.problems:
            failed += run.verdicts
            problems += [f"pass {index}: {p}" for p in run.problems]
    aligned = [p for p in passes if p.cuts == passes[0].cuts]
    own = [p.figures(p.segment_s) for p in passes]
    wall = [p.figures(p.wall_segment_s) for p in passes]
    info: dict[str, object] = {
        "passes": len(passes),
        "digest": passes[0].digest,
        "segments": len(passes[0].segment_s),
        "setup_s": [round(f["setup_s"], 4) for f in own],
        "pipeline_s": [round(f["pipeline_s"], 4) for f in own],
        "wall_setup_s": [round(f["setup_s"], 4) for f in wall],
        "wall_pipeline_s": [round(f["pipeline_s"], 4) for f in wall],
    }
    if tracer is not None:
        metrics = tracer.layer_metrics()
        metrics.update(_no_service())
        metrics["world.rss_mb"] = first.rss_after_build_mb
        metrics["trace.coverage"] = tracer.coverage(traced.start, traced.end)
        # The first pass runs cold (fresh pages, first calls), so the
        # untraced baseline is the pass after the traced one.
        metrics["trace.overhead"] = traced.wall_s / last.wall_s
    else:
        metrics = {
            **passes[0].figures(settle([p.segment_s for p in aligned])),
            "setup_s": median([f["setup_s"] for f in own]),
            "peak_rss_mb": rss_mb(),
        }
        info["wall"] = passes[0].figures(
            settle([p.wall_segment_s for p in aligned])
        )
    attempted = sum(run.verdicts for run in passes)
    return Result(metrics, attempted, failed, problems, info, tracer)


def _no_service() -> dict[str, float]:
    return {
        "service.batches": 0,
        "service.batch_p50_ms": 0.0,
        "service.batch_p99_ms": 0.0,
        "service.dropped": 0,
        "service.queue_depth_max": 0,
        "service.cache_hit_ratio": 0.0,
        "generator.late_max_ms": 0.0,
    }


def _service_metrics(run: stream.StreamPass) -> dict[str, float]:
    lookups = run.cache_hits + run.cache_misses
    return {
        "service.batches": run.batches,
        "service.batch_p50_ms": run.batch_p50_ms,
        "service.batch_p99_ms": run.batch_p99_ms,
        "service.dropped": run.dropped,
        "service.queue_depth_max": run.queue_depth_max,
        "service.cache_hit_ratio": (
            run.cache_hits / lookups if lookups else 0.0
        ),
        "generator.late_max_ms": run.late_max_ms,
    }


def run_stream(seed: int, seconds: float, size: str, trace: bool) -> Result:
    scale = scale_for(seed, size)
    tracer = Tracer() if trace else None
    setup_s: list[float] = []
    wall_setup_s: list[float] = []
    for __ in range(1 if trace else STREAM_SETUPS):
        # Only the last world stays alive, as in a deployment.
        setup = None
        gc.collect()
        timeline = Timeline(probe=not trace)
        timeline.wrap_steps()
        if tracer is not None:
            tracer.install()
        try:
            setup = run_phases(scale, classify=False, timeline=timeline)
        finally:
            if tracer is not None:
                tracer.uninstall()
            timeline.uninstall()
        setup_s.append(float(timeline.reference_s().sum()))
        wall_setup_s.append(float(timeline.walls().sum()))
    # The replays allocate little next to the world the set-up left
    # behind; freezing that heap keeps full garbage collections from
    # rescanning it at random points of the timed passes.
    gc.collect()
    gc.freeze()
    problems = label_problems(setup.dataset)
    captures = setup.sweep.captures
    ordered = stream.order_captures(captures)
    detector = setup.detector
    # The first pass warms process-wide state (imports, compiled
    # forest) and gives the reference verdicts every later pass must
    # reproduce.
    first = stream.replay(detector, ordered)
    reference = first.verdicts
    problems += classify_problems(detector, captures)
    closed: list[np.ndarray] = []
    wall_closed: list[float] = []
    p50: list[float] = []
    p99: list[float] = []
    rates: list[float] = []
    attempted = failed = 0

    def replay(rate: float | None = None) -> stream.StreamPass:
        """One checked pass, in reference seconds unless traced; only
        its numbers outlive it, so the peak RSS does not grow with the
        number of passes."""
        nonlocal attempted, failed
        run = stream.replay(
            detector,
            ordered,
            rate,
            probe=not trace,
        )
        found = stream_problems(run, reference)
        problems.extend(found)
        attempted += len(ordered)
        failed += len(ordered) if found else run.dropped + run.in_flight
        return run

    if tracer is not None:
        before = replay().wall_s
        tracer.install()
        try:
            traced = replay()
            mid = replay(stream.MID_RATE)
        finally:
            tracer.uninstall()
        after = replay().wall_s
    else:
        begin = clock()
        while not rates or clock() - begin < seconds:
            for rate in (None, stream.MID_RATE, None):
                run = replay(rate)
                if rate is None:
                    closed.append(run.segment_ref_s)
                    wall_closed.append(float(run.segment_s.sum()))
                else:
                    p50.append(run.p50_ms)
                    p99.append(run.p99_ms)
                del run
            ceiling = len(ordered) / float(settle(closed).sum())
            rates.append(stream.max_sustained_rate(replay, ceiling))
    info: dict[str, object] = {
        "captures": len(ordered),
        "batches": first.batches,
        "passes": attempted // max(1, len(ordered)),
        "digest": stable_digest([list(v) for v in reference]),
        "spams": sum(1 for v in reference if v[1]),
        "setup_s": [round(t, 4) for t in setup_s],
        "wall_setup_s": [round(t, 4) for t in wall_setup_s],
        "closed_s": [round(float(c.sum()), 4) for c in closed],
        "wall_closed_s": [round(w, 4) for w in wall_closed],
        "mid_p99_ms": [round(v, 3) for v in p99],
        "max_rate_tps": [round(r, 1) for r in rates],
    }
    if tracer is not None:
        metrics = tracer.layer_metrics()
        metrics.update(_service_metrics(mid))
        metrics["world.rss_mb"] = setup.rss_after_build_mb
        metrics["trace.coverage"] = tracer.coverage(
            traced.start, traced.start + traced.wall_s
        )
        metrics["trace.overhead"] = traced.wall_s / ((before + after) / 2.0)
    else:
        metrics = {
            "setup_s": median(setup_s),
            "pipeline_s": float(settle(closed).sum()),
            "peak_rss_mb": rss_mb(),
            "latency_p50_ms": median(p50),
            "latency_p99_ms": median(p99),
            "max_rate_tps": median(rates),
        }
    return Result(metrics, attempted, failed, problems, info, tracer)


def run_workload(
    workload: str, seed: int, seconds: float, size: str, trace: bool
) -> Result:
    """Run one workload and return its metrics and check results.

    Raises:
        KeyError: unknown workload or size.
    """
    if workload == "paper-small":
        return run_paper(seed, seconds, size, trace)
    if workload == "sniffer-stream":
        return run_stream(seed, seconds, size, trace)
    raise KeyError(f"unknown workload {workload!r}")
