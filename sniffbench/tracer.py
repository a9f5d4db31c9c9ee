"""Spans around the public entry points of each ``repro`` layer.

The program has no spans at most of these boundaries, so the benchmark
installs them from outside: :meth:`Tracer.install` replaces each entry
point below with a wrapper that records a span (layer, name, start,
end, parent) and the layer's work counts, and :meth:`Tracer.uninstall`
puts the originals back.  Spans stay in memory until :meth:`dump`.

Layer → entry points:

* ``world``    ``build_population`` and ``build_engine``, as the
  experiment module calls them
* ``engine``   ``run_hour`` of each engine built while tracing
* ``monitor``  ``PseudoHoneypotMonitor.on_tweet``
* ``rest``     every public ``RestClient`` method
* ``select``   ``AttributeSelector.select``
* ``label``    ``GroundTruthLabeler.label``
* ``extract``  ``FeatureExtractor.extract`` and ``extract_batch``
* ``fit``      ``RandomForestClassifier.fit``
* ``infer``    ``CompiledForest.predict_proba``
* ``classify`` ``PseudoHoneypotDetector.classify``
* ``service``  ``SnifferService.ingest`` / ``drain`` and
  ``EventScheduler.run_until``
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from typing import Any

_MISSING = object()

#: Span fields, in the order each span list stores them.
LAYER, NAME, START, END, PARENT = range(5)

Hook = Callable[["Tracer", tuple, Any], None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        #: ``[layer, name, start, end, parent index or -1]``.
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        #: Live objects whose own counters are read at the end.
        self.extractors: dict[int, Any] = {}
        self.monitors: dict[int, Any] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def wrap(
        self, owner: object, attr: str, layer: str, after: Hook | None = None
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(tracer, args, result)`` runs on success to add the
        call's work counts; a raised exception is counted as
        ``<layer>.errors.<ExceptionType>`` and re-raised.
        """
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                counts[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                span[END] = clock()
            if after is not None:
                after(tracer, args, result)
            return result

        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every entry point listed in the module docstring."""
        import repro.core.experiment as experiment_module
        from repro.core.detector import PseudoHoneypotDetector
        from repro.core.monitor import PseudoHoneypotMonitor
        from repro.core.selection import AttributeSelector
        from repro.features.extractor import FeatureExtractor
        from repro.labeling.pipeline import GroundTruthLabeler
        from repro.ml.compiled import CompiledForest
        from repro.ml.forest import RandomForestClassifier
        from repro.service.scheduler import EventScheduler
        from repro.service.sniffer import SnifferService
        from repro.twittersim.api.rest import RestClient

        wrap = self.wrap
        wrap(experiment_module, "build_population", "world", _on_population)
        wrap(experiment_module, "build_engine", "world", _on_engine)
        wrap(PseudoHoneypotMonitor, "on_tweet", "monitor", _on_tweet)
        for attr, member in vars(RestClient).items():
            if not attr.startswith("_") and inspect.isfunction(member):
                wrap(RestClient, attr, "rest")
        wrap(AttributeSelector, "select", "select", _on_select)
        wrap(GroundTruthLabeler, "label", "label", _on_label)
        wrap(FeatureExtractor, "extract", "extract", _on_extract)
        wrap(FeatureExtractor, "extract_batch", "extract")
        wrap(RandomForestClassifier, "fit", "fit", _count_rows("fit"))
        wrap(CompiledForest, "predict_proba", "infer", _count_rows("infer"))
        wrap(
            PseudoHoneypotDetector,
            "classify",
            "classify",
            _count_rows("classify"),
        )
        wrap(SnifferService, "ingest", "service")
        wrap(SnifferService, "drain", "service")
        wrap(EventScheduler, "run_until", "service")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        spans = self.spans
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        covered = sum(
            min(span[END], end) - max(span[START], start)
            for span in self.spans
            if span[PARENT] < 0 and span[END] > start and span[START] < end
        )
        return _ratio(covered, end - start)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer counts, self times and ratios of this trace.

        ``<layer>.busy_s`` is the layer's self time: its spans minus
        the child spans of other layers they contain.
        """
        busy: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        spans = self.spans
        for span, own in zip(spans, self.self_times()):
            busy[span[LAYER]] += own
            parent = span[PARENT]
            if parent < 0 or spans[parent][LAYER] != span[LAYER]:
                calls[span[LAYER]] += 1
        counts = self.counts
        captures = sum(len(m.captured) for m in self.monitors.values())
        hits = sum(e.profile_cache_hits for e in self.extractors.values())
        misses = sum(
            e.profile_cache_misses for e in self.extractors.values()
        )
        return {
            "world.build_s": busy["world"],
            "world.accounts": counts["world.accounts"],
            "engine.hours": counts["engine.hours"],
            "engine.busy_s": busy["engine"],
            "engine.tweets": counts["engine.tweets"],
            "engine.tweets_per_s": _ratio(
                counts["engine.tweets"], busy["engine"]
            ),
            "monitor.offered": counts["monitor.offered"],
            "monitor.captures": captures,
            "monitor.capture_ratio": _ratio(
                captures, counts["monitor.offered"]
            ),
            "monitor.busy_s": busy["monitor"],
            "rest.calls": calls["rest"],
            "rest.busy_s": busy["rest"],
            "rest.rate_limited": counts["rest.errors.RateLimitError"],
            "select.calls": calls["select"],
            "select.busy_s": busy["select"],
            "select.fill_ratio": _ratio(
                counts["select.got"], counts["select.requested"]
            ),
            "label.tweets": counts["label.tweets"],
            "label.spams": counts["label.spams"],
            "label.busy_s": busy["label"],
            "extract.rows": counts["extract.rows"],
            "extract.busy_s": busy["extract"],
            "extract.rows_per_s": _ratio(
                counts["extract.rows"], busy["extract"]
            ),
            "extract.profile_hit_ratio": _ratio(hits, hits + misses),
            "fit.rows": counts["fit.rows"],
            "fit.busy_s": busy["fit"],
            "infer.calls": calls["infer"],
            "infer.rows": counts["infer.rows"],
            "infer.busy_s": busy["infer"],
            "classify.rows": counts["classify.rows"],
            "classify.busy_s": busy["classify"],
        }

    def dump(self, path: Path) -> None:
        """Write the spans as JSON, times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            [span[NAME], span[START] - origin, span[END] - origin,
             span[PARENT]]
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["name", "start_s", "end_s", "parent"],
                   "spans": rows}
        text = json.dumps(payload, separators=(",", ":"))
        # repro-lint: disable=RPL205 -- the benchmark's own trace file, written once at exit
        path.write_text(text)


# -- count hooks -----------------------------------------------------------


def _on_population(tracer: Tracer, args: tuple, population: Any) -> None:
    tracer.counts["world.accounts"] += len(population.order)


def _on_engine(tracer: Tracer, args: tuple, engine: Any) -> None:
    tracer.wrap(engine, "run_hour", "engine", _on_hour)


def _on_hour(tracer: Tracer, args: tuple, stats: Any) -> None:
    tracer.counts["engine.hours"] += 1
    tracer.counts["engine.tweets"] += stats.total_tweets


def _on_tweet(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["monitor.offered"] += 1
    monitor = args[0]
    tracer.monitors[id(monitor)] = monitor


def _on_select(tracer: Tracer, args: tuple, nodes: Any) -> None:
    tracer.counts["select.requested"] += args[1].total_requested
    tracer.counts["select.got"] += len(nodes)


def _on_label(tracer: Tracer, args: tuple, dataset: Any) -> None:
    tracer.counts["label.tweets"] += len(args[1])
    tracer.counts["label.spams"] += dataset.n_spams


def _on_extract(tracer: Tracer, args: tuple, row: Any) -> None:
    tracer.counts["extract.rows"] += 1
    extractor = args[0]
    tracer.extractors[id(extractor)] = extractor


def _count_rows(layer: str) -> Hook:
    key = f"{layer}.rows"

    def hook(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.counts[key] += len(args[1])

    return hook
