"""Open-loop replay of a capture stream through ``SnifferService``.

One thread plays both the load generator and the service loop: for
each capture, in the order the service itself sorts them, it waits
until the capture is due, then calls ``ingest``, then
``scheduler.run_until(created_at)``, and stamps every verdict that
appeared in ``service.results``; ``drain`` scores the remainder.  The
generator never slows down for the service: a capture whose due time
has passed is sent at once, and how late it was sent is recorded.

Due times keep the stream's own ``created_at`` gaps, compressed so the
average offered rate is a fixed number of tweets per second; the
stream's shape, its hour-start bursts included, survives.  A
capture's latency runs from its due time to the moment its verdict is
seen.  Batching follows the service's virtual clock, never the wall
clock, so every pass yields the same verdicts at any rate.
"""

from __future__ import annotations

import copy
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.service import SnifferService
from repro.service.sniffer import DEFAULT_FLUSH_INTERVAL_S
from sniffbench.hostspeed import ReferenceClock, Timeline

#: Offered rate (tweets per second) at which latency is reported.
MID_RATE = 8_000.0

#: Latency limit on the 99th percentile for a rate to count as
#: sustained.
P99_LIMIT_MS = 250.0

#: How much the generator's lateness may grow from the first to the
#: last quarter of a pass (difference of the quarters' medians) before
#: the backlog counts as growing.
LATE_GROWTH_LIMIT_MS = 25.0

#: Scoring batch of the service under test, also the ``chunk_size`` of
#: the batch classify that its verdicts are checked against.
BATCH_SIZE = 256

#: Bisection steps of the sustained-rate search.
SEARCH_STEPS = 4

#: Ends of the sustained-rate search, as shares of the closed-loop
#: rate.
SEARCH_LOW = 0.75
SEARCH_HIGH = 1.25

#: Equal runs of captures a pass's wall is cut into, so that passes
#: can be compared stretch by stretch.
SEGMENTS = 16

#: Captures between probes of the host's speed in an open-loop pass.
PROBE_EVERY = 512


def percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(values)
    rank = min(len(ordered), max(1, int(np.ceil(q / 100.0 * len(ordered)))))
    return float(ordered[rank - 1])


def order_captures(captures: list) -> list:
    """Captures in the order both the service and classify score them."""
    order = np.argsort([c.tweet.created_at for c in captures])
    return [captures[i] for i in order]


def due_offsets(ordered: list, rate: float) -> np.ndarray:
    """Seconds after the pass start at which each capture is due.

    The ``created_at`` gaps are scaled so that ``len(ordered)``
    captures span ``len(ordered) / rate`` seconds.
    """
    created = np.array([c.tweet.created_at for c in ordered], dtype=float)
    created -= created[0]
    span = created[-1]
    if span <= 0:
        return np.zeros(len(ordered))
    return created * (len(ordered) / rate / span)


def _wait_until(deadline: float) -> None:
    """Block until ``time.perf_counter()`` reaches ``deadline``.

    Sleeps through long gaps and spins the last millisecond, since a
    sleep overshoots by more than the gaps between due captures.
    """
    remaining = deadline - time.perf_counter()
    if remaining > 0.002:
        threading.Event().wait(remaining - 0.001)
    while time.perf_counter() < deadline:
        pass


@dataclass
class StreamPass:
    """One replay of the capture stream through a fresh service."""

    #: Offered rate in tweets per reference second; None for the
    #: closed loop.
    rate: float | None
    start: float
    wall_s: float
    #: Wall of each of :data:`SEGMENTS` equal runs of captures, from
    #: the send of its first capture to the next run's (the last run
    #: ends when ``drain`` returns); probes left out.
    segment_s: np.ndarray
    #: The same segments in reference seconds (:mod:`.hostspeed`).
    segment_ref_s: np.ndarray
    #: Per capture, in send order: due → verdict seen (closed loop:
    #: send → verdict seen), in reference milliseconds (wall
    #: milliseconds unless the pass probed).
    latency_ms: np.ndarray
    #: Per capture, in send order: how long after its due time it was
    #: sent, in the milliseconds of ``latency_ms`` (all zero in the
    #: closed loop).
    late_ms: np.ndarray
    #: ``(tweet_id, is_spam, spam_probability)`` in scoring order.
    verdicts: list[tuple[int, bool, float]]
    sent_ids: list[int]
    ingested: int
    scored: int
    dropped: int
    in_flight: int
    batches: int
    batch_p50_ms: float
    batch_p99_ms: float
    cache_hits: int
    cache_misses: int
    queue_depth_max: int

    @property
    def p50_ms(self) -> float:
        return percentile(self.latency_ms, 50)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latency_ms, 99)

    @property
    def late_max_ms(self) -> float:
        return float(self.late_ms.max()) if len(self.late_ms) else 0.0

    @property
    def late_growth_ms(self) -> float:
        """Median lateness of the last quarter minus the first's."""
        quarter = max(1, len(self.late_ms) // 4)
        return float(
            np.median(self.late_ms[-quarter:])
            - np.median(self.late_ms[:quarter])
        )

    @property
    def sustained(self) -> bool:
        """p99 within the limit and no growing backlog."""
        return (
            self.p99_ms <= P99_LIMIT_MS
            and self.late_growth_ms <= LATE_GROWTH_LIMIT_MS
        )


def replay(
    detector,
    ordered: list,
    rate: float | None = None,
    flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
    probe: bool = False,
) -> StreamPass:
    """Replay ``ordered`` captures through a service on a copy of
    ``detector``, open-loop at ``rate`` tweets/s or closed-loop.

    The queue holds the whole stream, so nothing is dropped however
    far the service falls behind.

    With ``probe``, an open-loop pass runs on a
    :class:`.hostspeed.ReferenceClock` re-probed every
    :data:`PROBE_EVERY` captures: captures fall due, and latencies and
    lateness are read, in reference seconds, so the pass runs in slow
    motion while the host is slow.  The service batches on its virtual
    clock, so a slowed pass does the same work as a plain one.  A
    closed-loop pass with ``probe`` probes the host at each segment
    cut instead.
    """
    service = SnifferService(
        copy.deepcopy(detector),
        batch_size=BATCH_SIZE,
        queue_capacity=max(1, len(ordered)),
        flush_interval_s=flush_interval_s,
    )
    n = len(ordered)
    offsets = None if rate is None else due_offsets(ordered, rate)
    timeline = Timeline(probe=probe and offsets is None)
    reference = ReferenceClock(probe=probe and offsets is not None)
    cuts = np.linspace(0, n, SEGMENTS + 1).astype(int)[:-1].clip(max=n - 1)
    next_cut = iter([*cuts[1:], -1])
    cut_at = next(next_cut)
    sent = np.empty(n)
    seen = np.empty(n)
    results = service.results
    scheduler = service.scheduler
    queue = service.queue
    clock = time.perf_counter
    now = reference.now
    stamped = 0
    depth_max = 0
    timeline.cut("send0")
    start = clock()
    for i, capture in enumerate(ordered):
        if i == cut_at:
            timeline.cut(f"send{i}")
            cut_at = next(next_cut)
        if offsets is not None:
            if i % PROBE_EVERY == 0:
                reference.reprobe()
            _wait_until(reference.wall_at(offsets[i]))
        sent[i] = now()
        service.ingest(capture)
        scheduler.run_until(capture.tweet.created_at)
        depth_max = max(depth_max, queue.depth)
        if len(results) > stamped:
            seen[stamped : len(results)] = now()
            stamped = len(results)
    service.drain()
    seen[stamped:] = now()
    end = clock()
    timeline.cut("drained")
    due = sent if offsets is None else offsets
    stats = service.stats()
    return StreamPass(
        rate=rate,
        start=start,
        wall_s=end - start,
        segment_s=timeline.walls(),
        segment_ref_s=timeline.reference_s(),
        latency_ms=(seen - due) * 1000.0,
        late_ms=(sent - due) * 1000.0,
        verdicts=[
            (r.tweet_id, r.is_spam, r.spam_probability) for r in results
        ],
        sent_ids=[c.tweet.tweet_id for c in ordered],
        ingested=stats.ingested,
        scored=stats.scored,
        dropped=stats.dropped,
        in_flight=stats.in_flight,
        batches=stats.batches,
        batch_p50_ms=stats.p50_ms,
        batch_p99_ms=stats.p99_ms,
        cache_hits=stats.cache_hits,
        cache_misses=stats.cache_misses,
        queue_depth_max=depth_max,
    )


def max_sustained_rate(
    replay_at: Callable[[float], StreamPass], ceiling: float
) -> float:
    """The highest offered rate that :attr:`StreamPass.sustained` holds
    at, by bisection between :data:`SEARCH_LOW` and :data:`SEARCH_HIGH`
    times ``ceiling``, the closed-loop rate.

    ``replay_at(rate)`` runs one open-loop pass.  The backlog check
    binds near the closed-loop rate: above it the generator falls
    steadily behind.  Below the low end the search halves the rate
    until a pass is sustained.
    """
    good, bad = ceiling * SEARCH_LOW, ceiling * SEARCH_HIGH
    while not replay_at(good).sustained:
        good, bad = good / 2.0, good
        if good < 1.0:
            return 0.0
    for __ in range(SEARCH_STEPS):
        middle = (good + bad) / 2.0
        if replay_at(middle).sustained:
            good = middle
        else:
            bad = middle
    return good
