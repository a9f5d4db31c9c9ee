"""Service-mode health rules: queue saturation and cache-hit collapse.

Extends the PR 8 rule pack with the two degraded modes an always-on
deployment adds: the ingestion queue shedding load (overflow drops)
and the extractor's description-statistics memo thrashing (hit rate
collapsing, so every row recounts its profiles' descriptions).  Both
follow the engine's determinism contract — judged on sim-hour ticks,
reading event counts and non-creating registry lookups only.
"""

from __future__ import annotations

from ..obs.health import HealthContext, HealthRule, default_rules


def queue_saturation_rule(
    window: int = 1, min_dropped: int = 1
) -> HealthRule:
    """Ingestion overflow: the bounded queue refused arrivals.

    Every refused arrival emits one ``service.overflow`` event, so the
    windowed event count *is* the drop count.
    """

    def predicate(ctx: HealthContext) -> object:
        dropped = ctx.count("service.overflow")
        if dropped >= min_dropped:
            return {"dropped": dropped}
        return False

    return HealthRule(
        name="service.queue_saturation",
        severity="critical",
        predicate=predicate,
        window_hours=window,
        description=(
            f">= {min_dropped} ingestion drop(s) within {window}h: "
            "the bounded queue is shedding load"
        ),
    )


def cache_hit_collapse_rule(
    min_lookups: int = 2_000, floor: float = 0.1
) -> HealthRule:
    """Description-memo thrashing: hit rate below the floor.

    Judged on the cumulative ``features.profile_cache.*`` counters,
    which count the extractor's description-statistics memo (one
    lookup per sender and per known receiver).  A healthy stream
    revisits the same accounts constantly, and each account keeps one
    description, so a rate under ``floor`` after ``min_lookups``
    lookups means the memo is too small for the working set (or the
    stream churns accounts pathologically) and extraction recounts
    every description again.
    """

    def predicate(ctx: HealthContext) -> object:
        hits = ctx.counter("features.profile_cache.hits")
        misses = ctx.counter("features.profile_cache.misses")
        lookups = hits + misses
        if lookups < min_lookups:
            return False
        rate = hits / lookups
        if rate < floor:
            return {"hit_rate": round(rate, 4), "lookups": lookups}
        return False

    return HealthRule(
        name="service.cache_hit_collapse",
        severity="warn",
        predicate=predicate,
        window_hours=1,
        description=(
            f"description-memo hit rate under {floor:g} after "
            f"{min_lookups} lookups"
        ),
    )


def service_rules(
    include_defaults: bool = True,
) -> tuple[HealthRule, ...]:
    """The service watchdog pack (optionally atop the stock rules)."""
    extra = (queue_saturation_rule(), cache_hit_collapse_rule())
    if include_defaults:
        return tuple(default_rules()) + extra
    return extra


__all__ = [
    "cache_hit_collapse_rule",
    "queue_saturation_rule",
    "service_rules",
]
