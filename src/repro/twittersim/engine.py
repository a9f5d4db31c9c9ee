"""Event-driven platform engine.

The engine advances the world one hour at a time.  Per hour it:

1. delivers organic replies scheduled by earlier posts;
2. emits organic posts (Poisson per-account, rate = statuses/day / 24),
   with hashtags drawn from the author's interests and trending topics
   from the platform topic process — drawn column-wise per account-range
   shard (:mod:`repro.twittersim.sharded`);
3. schedules organic replies to fresh posts (reply mass grows with the
   author's follower count; delays are log-normal, median ~20 min);
4. emits spam mentions: campaign members, lone spammers, and
   compromised relays pick victims among recently active accounts with
   probability proportional to the :class:`SpammerTasteModel` score —
   the hidden preference the pseudo-honeypot pipeline must rediscover;
5. runs the platform suspension process (spammers are suspended at a
   constant hazard; campaigns may respawn members);
6. publishes the hour once, as one time-ordered
   :class:`~repro.twittersim.batch.TweetBatch`, to the subscribers (the
   streaming API's filters, per-tweet taps) and to the rolling
   read-side windows of the REST API.

Tweets are finalized column-wise, phase by phase — replies due at the
start of the hour, organic posts in shard order, replies due later in
the hour, spam — and each phase's snowflake ids, post-time
``statuses_count`` and last-post / last-mentioned times equal those of
finalizing its tweets one at a time, in order.  A
:class:`~repro.twittersim.entities.Tweet` object is built only when
something reads it.

Randomness comes from two places, both seeded: the population's
generator (the *parent stream*: sessions, post counts, replies, spam,
suspension, favourites) and one ``default_rng([seed, hour, shard])``
substream per shard-hour for the organic posts' own variables.  The
shard count (``SimulationConfig.engine_shards``) is part of the world
definition; the worker count that runs the shards is not, so a run is
bit-identical at any worker count.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterable, Protocol

import numpy as np

from ..obs import get_event_stream, get_registry, resources
from ..parallel import parallel_map
from . import behavior
from .batch import TweetBatch, TweetWindow
from .campaigns import SpammerTasteModel
from .clock import SECONDS_PER_HOUR, SimClock
from .entities import Tweet, TweetKind, TweetSource
from .hashtags import category_of
from .ids import SnowflakeGenerator
from .population import AccountKind, Population
from .sharded import ShardTask, emit_shard
from .text import TextGenerator
from .trending import DEFAULT_TOPICS, TopicProcess, TrendingTracker

TweetCallback = Callable[[Tweet], None]


class BatchSubscriber(Protocol):
    """A consumer of the engine's one publication per hour.

    ``select`` returns the ascending rows it wants from the batch
    (``None`` for all of them); the engine then calls ``deliver`` per
    selected row, in time order, interleaving subscribers per tweet in
    registration order as a per-tweet fan-out would.
    """

    def select(self, batch: TweetBatch) -> np.ndarray | None: ...

    def deliver(self, batch: TweetBatch, i: int) -> None: ...


class _TweetTap:
    """A per-tweet callback, adapted to the batch publication."""

    __slots__ = ("callback",)

    def __init__(self, callback: TweetCallback) -> None:
        self.callback = callback

    def select(self, batch: TweetBatch) -> None:
        batch.tweets()
        return None

    def deliver(self, batch: TweetBatch, i: int) -> None:
        self.callback(batch.tweet(i))

log = logging.getLogger("repro.twittersim.engine")


@dataclass(order=True)
class _PendingReply:
    """A scheduled organic reply, ordered by delivery time."""

    deliver_at: float
    replier_id: int = field(compare=False)
    target_id: int = field(compare=False)
    target_created_at: float = field(compare=False)
    target_row: int = field(compare=False)
    target_name: str = field(compare=False)


@dataclass
class _Posts:
    """Organic posts of one hour, in finalize order (victim anchors)."""

    rows: np.ndarray
    created_at: np.ndarray
    tweet_id: np.ndarray
    hashtags: list[tuple[str, ...]]
    topic: list[str | None]

    def tail(self, start: int) -> "_Posts":
        return _Posts(
            self.rows[start:],
            self.created_at[start:],
            self.tweet_id[start:],
            self.hashtags[start:],
            self.topic[start:],
        )


class _HourTweets:
    """One hour's tweet columns as lists, in finalize order.

    Phases append rows, then :meth:`TwitterEngine._finalize` issues
    their ids and post-time ``statuses_count`` as one array per phase.
    """

    __slots__ = (
        "author",
        "created_at",
        "text",
        "kind",
        "source",
        "hashtags",
        "topic",
        "mention",
        "reply_to_id",
        "reply_to_created_at",
        "tweet_id",
        "statuses_count",
    )

    def __init__(self) -> None:
        self.author: list[int] = []
        self.created_at: list[float] = []
        self.text: list[str] = []
        self.kind: list[TweetKind] = []
        self.source: list[TweetSource] = []
        self.hashtags: list[tuple[str, ...]] = []
        self.topic: list[str | None] = []
        self.mention: list[int] = []
        self.reply_to_id: list[int] = []
        self.reply_to_created_at: list[float] = []
        self.tweet_id: list[np.ndarray] = []
        self.statuses_count: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.author)

    def add_reaction(
        self,
        author: int,
        created_at: float,
        text: str,
        kind: TweetKind,
        source: TweetSource,
        mention: int,
        reply_to_id: int,
        reply_to_created_at: float,
    ) -> None:
        """Append a reply or spam mention (no hashtags, no topic)."""
        self.author.append(author)
        self.created_at.append(created_at)
        self.text.append(text)
        self.kind.append(kind)
        self.source.append(source)
        self.hashtags.append(())
        self.topic.append(None)
        self.mention.append(mention)
        self.reply_to_id.append(reply_to_id)
        self.reply_to_created_at.append(reply_to_created_at)


def _occurrence_rank(rows: np.ndarray) -> np.ndarray:
    """Per element, how many earlier elements carry the same row."""
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    n = len(rows)
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    run_start = np.repeat(starts, np.diff(np.r_[starts, n]))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - run_start
    return rank


def _last_occurrence(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows (ascending) and the index of each one's last use.

    Fancy assignment with repeated indices has no defined write order,
    so "last one wins" writes pick their index explicitly.
    """
    distinct, first_from_end = np.unique(rows[::-1], return_index=True)
    return distinct, len(rows) - 1 - first_from_end


@dataclass
class HourStats:
    """Aggregate counters for one simulated hour."""

    hour: int
    organic_posts: int = 0
    organic_replies: int = 0
    spam_mentions: int = 0
    suspensions: int = 0

    @property
    def total_tweets(self) -> int:
        return self.organic_posts + self.organic_replies + self.spam_mentions


class TwitterEngine:
    """The synthetic platform: population + activity + moderation.

    Args:
        population: the world; ``config.engine_shards`` sets how many
            account-range shards draw the organic posts.
        taste: the spammers' hidden victim preference.
        topics: the platform's trending-topic vocabulary.
        workers: pool size for the shard fan-out; ``None`` defers to
            the ambient :func:`repro.parallel.resolve_workers` rule
            and 0 forces in-process execution.  Identical output at
            every worker count.
    """

    #: How many hours a post stays eligible as a spam-victim anchor.
    RECENT_POST_HOURS = 2

    #: Candidate sample size per spam victim selection.
    VICTIM_CANDIDATES = 48

    #: Rolling recent-tweet index horizon for the REST search endpoint.
    SEARCH_INDEX_HOURS = 24

    #: Hard cap on the recent-tweet index size.
    SEARCH_INDEX_CAP = 120_000

    #: Tweets kept per user timeline (newest last).
    TIMELINE_LENGTH = 5

    def __init__(
        self,
        population: Population,
        taste: SpammerTasteModel | None = None,
        topics: tuple[str, ...] = DEFAULT_TOPICS,
        workers: int | None = None,
    ) -> None:
        self.population = population
        self.n_shards = population.config.engine_shards
        self.workers = workers
        self.clock = SimClock()
        self.taste = taste or SpammerTasteModel()
        self.rng = population.rng
        self.snowflake = SnowflakeGenerator()
        self.text: TextGenerator = population.text
        self.topic_process = TopicProcess(topics, self.rng)
        self.trending = TrendingTracker()
        self._subscribers: list[BatchSubscriber] = []
        #: Installed chaos-harness hook (see install_fault_injector).
        self.fault_injector = None
        self._pending_replies: list[_PendingReply] = []
        #: Organic posts still eligible as spam-victim anchors.
        self._recent_posts: deque[_Posts] = deque()
        #: Published batches still (partly) inside the search window,
        #: whose first live tweet has publish sequence ``_window_lo``.
        self._window: deque[TweetBatch] = deque()
        self._window_lo = 0
        #: Tweets published so far (the next batch's ``seq0``).
        self._published = 0
        #: user id -> ``(batch, row)`` refs of its newest tweets.
        self._timelines: dict[int, deque[tuple[TweetBatch, int]]] = {}
        self.hour_stats: list[HourStats] = []
        # Trending classification sets, refreshed each hour.
        self._trending_up: set[str] = set()
        self._trending_down: set[str] = set()
        self._popular: set[str] = set()
        # Compromised relays are fixed at build time (no later path
        # flips an account to COMPROMISED), so resolve them once in
        # ground-truth insertion order instead of scanning the whole
        # account_kind dict every hour.
        # repro-lint: disable=RPL501 -- init-time scan, runs once per world
        self._compromised_uids = [
            uid
            for uid, kind in population.truth.account_kind.items()
            if kind is AccountKind.COMPROMISED
        ]
        # Burst-session state: users alternate active sessions and
        # dormancy (Section III-D portability rationale).  Initialized
        # at the stationary on-fraction.
        config = population.config
        self._session_on = (
            self.rng.random(len(population.order))
            < config.session_on_fraction
        )
        # Hot-path instruments, resolved once (registry.reset() keeps
        # instrument identity, so these stay live across test resets).
        registry = get_registry()
        self._m_posts = registry.counter("engine.organic_posts")
        self._m_replies = registry.counter("engine.organic_replies")
        self._m_spam = registry.counter("engine.spam_mentions")
        self._m_suspensions = registry.counter("engine.suspensions")
        self._m_hours = registry.counter("engine.hours")
        self._m_spam_rate = registry.gauge("engine.spam_rate")
        self._m_hour_seconds = registry.histogram("engine.hour_seconds")
        self._m_hour_tweets = registry.histogram("engine.hour_tweets")
        self._events = get_event_stream()
        self._follow_index = None
        if config.use_follow_graph:
            from .graph import FollowGraphIndex, build_follow_graph

            self._follow_index = FollowGraphIndex(
                build_follow_graph(
                    population,
                    mean_out_degree=config.follow_graph_mean_degree,
                    seed=config.seed + 0xF0110,
                )
            )

    # ------------------------------------------------------------------
    # Subscription and read-side indexes
    # ------------------------------------------------------------------

    def subscribe(self, callback: TweetCallback) -> None:
        """Register a per-tweet firehose callback, fed in time order."""
        self._subscribers.append(_TweetTap(callback))

    def unsubscribe(self, callback: TweetCallback) -> None:
        """Remove a per-tweet firehose callback."""
        for subscriber in self._subscribers:
            if isinstance(subscriber, _TweetTap) and (
                subscriber.callback == callback
            ):
                self._subscribers.remove(subscriber)
                return
        raise ValueError("callback is not subscribed")

    def attach(self, subscriber: BatchSubscriber) -> None:
        """Register a batch subscriber (used by the streaming API)."""
        self._subscribers.append(subscriber)

    def detach(self, subscriber: BatchSubscriber) -> None:
        """Remove a batch subscriber."""
        self._subscribers.remove(subscriber)

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this world.

        Newly opened filtered streams and the gated REST endpoints
        consult the injector, and :meth:`run_hour` calls its
        ``begin_hour``/``end_hour`` hooks.  The injector draws from its
        own generator, so installing one with an empty plan leaves the
        run byte-identical to an uninstrumented one.
        """
        self.fault_injector = injector

    def recent_window(self, limit: int | None = None) -> TweetWindow:
        """The newest ``limit`` tweets (all retained when omitted) of
        the rolling search window, as batch slices."""
        hi = self._published
        lo = self._window_lo
        if limit is not None:
            lo = max(lo, hi - limit)
        segments = []
        for batch in self._window:
            start = max(0, lo - batch.seq0)
            if start < len(batch):
                segments.append((batch, start, len(batch)))
        return TweetWindow(self, lo, hi, tuple(segments))

    def recent_tweets(self) -> Iterable[Tweet]:
        """Recent tweets retained for the REST search endpoint."""
        return iter(self.recent_window().tweets())

    def user_timeline(self, user_id: int) -> list[Tweet]:
        """The last few tweets authored by a user (newest last)."""
        refs = self._timelines.get(user_id, ())
        return [batch.tweet(i) for batch, i in refs]

    def latest_post_time(self, user_id: int) -> float | None:
        """When the newest tweet of a user's timeline was posted."""
        refs = self._timelines.get(user_id)
        if not refs:
            return None
        batch, i = refs[-1]
        return batch.created_at.item(i)

    def trending_status_of(self, topic: str | None) -> str:
        """Classify a topic as trending_up/trending_down/popular/none."""
        if topic is None:
            return "none"
        if topic in self._trending_up:
            return "trending_up"
        if topic in self._trending_down:
            return "trending_down"
        if topic in self._popular:
            return "popular"
        return "none"

    def trending_sets(self) -> dict[str, set[str]]:
        """Current trending classification (copied)."""
        return {
            "trending_up": set(self._trending_up),
            "trending_down": set(self._trending_down),
            "popular": set(self._popular),
        }

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run_hours(self, hours: int) -> list[HourStats]:
        """Simulate ``hours`` consecutive hours; return their stats."""
        return [self.run_hour() for __ in range(hours)]

    def run_hour(self) -> HourStats:
        """Simulate one hour of platform activity."""
        wall_start = time.perf_counter()
        hour = self.clock.hour
        t0 = self.clock.now
        t_end = t0 + SECONDS_PER_HOUR
        stats = HourStats(hour=hour)
        if self.fault_injector is not None:
            self.fault_injector.begin_hour(self)
        self._refresh_trending(hour)

        tweets = _HourTweets()
        self._deliver_due_replies(t_end, stats, tweets)
        self._finalize(tweets, 0)
        posts = self._emit_organic_posts(t0, t_end, hour, stats, tweets)
        self._recent_posts.append(posts)
        self._schedule_replies(posts)
        # Replies scheduled for this very hour should still land in it.
        start = len(tweets)
        self._deliver_due_replies(t_end, stats, tweets)
        self._finalize(tweets, start)
        start = len(tweets)
        self._emit_spam(t0, t_end, stats, tweets)
        self._finalize(tweets, start, spam=True)
        batch = self._assemble(tweets)
        self._grow_profile_counters()
        stats.suspensions = self._run_suspension()

        self._index_batch(batch)
        self._publish(batch)

        if self.fault_injector is not None:
            self.fault_injector.end_hour(self)
        self._expire_recent_posts(t_end)
        self.clock.advance_to(t_end)
        self.hour_stats.append(stats)
        self._record_hour_metrics(stats, time.perf_counter() - wall_start)
        return stats

    def _record_hour_metrics(self, stats: HourStats, elapsed: float) -> None:
        """Publish one hour's :class:`HourStats` to the registry."""
        self._m_hours.inc()
        self._m_posts.inc(stats.organic_posts)
        self._m_replies.inc(stats.organic_replies)
        self._m_spam.inc(stats.spam_mentions)
        self._m_suspensions.inc(stats.suspensions)
        self._m_spam_rate.set(
            stats.spam_mentions / stats.total_tweets
            if stats.total_tweets
            else 0.0
        )
        self._m_hour_seconds.observe(elapsed)
        self._m_hour_tweets.observe(stats.total_tweets)
        self._events.emit(
            "engine.hour_completed",
            hour=stats.hour,
            tweets=stats.total_tweets,
            organic_posts=stats.organic_posts,
            organic_replies=stats.organic_replies,
            spam_mentions=stats.spam_mentions,
            suspensions=stats.suspensions,
            wall_s=round(elapsed, 6),
            # Events never enter byte-stable report artifacts, so a
            # live RSS reading here is free of determinism concerns.
            rss_kb=resources.sample().max_rss_kb,
        )
        log.debug(
            "hour %d: %d tweets (%d posts, %d replies, %d spam), "
            "%d suspensions, %.3fs",
            stats.hour,
            stats.total_tweets,
            stats.organic_posts,
            stats.organic_replies,
            stats.spam_mentions,
            stats.suspensions,
            elapsed,
        )

    # ------------------------------------------------------------------
    # Hour phases
    # ------------------------------------------------------------------

    def _refresh_trending(self, hour: int) -> None:
        if hour == 0:
            return
        self._trending_up = set(self.trending.top_trending_up(hour - 1))
        self._trending_down = set(self.trending.top_trending_down(hour - 1))
        popular = set(self.trending.top_popular(hour - 1))
        # Popular is the residual class: stable high volume that is not
        # currently surging or collapsing.
        self._popular = popular - self._trending_up - self._trending_down

    def _update_sessions(self) -> np.ndarray:
        """Advance the per-user burst-session Markov chain one hour.

        P(on->off) = 1/session_mean_hours; P(off->on) chosen so the
        stationary on-fraction equals the configured value.  Effective
        posting rate while on is scaled by 1/on_fraction, preserving
        each user's long-run average rate.
        """
        pop = self.population
        config = pop.config
        n = len(pop.order)
        if len(self._session_on) < n:
            grown = np.zeros(n, dtype=bool)
            grown[: len(self._session_on)] = self._session_on
            grown[len(self._session_on):] = (
                self.rng.random(n - len(self._session_on))
                < config.session_on_fraction
            )
            self._session_on = grown
        p_off = 1.0 / config.session_mean_hours
        fraction = config.session_on_fraction
        p_on = p_off * fraction / max(1.0 - fraction, 1e-9)
        draws = self.rng.random(n)
        self._session_on = np.where(
            self._session_on, draws >= p_off, draws < p_on
        )
        always_on = pop.always_on
        if len(always_on) < n:
            padded = np.zeros(n, dtype=bool)
            padded[: len(always_on)] = always_on
            always_on = padded
        return self._session_on | always_on

    def shard_bounds(self, n_rows: int) -> list[int]:
        """Contiguous account-range boundaries (len ``n_shards + 1``)."""
        return [
            n_rows * shard // self.n_shards
            for shard in range(self.n_shards + 1)
        ]

    def _emit_organic_posts(
        self,
        t0: float,
        t_end: float,
        hour: int,
        stats: HourStats,
        tweets: _HourTweets,
    ) -> _Posts:
        pop = self.population
        # Parent-stream preamble: sessions and Poisson counts, drawn
        # before the fan-out so they never depend on the worker count.
        on = self._update_sessions()
        scale = on.astype(np.float64) / pop.config.session_on_fraction
        # always-on accounts post at their nominal rate, not scaled up.
        if len(pop.always_on) == len(scale):
            scale[pop.always_on] = 1.0
        rates = pop.post_rate_per_day * scale / 24.0
        counts = self.rng.poisson(rates)
        posting = np.nonzero(counts)[0]
        if len(posting):
            suspended = np.asarray(pop.suspended_flags())
            posting = posting[~suspended[posting]]
        topic_weights = self.topic_process.weights_at(hour)
        topic_cdf = (topic_weights / topic_weights.sum()).cumsum()
        topic_cdf /= topic_cdf[-1]
        topic_cdf = tuple(topic_cdf.tolist())

        order = pop.order
        interests_of = pop.interests
        members = [
            (row, n_posts, interests_of.get(order[row], ()), affinity)
            for row, n_posts, affinity in zip(
                posting.tolist(),
                counts[posting].tolist(),
                pop.topic_affinity[posting].tolist(),
            )
        ]
        # posting is ascending, so each shard's accounts are one slice.
        cuts = np.searchsorted(
            posting, self.shard_bounds(len(order))
        ).tolist()
        tasks = [
            ShardTask(
                seed=pop.config.seed,
                hour=hour,
                shard=shard,
                t0=t0,
                t_end=t_end,
                topics=self.topic_process.topics,
                topic_cdf=topic_cdf,
                posting=tuple(members[cuts[shard]:cuts[shard + 1]]),
            )
            for shard in range(self.n_shards)
        ]

        shard_protos = parallel_map(
            emit_shard, tasks, workers=self.workers, label="engine.shards"
        )

        # Deterministic merge: ascending shard order, task order within
        # a shard.  Trending records and finalization (snowflake ids,
        # profile counters) run here, on the parent.
        protos = [proto for shard in shard_protos for proto in shard]
        start = len(tweets)
        if protos:
            rows, created, texts, kinds, sources, hashtags, topics = zip(
                *protos
            )
        else:
            rows = created = texts = kinds = sources = hashtags = topics = ()
        record = self.trending.record
        for created_at, topic in zip(created, topics):
            if topic is not None:
                record(topic, int(created_at // SECONDS_PER_HOUR))
        n = len(protos)
        tweets.author.extend(rows)
        tweets.created_at.extend(created)
        tweets.text.extend(texts)
        tweets.kind.extend(kinds)
        tweets.source.extend(sources)
        tweets.hashtags.extend(hashtags)
        tweets.topic.extend(topics)
        tweets.mention.extend([-1] * n)
        tweets.reply_to_id.extend([-1] * n)
        tweets.reply_to_created_at.extend([math.nan] * n)
        stats.organic_posts += n
        return _Posts(
            np.array(rows, dtype=np.intp),
            np.array(created, dtype=np.float64),
            self._finalize(tweets, start),
            list(hashtags),
            list(topics),
        )

    def _schedule_replies(self, posts: _Posts) -> None:
        rng = self.rng
        pop = self.population
        config = pop.config
        normal_pool = pop.order[: config.n_normal_users]
        arrays = pop.cols._arrays
        followers = arrays["followers_count"][posts.rows]
        expected = config.reply_rate * (followers / (followers + 2000.0))
        screen_name = pop.cols.screen_name
        for author, uid, created_at, tweet_id, mass in zip(
            posts.rows.tolist(),
            arrays["user_id"][posts.rows].tolist(),
            posts.created_at.tolist(),
            posts.tweet_id.tolist(),
            expected.tolist(),
        ):
            n_replies = int(rng.poisson(mass))
            for __ in range(n_replies):
                replier_id = None
                if self._follow_index is not None:
                    replier_id = self._follow_index.sample_follower(uid, rng)
                if replier_id is None:
                    replier_id = normal_pool[
                        int(rng.integers(0, len(normal_pool)))
                    ]
                if replier_id == uid:
                    continue
                delay = behavior.organic_reply_delay(rng)
                heapq.heappush(
                    self._pending_replies,
                    _PendingReply(
                        created_at + delay,
                        replier_id,
                        tweet_id,
                        created_at,
                        author,
                        screen_name[author],
                    ),
                )

    def _deliver_due_replies(
        self, t_end: float, stats: HourStats, tweets: _HourTweets
    ) -> None:
        pop = self.population
        index_of = pop.index_of
        suspended = pop.cols._arrays["suspended"]
        while self._pending_replies and (
            self._pending_replies[0].deliver_at < t_end
        ):
            pending = heapq.heappop(self._pending_replies)
            replier = index_of.get(pending.replier_id)
            if replier is None or suspended[replier]:
                continue
            text = (
                self.text.benign_text(n_words=6) + f" @{pending.target_name}"
            )
            tweets.add_reaction(
                replier,
                pending.deliver_at,
                text,
                TweetKind.TWEET,
                behavior.draw_source(self.rng, False),
                pending.target_row,
                pending.target_id,
                pending.target_created_at,
            )
            stats.organic_replies += 1

    # -- spam --------------------------------------------------------------

    def _emit_spam(
        self, t0: float, t_end: float, stats: HourStats, tweets: _HourTweets
    ) -> None:
        pop = self.population
        rng = self.rng
        candidates = self._victim_candidates()
        if candidates is None:
            return
        # Victim-selection distribution over ALL recent posters, built
        # once per hour: exact taste-proportional sampling (a small
        # random subsample would flatten the concentration the paper's
        # skewed attribute results imply).
        weights = self._victim_weights(candidates)
        total_weight = float(weights.sum())
        if total_weight <= 0:
            return
        cumulative = np.cumsum(weights) / total_weight
        victims = (
            candidates.rows.tolist(),
            candidates.created_at.tolist(),
            candidates.tweet_id.tolist(),
        )
        index_of = pop.index_of
        suspended = pop.cols._arrays["suspended"]

        for campaign in pop.campaigns:
            for member_id in campaign.member_ids:
                member = index_of[member_id]
                if suspended[member]:
                    continue
                n_actions = int(rng.poisson(campaign.actions_per_hour))
                for __ in range(n_actions):
                    text_body = self.text.spam_text(
                        campaign.keyword_class, campaign.pick_template(rng)
                    )
                    if self._spam_mention(
                        tweets,
                        member,
                        text_body,
                        victims,
                        cumulative,
                        t0,
                        t_end,
                        campaign.reaction_median_s,
                        stealthy=campaign.stealthy,
                    ):
                        stats.spam_mentions += 1

        for lone_id, (keyword_class, template_id) in (
            pop.lone_spammer_templates.items()
        ):
            lone = index_of[lone_id]
            if suspended[lone]:
                continue
            n_actions = int(rng.poisson(pop.config.lone_actions_per_hour))
            for __ in range(n_actions):
                text_body = self.text.spam_text(keyword_class, template_id)
                if self._spam_mention(
                    tweets, lone, text_body, victims, cumulative, t0, t_end,
                    60.0,
                ):
                    stats.spam_mentions += 1

        for uid in self._compromised_uids:
            relay = index_of[uid]
            if suspended[relay] or rng.random() > 0.02:
                continue
            campaign_id = pop.truth.account_campaign.get(uid)
            if campaign_id is None or campaign_id >= len(pop.campaigns):
                continue
            campaign = pop.campaigns[campaign_id]
            text_body = self.text.spam_text(
                campaign.keyword_class, campaign.pick_template(rng)
            )
            if self._spam_mention(
                tweets, relay, text_body, victims, cumulative, t0, t_end,
                300.0,
            ):
                stats.spam_mentions += 1

    def _victim_candidates(self) -> _Posts | None:
        """Latest recent post per distinct author.

        Spammers pick a *victim* and react to their newest post, so an
        account posting 50 times an hour is not 50 times more likely a
        target than one posting once — deduplication keeps victim
        selection driven by the taste model, not by raw post volume.
        Candidates come in order of their author's first recent post.
        """
        recent = list(self._recent_posts)
        rows = np.concatenate([posts.rows for posts in recent])
        if not len(rows):
            return None
        __, first = np.unique(rows, return_index=True)
        __, last = _last_occurrence(rows)
        pick = last[np.argsort(first)]
        hashtags = [tags for posts in recent for tags in posts.hashtags]
        topics = [topic for posts in recent for topic in posts.topic]
        picked = pick.tolist()
        return _Posts(
            rows[pick],
            np.concatenate([posts.created_at for posts in recent])[pick],
            np.concatenate([posts.tweet_id for posts in recent])[pick],
            [hashtags[i] for i in picked],
            [topics[i] for i in picked],
        )

    def _spam_mention(
        self,
        tweets: _HourTweets,
        sender: int,
        text_body: str,
        victims: tuple[list[int], list[float], list[int]],
        cumulative: np.ndarray,
        t0: float,
        t_end: float,
        reaction_median_s: float,
        stealthy: bool = False,
    ) -> bool:
        rng = self.rng
        rows, created, tweet_ids = victims
        pick = int(cumulative.searchsorted(rng.random(), side="right"))
        pick = min(pick, len(rows) - 1)
        victim = rows[pick]
        if victim == sender:
            return False
        posted_at = created[pick]
        delay = behavior.spam_reaction_delay(rng, reaction_median_s)
        created_at = posted_at + delay
        created_at = min(max(created_at, t0), t_end - 1e-3)
        if created_at <= posted_at:
            created_at = posted_at + 1.0
        text = f"@{self.population.cols.screen_name[victim]} {text_body}"
        kind = behavior.draw_kind(rng, spammer=True)
        tweets.add_reaction(
            sender,
            created_at,
            text,
            kind,
            behavior.draw_source(rng, not stealthy),
            victim,
            tweet_ids[pick],
            posted_at,
        )
        return True

    def _victim_weights(self, candidates: _Posts) -> np.ndarray:
        """Taste weights for all victim candidates, column-wise.

        Profile base scores come from one
        :meth:`SpammerTasteModel.profile_score_batch` call over the live
        candidates' rows; the posting-context multipliers are memoized
        per (first hashtag, topic).
        """
        arrays = self.population.cols._arrays
        live = ~arrays["suspended"][candidates.rows]
        weights = np.zeros(len(live), dtype=np.float64)
        rows = candidates.rows[live]
        if not len(rows):
            return weights
        bases = self.taste.profile_score_batch(
            self.clock.now,
            arrays["created_at"][rows],
            arrays["friends_count"][rows],
            arrays["followers_count"][rows],
            arrays["listed_count"][rows],
            arrays["favourites_count"][rows],
            arrays["statuses_count"][rows],
        )
        context: dict[tuple[str | None, str | None], float] = {}
        multipliers = []
        for hashtags, topic in compress(
            zip(candidates.hashtags, candidates.topic), live.tolist()
        ):
            key = (hashtags[0] if hashtags else None, topic)
            multiplier = context.get(key)
            if multiplier is None:
                multiplier = context[key] = self.taste.context_multiplier(
                    category_of(key[0]) if key[0] is not None else None,
                    self.trending_status_of(topic),
                )
            multipliers.append(multiplier)
        # Profile taste concentrates (** concentration); posting context
        # scales linearly.  Cubing the context too would let a mediocre
        # account with one trending hashtag out-attract the accounts
        # whose *profiles* match spammer tastes, inverting Table V.
        concentration = self.taste.weights.concentration
        weights[live] = np.array(
            [base**concentration for base in bases.tolist()]
        ) * np.array(multipliers)
        return weights

    # -- finalize and publish ------------------------------------------------

    def _finalize(
        self, tweets: _HourTweets, start: int, spam: bool = False
    ) -> np.ndarray:
        """Finalize the tweets appended since ``start``; their ids.

        Equal to finalizing them one by one in order: each gets the
        next snowflake id, its author's ``statuses_count`` goes up by
        one (the tweet records the raised value) and the author's
        ``last_post_at`` and the mentioned account's
        ``last_mentioned_at`` become the tweet's time, the last tweet
        of each account winning.
        """
        if start == len(tweets):
            return np.zeros(0, dtype=np.int64)
        cols = self.population.cols
        rows = np.array(tweets.author[start:], dtype=np.intp)
        created = np.array(tweets.created_at[start:], dtype=np.float64)
        ids = self.snowflake.next_ids(created)
        statuses = cols.statuses_count
        tweets.statuses_count.append(
            statuses[rows] + _occurrence_rank(rows) + 1
        )
        np.add.at(statuses, rows, 1)
        distinct, last = _last_occurrence(rows)
        cols.last_post_at[distinct] = created[last]
        mention = np.array(tweets.mention[start:], dtype=np.intp)
        mentioned = mention >= 0
        if mentioned.any():
            distinct, last = _last_occurrence(mention[mentioned])
            cols.last_mentioned_at[distinct] = created[mentioned][last]
        tweets.tweet_id.append(ids)
        if spam:
            self.population.truth.spam_tweet_ids.update(ids.tolist())
        return ids

    def _assemble(self, tweets: _HourTweets) -> TweetBatch:
        """The hour's tweets as one batch, stably sorted by time.

        Reads the authors' ``favourites_count`` as of posting, so it
        runs before the hour's favourites growth.
        """
        created = np.array(tweets.created_at, dtype=np.float64)
        order = np.argsort(created, kind="stable")
        author = np.array(tweets.author, dtype=np.intp)[order]
        take = order.tolist()

        def arranged(values: list) -> list:
            return [values[i] for i in take]

        def stacked(parts: list[np.ndarray]) -> np.ndarray:
            if not parts:
                return np.zeros(0, dtype=np.int64)
            return np.concatenate(parts)[order]

        cols = self.population.cols
        batch = TweetBatch(
            cols=cols,
            seq0=self._published,
            tweet_id=stacked(tweets.tweet_id),
            created_at=created[order],
            author=author,
            statuses_count=stacked(tweets.statuses_count),
            favourites_count=cols.favourites_count[author],
            mention=np.array(tweets.mention, dtype=np.intp)[order],
            reply_to_id=np.array(tweets.reply_to_id, dtype=np.int64)[order],
            reply_to_created_at=np.array(
                tweets.reply_to_created_at, dtype=np.float64
            )[order],
            kind=arranged(tweets.kind),
            source=arranged(tweets.source),
            text=arranged(tweets.text),
            hashtags=arranged(tweets.hashtags),
            topic=arranged(tweets.topic),
        )
        self._published += len(batch)
        return batch

    def _index_batch(self, batch: TweetBatch) -> None:
        """Add a published batch to the search window and timelines."""
        if not len(batch):
            return
        self._window.append(batch)
        self._drop_window_head(self._published - self.SEARCH_INDEX_CAP)
        author = batch.author
        order = np.argsort(author, kind="stable")
        grouped = author[order]
        bounds = np.flatnonzero(
            np.r_[True, grouped[1:] != grouped[:-1], True]
        ).tolist()
        positions = order.tolist()
        uids = batch.cols._arrays["user_id"][grouped[bounds[:-1]]].tolist()
        keep = self.TIMELINE_LENGTH
        timelines = self._timelines
        for uid, lo, hi in zip(uids, bounds[:-1], bounds[1:]):
            refs = timelines.get(uid)
            if refs is None:
                refs = timelines[uid] = deque(maxlen=keep)
            refs.extend((batch, i) for i in positions[max(lo, hi - keep) : hi])

    def _drop_window_head(self, lo: int) -> None:
        """Retire search-window tweets before publish sequence ``lo``."""
        self._window_lo = max(self._window_lo, lo)
        window = self._window
        while window and window[0].seq0 + len(window[0]) <= self._window_lo:
            self._compact_timelines(window.popleft())

    def _compact_timelines(self, batch: TweetBatch) -> None:
        """Move timeline refs off a batch leaving the search window.

        The refs move to a subset batch of just the rows they name, so
        a timeline pins at most its own tweets — not every hour that
        ever held one of them.
        """
        timelines = self._timelines
        held = []
        rows: list[int] = []
        authors = np.unique(batch.cols.user_id[batch.author]).tolist()
        for uid in authors:
            refs = timelines[uid]
            mine = [i for owner, i in refs if owner is batch]
            if mine:
                held.append(refs)
                rows.extend(mine)
        if not rows:
            return
        part = batch.subset(rows)
        moved = {row: k for k, row in enumerate(rows)}
        for refs in held:
            for j, (owner, i) in enumerate(refs):
                if owner is batch:
                    refs[j] = (part, moved[i])

    def _publish(self, batch: TweetBatch) -> None:
        """Deliver the hour's batch to every subscriber.

        Each subscriber selects its rows first; deliveries then run in
        time order, and a tweet several subscribers selected reaches
        them in registration order — the order a per-tweet fan-out
        would produce.
        """
        plans = []
        for subscriber in list(self._subscribers):
            rows = subscriber.select(batch)
            if rows is None:
                rows = np.arange(len(batch))
            if len(rows):
                plans.append((subscriber, rows))
        if len(plans) == 1:
            subscriber, rows = plans[0]
            for i in rows.tolist():
                subscriber.deliver(batch, i)
            return
        if not plans:
            return
        owner = np.concatenate(
            [np.full(len(rows), k) for k, (__, rows) in enumerate(plans)]
        )
        rows = np.concatenate([rows for __, rows in plans])
        order = np.lexsort((owner, rows))
        for k, i in zip(owner[order].tolist(), rows[order].tolist()):
            plans[k][0].deliver(batch, i)

    # -- maintenance ---------------------------------------------------------

    def _grow_profile_counters(self) -> None:
        """Organic accounts slowly gain favourites (Poisson per hour)."""
        pop = self.population
        counts = self.rng.poisson(pop.fav_rate_per_day / 24.0)
        grew = np.nonzero(counts)[0]
        favourites = pop.cols.favourites_count
        favourites[grew] += counts[grew]

    def _run_suspension(self) -> int:
        """Per-account suspension hazard, vectorized by segments.

        The scalar loop drew one uniform per live account in ``order``
        sequence; a respawn hit inserts extra draws mid-stream (the new
        member's profile).  Batching the whole population would
        therefore diverge the RNG stream the moment a respawn fires, so
        draws are *segmented*: maximal runs of positions that cannot
        trigger extra draws (everything except campaign members when
        respawn is on) get one vector draw over their live accounts,
        while respawn-capable positions draw scalar in place.  The
        result is bit-identical to the scalar loop at any world size.
        """
        pop = self.population
        config = pop.config
        rng = self.rng
        n0 = len(pop.order)
        # Snapshot is safe for positions < n0: processing a position
        # never changes another position's flags, and respawns only
        # append past n0.
        live = ~np.asarray(pop.suspended_flags()[:n0])
        rates = np.where(
            pop.spam_hazard[:n0],
            config.spam_suspension_rate,
            config.normal_suspension_rate,
        )
        suspended = 0

        def run_segment(start: int, end: int) -> int:
            hits = 0
            positions = np.nonzero(live[start:end])[0]
            if not len(positions):
                return 0
            positions += start
            draws = rng.random(len(positions))
            for pos in positions[draws < rates[positions]]:
                pop.accounts[pop.order[int(pos)]].suspended = True
                hits += 1
            return hits

        def check_scalar(pos: int) -> int:
            uid = pop.order[pos]
            account = pop.accounts[uid]
            if account.suspended:
                return 0
            kind = pop.truth.account_kind[uid]
            rate = (
                config.spam_suspension_rate
                if kind.is_spammer and kind is not AccountKind.COMPROMISED
                else config.normal_suspension_rate
            )
            if rng.random() >= rate:
                return 0
            account.suspended = True
            campaign_id = pop.truth.account_campaign.get(uid)
            if (
                config.campaign_respawn
                and kind is AccountKind.CAMPAIGN_SPAMMER
                and campaign_id is not None
            ):
                campaign = pop.campaigns[campaign_id]
                campaign.member_ids.remove(uid)
                pop.spawn_campaign_member(campaign, self.clock.now)
            return 1

        if config.campaign_respawn:
            respawn_capable = np.nonzero(pop.campaign_member_flags[:n0])[0]
        else:
            respawn_capable = np.zeros(0, dtype=np.int64)
        start = 0
        for sp in respawn_capable:
            sp = int(sp)
            if sp > start:
                suspended += run_segment(start, sp)
            suspended += check_scalar(sp)
            start = sp + 1
        if start < n0:
            suspended += run_segment(start, n0)
        # Members respawned above appended themselves to ``order`` and
        # face the hazard within the same hour, exactly as the scalar
        # loop visited them while iterating the growing list.
        pos = n0
        while pos < len(pop.order):
            suspended += check_scalar(pos)
            pos += 1
        return suspended

    def _expire_recent_posts(self, now: float) -> None:
        """Retire victim anchors and search-window tweets past their
        horizons, popping from the head while the head is too old."""
        horizon = now - self.RECENT_POST_HOURS * SECONDS_PER_HOUR
        recent = self._recent_posts
        while recent:
            fresh = np.flatnonzero(recent[0].created_at >= horizon)
            if not len(fresh):
                recent.popleft()
                continue
            if fresh[0]:
                recent[0] = recent[0].tail(int(fresh[0]))
            break
        search_horizon = now - self.SEARCH_INDEX_HOURS * SECONDS_PER_HOUR
        for batch in list(self._window):
            expired = int(
                batch.created_at.searchsorted(search_horizon, side="left")
            )
            self._drop_window_head(batch.seq0 + expired)
            if expired < len(batch):
                break


def build_engine(
    population: Population,
    taste: SpammerTasteModel | None = None,
    topics: tuple[str, ...] = DEFAULT_TOPICS,
    workers: int | None = None,
) -> TwitterEngine:
    """The engine for ``population``, its shards fanned over ``workers``.

    The experiment builds its world through this module-level hook so
    harnesses can wrap engine construction by name.
    """
    return TwitterEngine(population, taste, topics, workers=workers)
