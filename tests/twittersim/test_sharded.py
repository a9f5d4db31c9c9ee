"""The engine's shard contract and its column-wise post draws.

Two halves (see :mod:`repro.twittersim.sharded`):

* the **shard count** defines the random stream — a world with 4
  shards is a different (equally valid) world from the 1-shard
  default, exactly like changing the seed;
* the **worker count** never does — ``workers=0``, ``2`` and ``4``
  must produce bit-identical tweet streams and reconciled telemetry.

``TestColumnDraws`` checks the per-post laws ``emit_shard`` draws
column-wise, on one large synthetic shard-hour.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest

from repro.obs import get_registry, reset, set_enabled
from repro.twittersim import (
    HASHTAG_POOLS,
    HashtagCategory,
    SimulationConfig,
    TweetKind,
    TweetSource,
    TwitterEngine,
    build_population,
)
from repro.twittersim.behavior import (
    NORMAL_KIND_PROBS,
    NORMAL_SOURCE_PROBS,
)
from repro.twittersim.engine import build_engine
from repro.twittersim.sharded import ShardTask, emit_shard
from repro.twittersim.text import BENIGN_WORDS, EMOJI

HOURS = 4
SEED = 11
N_SHARDS = 4


def _sharded_config() -> SimulationConfig:
    return SimulationConfig.small(seed=SEED, engine_shards=N_SHARDS)


def _run_sharded(workers: int, config: SimulationConfig | None = None):
    reset()
    set_enabled(True)
    population = build_population(config or _sharded_config())
    engine = build_engine(population, workers=workers)
    firehose = []
    engine.subscribe(firehose.append)
    stats = engine.run_hours(HOURS)
    counters = dict(get_registry().counter_values("engine."))
    reset()
    return firehose, stats, counters


def _fingerprint(firehose) -> list[str]:
    return [
        json.dumps(tweet.to_json(), sort_keys=True) for tweet in firehose
    ]


@pytest.fixture(scope="module")
def runs():
    return {workers: _run_sharded(workers) for workers in (0, 2, 4)}


class TestBuildEngine:
    def test_shards_enabled_selects_sharded_engine(self):
        population = build_population(_sharded_config())
        engine = build_engine(population)
        assert isinstance(engine, TwitterEngine)
        assert engine.n_shards == N_SHARDS

    def test_zero_shards_rejected_and_default_is_one_shard(self):
        with pytest.raises(ValueError, match="engine_shards"):
            SimulationConfig.small(seed=SEED, engine_shards=0)
        population = build_population(SimulationConfig.small(seed=SEED))
        engine = build_engine(population)
        assert type(engine) is TwitterEngine
        assert engine.n_shards == 1

    def test_shard_bounds_partition_account_range(self):
        population = build_population(_sharded_config())
        engine = build_engine(population)
        bounds = engine.shard_bounds(1001)
        assert bounds[0] == 0
        assert bounds[-1] == 1001
        assert bounds == sorted(bounds)
        assert len(bounds) == N_SHARDS + 1


class TestWorkerCountInvariance:
    def test_streams_bitwise_equal_at_any_worker_count(self, runs):
        base = _fingerprint(runs[0][0])
        assert len(base) > 100
        assert _fingerprint(runs[2][0]) == base
        assert _fingerprint(runs[4][0]) == base

    def test_hour_stats_equal(self, runs):
        base = [vars(s) for s in runs[0][1]]
        assert [vars(s) for s in runs[2][1]] == base
        assert [vars(s) for s in runs[4][1]] == base

    def test_shard_counters_reconcile(self, runs):
        for firehose, stats, counters in runs.values():
            assert counters["engine.shard.tasks"] == N_SHARDS * HOURS
            # Every organic post originated in a shard task.
            assert counters["engine.shard.posts"] == sum(
                s.organic_posts for s in stats
            )


class TestShardCountDefinesStream:
    def test_one_shard_differs_from_four(self, runs):
        one_shard, __, counters = _run_sharded(
            0, SimulationConfig.small(seed=SEED)
        )
        assert counters["engine.shard.tasks"] == HOURS
        assert _fingerprint(one_shard) != _fingerprint(runs[0][0])


class TestEmitShard:
    def test_pure_function_of_payload(self):
        """Same task payload, same proto-posts — replay-safe."""
        task = ShardTask(
            seed=SEED,
            hour=0,
            shard=1,
            t0=0.0,
            t_end=3600.0,
            topics=("news", "sports"),
            topic_cdf=(0.5, 1.0),
            posting=((3, 2, (), 0.4), (9, 1, (), 0.0)),
        )
        assert emit_shard(task) == emit_shard(task)
        assert len(emit_shard(task)) == 3


# -- column-wise draws ------------------------------------------------------

_INTEREST_SETS = (
    (),
    (HashtagCategory.TECH,),
    (HashtagCategory.SOCIAL, HashtagCategory.ASTROLOGY),
    (
        HashtagCategory.GENERAL,
        HashtagCategory.BUSINESS,
        HashtagCategory.ENVIRONMENT,
    ),
)
_TOPICS = ("alpha", "beta", "gamma")
_TOPIC_PROBS = (0.2, 0.3, 0.5)
_AFFINITY = 0.4
_POSTS_PER_ACCOUNT = 5
_N_ACCOUNTS = 8_000


def _within(hits: int, n: int, p: float, sigmas: float = 5.0) -> bool:
    """``hits`` of ``n`` is within ``sigmas`` binomial sds of ``n*p``."""
    return abs(hits - n * p) <= sigmas * math.sqrt(n * p * (1 - p))


@pytest.fixture(scope="module")
def big_shard():
    """One 40k-post synthetic shard-hour and its proto-posts."""
    posting = tuple(
        (
            row,
            _POSTS_PER_ACCOUNT,
            _INTEREST_SETS[row % len(_INTEREST_SETS)],
            _AFFINITY,
        )
        for row in range(_N_ACCOUNTS)
    )
    task = ShardTask(
        seed=SEED,
        hour=3,
        shard=0,
        t0=7200.0,
        t_end=10800.0,
        topics=_TOPICS,
        topic_cdf=tuple(np.cumsum(_TOPIC_PROBS).tolist()),
        posting=posting,
    )
    return task, emit_shard(task)


def _body_tokens(text: str) -> list[str]:
    return [tok for tok in text.split() if not tok.startswith("#")]


class TestColumnDraws:
    def test_rows_times_and_counts(self, big_shard):
        task, protos = big_shard
        assert len(protos) == _N_ACCOUNTS * _POSTS_PER_ACCOUNT
        rows = [p[0] for p in protos]
        assert rows == sorted(rows)
        assert set(Counter(rows).values()) == {_POSTS_PER_ACCOUNT}
        times = np.array([p[1] for p in protos])
        assert times.min() >= task.t0
        assert times.max() < task.t_end
        assert _within(
            int((times < (task.t0 + task.t_end) / 2).sum()), len(times), 0.5
        )

    def test_hashtag_rates_and_pools(self, big_shard):
        __, protos = big_shard
        with_interests = tagged = two = 0
        for row, __, __, __, __, hashtags, __ in protos:
            interests = _INTEREST_SETS[row % len(_INTEREST_SETS)]
            if not interests:
                assert hashtags == ()
                continue
            with_interests += 1
            if not hashtags:
                continue
            tagged += 1
            pools = [
                HASHTAG_POOLS[c]
                for c in interests
                if hashtags[0] in HASHTAG_POOLS[c]
            ]
            assert len(pools) == 1, (row, hashtags)
            assert all(tag in pools[0] for tag in hashtags)
            if len(hashtags) == 2:
                two += 1
                assert hashtags[0] != hashtags[1]
            else:
                assert len(hashtags) == 1
        assert _within(tagged, with_interests, 0.7)
        assert _within(two, tagged, 0.2)

    def test_category_uniform_over_interests(self, big_shard):
        __, protos = big_shard
        picks = Counter()
        n = 0
        for row, __, __, __, __, hashtags, __ in protos:
            interests = _INTEREST_SETS[row % len(_INTEREST_SETS)]
            if len(interests) == 3 and hashtags:
                n += 1
                for category in interests:
                    if hashtags[0] in HASHTAG_POOLS[category]:
                        picks[category] += 1
        for category in _INTEREST_SETS[3]:
            assert _within(picks[category], n, 1 / 3)

    def test_topic_rate_and_distribution(self, big_shard):
        __, protos = big_shard
        topics = [p[-1] for p in protos]
        topical = [t for t in topics if t is not None]
        assert _within(len(topical), len(topics), _AFFINITY)
        freq = Counter(topical)
        assert set(freq) <= set(_TOPICS)
        for topic, prob in zip(_TOPICS, _TOPIC_PROBS):
            assert _within(freq[topic], len(topical), prob)
        for text, topic in ((p[2], p[-1]) for p in protos):
            assert (f"#{topic}" in text.split()) == (topic is not None)

    def test_kind_and_source_frequencies(self, big_shard):
        __, protos = big_shard
        n = len(protos)
        kinds = Counter(p[3] for p in protos)
        sources = Counter(p[4] for p in protos)
        for kind, prob in zip(TweetKind, NORMAL_KIND_PROBS):
            assert _within(kinds[kind], n, float(prob))
        for source, prob in zip(TweetSource, NORMAL_SOURCE_PROBS):
            assert _within(sources[source], n, float(prob))

    def test_text_tokens_and_word_counts(self, big_shard):
        __, protos = big_shard
        words = set(BENIGN_WORDS)
        digits = {str(d) for d in range(1, 1000)}
        n_digit = n_emoji = 0
        counts = []
        for __, __, text, __, __, hashtags, topic in protos:
            body = _body_tokens(text)
            n_words = sum(tok in words for tok in body)
            assert 4 <= n_words <= 14
            extra = body[n_words:]
            assert all(tok in words for tok in body[:n_words])
            assert len(extra) <= 2
            if extra and extra[0] in digits:
                n_digit += 1
                extra = extra[1:]
            if extra:
                assert extra == [extra[0]] and extra[0] in EMOJI
                n_emoji += 1
            counts.append(n_words)
            tags = [tok[1:] for tok in text.split() if tok.startswith("#")]
            assert tags == ([topic] if topic else []) + list(hashtags)
        n = len(protos)
        assert set(counts) == set(range(4, 15))
        assert _within(n_digit, n, 0.2)
        assert _within(n_emoji, n, 0.25)

    def test_draws_depend_on_seed_hour_and_shard(self, big_shard):
        task, protos = big_shard
        small = ShardTask(
            seed=task.seed,
            hour=task.hour,
            shard=task.shard,
            t0=task.t0,
            t_end=task.t_end,
            topics=task.topics,
            topic_cdf=task.topic_cdf,
            posting=task.posting[:50],
        )
        base = emit_shard(small)
        for field in ("seed", "hour", "shard"):
            moved = ShardTask(
                **{**vars(small), field: getattr(small, field) + 1}
            )
            assert emit_shard(moved) != base
