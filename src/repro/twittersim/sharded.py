"""Column-wise organic-post draws for one shard-hour.

The engine splits its account range into ``SimulationConfig.engine_shards``
contiguous shards (one by default) and hands each shard's posting
accounts for the hour to :func:`emit_shard`, through
``repro.parallel``.  The contract has two halves:

* **The shard count defines the stream.**  Shard ``s`` of hour ``h``
  draws every per-post random variable (timing, hashtags, topic, kind,
  client source, text) from its own
  ``np.random.default_rng([seed, hour, shard])`` substream, one array
  per variable over the whole shard-hour.  Running the same world with
  a different shard count is a *different* (equally valid) world —
  exactly like changing the seed.
* **The worker count never does.**  Shard tasks are pure functions of
  their picklable payload, ``parallel_map`` gathers results in
  submission order, and the engine replays the merge (trending
  records, tweet finalization, stats) shard-by-shard in ascending
  shard order.  ``workers=0`` and ``workers=N`` produce bit-identical
  tweet streams, PGE tables, and report payloads.

Everything the shard needs from the parent that is *not* per-post
randomness — burst-session state, Poisson post counts, the suspension
filter — is drawn from the parent's stream before the fan-out, so it
is worker-count independent by construction.  Replies, spam,
suspension, snowflake ids and profile counters stay on the parent
stream.

Worker-side telemetry (the ``engine.shard.*`` counters below) flows
back through :mod:`repro.parallel.obsmerge`, so counter totals
reconcile at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import get_registry
from . import behavior
from .entities import TweetKind, TweetSource
from .hashtags import HASHTAG_POOLS, HashtagCategory
from .text import BENIGN_WORDS, EMOJI


@dataclass(frozen=True)
class ShardTask:
    """One shard's picklable work order for one hour.

    ``posting`` holds ``(row, n_posts, interests, affinity)`` per
    posting account, rows ascending within the shard's account range.
    """

    seed: int
    hour: int
    shard: int
    t0: float
    t_end: float
    topics: tuple[str, ...]
    topic_cdf: tuple[float, ...]
    posting: tuple[
        tuple[int, int, tuple[HashtagCategory, ...], float], ...
    ]


#: A shard-emitted proto-post: ``(row, created_at, text, kind, source,
#: hashtags, topic)``.  Plain data — the parent owns finalization.
ProtoPost = tuple[
    int, float, str, TweetKind, TweetSource, tuple[str, ...], "str | None"
]

#: P(an author with interests tags the post), then P(two tags).
TAG_PROB = 0.7
TWO_TAGS_PROB = 0.2
#: Organic body: 4-14 words, then maybe a 1-999 number, maybe an emoji.
MIN_WORDS, MAX_WORDS = 4, 14
DIGIT_PROB = 0.2
EMOJI_PROB = 0.25

# Categories ride through the draws as int codes into these tables.
_CATEGORY_CODE = {category: i for i, category in enumerate(HASHTAG_POOLS)}
_POOLS = tuple(HASHTAG_POOLS.values())
_POOL_SIZES = np.array([len(pool) for pool in _POOLS])
_WORDS = np.array(BENIGN_WORDS, dtype=object)


def emit_shard(task: ShardTask) -> list[ProtoPost]:
    """Generate one shard-hour's proto-posts from its private substream.

    Pure function of the task payload: runs identically inside a pool
    worker or inline in the parent process.  Every per-post variable is
    one array draw over the shard-hour, in a fixed order; only string
    assembly runs per post.
    """
    posting = task.posting
    per_account = np.array([p[1] for p in posting], dtype=np.int64)
    owner = np.repeat(np.arange(len(posting)), per_account)
    n = len(owner)
    registry = get_registry()
    registry.counter("engine.shard.tasks").inc()
    registry.counter("engine.shard.posts").inc(n)
    if not n:
        return []
    rows = np.array([p[0] for p in posting], dtype=np.int64)[owner]
    affinity = np.array([p[3] for p in posting], dtype=np.float64)[owner]
    n_interests = np.array([len(p[2]) for p in posting])[owner]
    interest_codes = np.zeros(
        (len(posting), max(1, int(n_interests.max()))), dtype=np.int64
    )
    for i, (__, __, interests, __) in enumerate(posting):
        for j, category in enumerate(interests):
            interest_codes[i, j] = _CATEGORY_CODE[category]

    rng = np.random.default_rng([task.seed, task.hour, task.shard])
    created_at = task.t0 + (task.t_end - task.t0) * rng.random(n)
    tagged = (n_interests > 0) & (rng.random(n) < TAG_PROB)
    category = interest_codes[
        owner, rng.integers(0, np.maximum(n_interests, 1))
    ]
    pool_size = _POOL_SIZES[category]
    first_tag = rng.integers(0, pool_size)
    two_tags = rng.random(n) < TWO_TAGS_PROB
    # A uniform pick among the other pool_size - 1 tags: distinct from
    # the first by construction.
    second_tag = rng.integers(0, pool_size - 1)
    second_tag += second_tag >= first_tag
    topical = rng.random(n) < affinity
    topic_idx = np.searchsorted(
        task.topic_cdf, rng.random(n), side="right"
    )
    kinds = behavior.draw_organic_kinds(rng, n)
    sources = behavior.draw_organic_sources(rng, n)
    n_words = rng.integers(MIN_WORDS, MAX_WORDS + 1, size=n)
    words = _WORDS[
        rng.integers(0, len(BENIGN_WORDS), size=int(n_words.sum()))
    ].tolist()
    with_digit = rng.random(n) < DIGIT_PROB
    digits = rng.integers(1, 1000, size=n)
    with_emoji = rng.random(n) < EMOJI_PROB
    emojis = rng.integers(0, len(EMOJI), size=n)

    topics = task.topics
    protos: list[ProtoPost] = []
    start = 0
    for (
        row, t, end, tag, cat, first, two, second, top, tidx, kind,
        source, digit, d, emoji, e,
    ) in zip(
        rows.tolist(),
        created_at.tolist(),
        np.cumsum(n_words).tolist(),
        tagged.tolist(),
        category.tolist(),
        first_tag.tolist(),
        two_tags.tolist(),
        second_tag.tolist(),
        topical.tolist(),
        topic_idx.tolist(),
        kinds,
        sources,
        with_digit.tolist(),
        digits.tolist(),
        with_emoji.tolist(),
        emojis.tolist(),
    ):
        text = " ".join(words[start:end])
        start = end
        if digit:
            text += f" {d}"
        if emoji:
            text += " " + EMOJI[e]
        topic = topics[tidx] if top else None
        if topic is not None:
            text += f" #{topic}"
        hashtags: tuple[str, ...] = ()
        if tag:
            pool = _POOLS[cat]
            hashtags = (pool[first], pool[second]) if two else (pool[first],)
            text += " " + " ".join(f"#{h}" for h in hashtags)
        protos.append((row, t, text, kind, source, hashtags, topic))
    return protos
