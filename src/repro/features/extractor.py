"""The 58-feature extractor (Section IV-A).

``FeatureExtractor`` is stateful: behavioral features are running
statistics over the captured stream, the "is repeated" content feature
needs a dedup memory, receiver-profile features need a profile cache,
and the environment score needs the per-attribute group-likelihood
tracker.  Feed it captured tweets in timestamp order through
:meth:`FeatureExtractor.extract_batch`, the one extraction path: each
row is extracted *from the past only* and then folded into the state
(no self-leakage), so a stream yields the same matrix however it is
cut into batches.

Inside a batch, one pass in row order computes the stateful features
(receiver, dedup, behavior counts, reciprocity, environment score) as
plain Python floats and folds each row in; the sender and receiver
profile blocks are then computed column-wise over the whole batch
(:func:`~repro.features.profile.profile_block`).
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

import numpy as np

from ..obs import get_registry
from ..service.cache import LRUCache
from ..twittersim.entities import Tweet, UserProfile
from .behavior import BehaviorTracker
from .content import _KIND_CODE, _SOURCE_CODE, normalize_text_for_dedup
from .environment import EnvironmentScoreTracker
from .profile import profile_block
from .schema import N_FEATURES
from .textstats import count_digits, count_emoji

#: Sentinel for "not a reaction to any post" in the mention-time slot.
NO_MENTION_TIME = -1.0


class FeatureExtractor:
    """Extracts the paper's 58 features from a captured tweet stream.

    Args:
        honeypot_ids: ids of current pseudo-honeypot nodes; a tweet's
            *receiver* is its first mentioned honeypot node, falling
            back to its first mention (footnote 2 of the paper).
            Rows given ``node_ids`` in :meth:`extract_batch` use those
            instead.
        environment: shared group-likelihood tracker; a fresh one is
            created if omitted.
        dedup_window_s: how long a normalized text stays "seen" for the
            is-repeated feature (paper uses a 1-day window for content
            duplication checks).
        profile_cache_cap: LRU entry cap for the description-statistics
            memo (None = :attr:`PROFILE_CACHE_CAP`); the service layer
            shrinks it in cache-thrash tests.
    """

    def __init__(
        self,
        honeypot_ids: Collection[int] | None = None,
        environment: EnvironmentScoreTracker | None = None,
        dedup_window_s: float = 86_400.0,
        profile_cache_cap: int | None = None,
    ) -> None:
        self.honeypot_ids = honeypot_ids or set()
        self.environment = environment or EnvironmentScoreTracker()
        self.dedup_window_s = dedup_window_s
        self.behavior = BehaviorTracker()
        self._profiles: dict[int, UserProfile] = {}
        self._text_last_seen: dict[str, float] = {}
        self._dedup_prune_at = 0.0
        # Description character-class statistics: a pure function of
        # the string, and one description serves every tweet of its
        # account.  Eviction can only change hit rates, never a value.
        self._desc_stats = LRUCache(
            profile_cache_cap
            if profile_cache_cap is not None
            else self.PROFILE_CACHE_CAP
        )
        registry = get_registry()
        self._m_pf_hits = registry.counter("features.profile_cache.hits")
        self._m_pf_misses = registry.counter("features.profile_cache.misses")

    #: Entry cap for the per-extractor description-statistics memo.
    PROFILE_CACHE_CAP = 50_000

    # ------------------------------------------------------------------

    def register_profile(self, profile: UserProfile) -> None:
        """Seed the receiver-profile cache (e.g. with honeypot nodes)."""
        self._profiles[profile.user_id] = profile

    def set_honeypot_ids(self, honeypot_ids: Collection[int]) -> None:
        """Update current honeypot node ids (hourly switching)."""
        self.honeypot_ids = honeypot_ids

    def receiver_of(
        self, tweet: Tweet, honeypot_ids: Collection[int] | None = None
    ) -> int | None:
        """The receiver account id of a tweet, if any."""
        if honeypot_ids is None:
            honeypot_ids = self.honeypot_ids
        for mention in tweet.mentions:
            if mention.user_id in honeypot_ids:
                return mention.user_id
        return tweet.mentions[0].user_id if tweet.mentions else None

    @property
    def profile_cache_hits(self) -> int:
        """Description-statistics memo hits since construction."""
        return self._desc_stats.hits

    @property
    def profile_cache_misses(self) -> int:
        """Description-statistics memo misses since construction."""
        return self._desc_stats.misses

    # ------------------------------------------------------------------

    def extract(
        self, tweet: Tweet, attributes: tuple[str, ...] = ()
    ) -> np.ndarray:
        """Feature vector of one tweet (a one-row :meth:`extract_batch`).

        Returns:
            float64 vector of length 58 in schema order.
        """
        return self.extract_batch([tweet], [attributes])[0]

    def extract_batch(
        self,
        tweets: Sequence[Tweet],
        attributes: Sequence[tuple[str, ...]] | None = None,
        node_ids: Sequence[Collection[int]] | None = None,
        labels: Sequence[object] | None = None,
    ) -> np.ndarray:
        """The (n, 58) feature matrix of tweets in timestamp order.

        Args:
            tweets: captured tweets, oldest first.
            attributes: per-row selection-attribute labels of the
                capturing node(s) (drives the environment score);
                empty when omitted.
            node_ids: per-row user ids of the capturing nodes, used to
                resolve the receiver; :attr:`honeypot_ids` when
                omitted.
            labels: per-row confirmed-spam flags (training).  A true
                flag is recorded in the environment tracker right after
                its row, before the next row is extracted — exactly as
                live collection would see it.

        Raises:
            ValueError: if a per-row argument does not align with
                ``tweets``.
        """
        n = len(tweets)
        columns = (attributes, node_ids, labels)
        for name, column in zip(("attributes", "node_ids", "labels"), columns):
            if column is not None and len(column) != n:
                raise ValueError(f"{name} must align with tweets")
        X = np.empty((n, N_FEATURES))
        desc_stats = self._desc_stats
        hits, misses = desc_stats.hits, desc_stats.misses
        for start in range(0, n, self._BLOCK_ROWS):
            rows = slice(start, start + self._BLOCK_ROWS)
            self._extract_block(
                X[rows],
                tweets[rows],
                *(None if col is None else col[rows] for col in columns),
            )
        self._m_pf_hits.inc(desc_stats.hits - hits)
        self._m_pf_misses.inc(desc_stats.misses - misses)
        return X

    #: Rows per pass of :meth:`_extract_block`: bounds the pass's
    #: transient Python lists to a few hundred KB however large the
    #: batch (the state carries over, so blocks never change a value).
    _BLOCK_ROWS = 512

    def _extract_block(
        self,
        out: np.ndarray,
        tweets: Sequence[Tweet],
        attributes: Sequence[tuple[str, ...]] | None,
        node_ids: Sequence[Collection[int]] | None,
        labels: Sequence[object] | None,
    ) -> None:
        """Fill ``out`` with the features of ``tweets``, folding each
        row into the state."""
        desc_stats = self._desc_stats
        profiles = self._profiles
        text_last_seen = self._text_last_seen
        window = self.dedup_window_s
        behavior = self.behavior
        activity = behavior.activity
        environment = self.environment
        honeypot = self.honeypot_ids

        def gather(profile: UserProfile) -> tuple:
            """One profile's raw fields, in ``profile_block`` order."""
            desc = profile.description
            stats = desc_stats.get(desc)
            if stats is None:
                stats = (len(desc), count_emoji(desc), count_digits(desc))
                desc_stats.put(desc, stats)
            return (
                profile.friends_count,
                profile.followers_count,
                profile.statuses_count,
                profile.listed_count,
                profile.favourites_count,
                profile.verified,
                profile.default_profile_image,
                len(profile.screen_name),
                len(profile.name),
                *stats,
                profile.created_at,
            )

        nows: list[float] = []
        stateful: list[float] = []
        senders: list[tuple] = []
        receiver_rows: list[int] = []
        receivers: list[tuple] = []
        for i, tweet in enumerate(tweets):
            attrs = attributes[i] if attributes is not None else ()
            if node_ids is not None:
                honeypot = node_ids[i]
            now = tweet.created_at
            sender = tweet.user
            sender_id = sender.user_id
            receiver_id = self.receiver_of(tweet, honeypot)
            text = tweet.text
            normalized = normalize_text_for_dedup(text)
            last_seen = text_last_seen.get(normalized)
            sender_activity = activity(sender_id)
            reply_at = tweet.in_reply_to_created_at

            nows.append(now)
            senders.append(gather(sender))
            stateful += (
                last_seen is not None and now - last_seen <= window,
                _KIND_CODE[tweet.kind],
                _SOURCE_CODE[tweet.source],
                len(tweet.hashtags),
                len(tweet.mentions),
                len(text),
                count_emoji(text),
                count_digits(text),
            )
            if receiver_id is None:
                stateful.append(0)
                stateful += sender_activity.kind_fractions
                stateful += (0.0, 0.0, 0.0)
                stateful += sender_activity.source_fractions
                stateful += (0.0, 0.0, 0.0, 0.0)
            else:
                receiver_profile = profiles.get(receiver_id)
                if receiver_profile is not None:
                    receiver_rows.append(i)
                    receivers.append(gather(receiver_profile))
                receiver_activity = activity(receiver_id)
                stateful.append(behavior.reciprocity(sender_id, receiver_id))
                stateful += sender_activity.kind_fractions
                stateful += receiver_activity.kind_fractions
                stateful += sender_activity.source_fractions
                stateful += receiver_activity.source_fractions
            stateful += (
                NO_MENTION_TIME if reply_at is None else now - reply_at,
                sender_activity.average_interval(),
                environment.score(attrs),
            )

            # Fold the row into the state before the next one.
            behavior.record(tweet)
            profiles[sender_id] = sender
            text_last_seen[normalized] = now
            environment.record_capture(attrs)
            if now >= self._dedup_prune_at:
                self._prune_dedup(now)
                text_last_seen = self._text_last_seen
            if labels is not None and labels[i]:
                environment.record_spam(attrs)

        # The pass fills the content (32-39) and behavior (40-57) columns.
        out[:, 32:] = np.array(stateful, dtype=np.float64).reshape(
            len(tweets), -1
        )
        now_col = np.array(nows)
        out[:, 0:16] = profile_block(
            np.array(senders, dtype=np.float64), now_col
        )
        out[:, 16:32] = 0.0
        if receivers:
            out[receiver_rows, 16:32] = profile_block(
                np.array(receivers, dtype=np.float64), now_col[receiver_rows]
            )

    # ------------------------------------------------------------------

    def _prune_dedup(self, now: float) -> None:
        horizon = now - self.dedup_window_s
        self._text_last_seen = {
            text: ts
            for text, ts in self._text_last_seen.items()
            if ts >= horizon
        }
        self._dedup_prune_at = now + self.dedup_window_s / 4
