"""One engine hour's tweets as a struct-of-arrays batch.

The engine publishes each hour once, as a :class:`TweetBatch` in time
order.  Numeric per-tweet state (ids, times, author and mention rows,
the author's counters at post time) lives in numpy columns; texts,
hashtags, topics, kinds and sources stay row-aligned Python lists.  A
:class:`~repro.twittersim.entities.Tweet` is built only when something
reads it — a stream match, a REST read, a per-tweet tap — and is
cached, so one tweet read twice is one object.

The author's profile snapshot is exact without being stored: of the
:class:`~repro.twittersim.entities.UserProfile` fields only
``statuses_count`` and ``favourites_count`` change after an account
registers, and the batch keeps both as they were at post time; every
other field is read from the account columns.

A :class:`TweetWindow` is a read-only view of the newest published
tweets across batches, addressed by *publish sequence*: the position of
a tweet in the platform's whole time-ordered stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .columnar import AccountColumns
from .entities import Mention, Tweet, TweetKind, TweetSource, UserProfile


class TweetBatch:
    """One hour of tweets, in publish (time) order.

    ``seq0`` is the publish sequence of row 0.  ``mention`` is the
    mentioned account's row (−1 if none); ``reply_to_id`` is −1 and
    ``reply_to_created_at`` NaN for tweets that react to no post.
    """

    __slots__ = (
        "cols",
        "seq0",
        "tweet_id",
        "created_at",
        "author",
        "statuses_count",
        "favourites_count",
        "mention",
        "reply_to_id",
        "reply_to_created_at",
        "kind",
        "source",
        "text",
        "hashtags",
        "topic",
        "_tweets",
    )

    def __init__(
        self,
        cols: AccountColumns,
        seq0: int,
        tweet_id: np.ndarray,
        created_at: np.ndarray,
        author: np.ndarray,
        statuses_count: np.ndarray,
        favourites_count: np.ndarray,
        mention: np.ndarray,
        reply_to_id: np.ndarray,
        reply_to_created_at: np.ndarray,
        kind: list[TweetKind],
        source: list[TweetSource],
        text: list[str],
        hashtags: list[tuple[str, ...]],
        topic: list[str | None],
    ) -> None:
        self.cols = cols
        self.seq0 = seq0
        self.tweet_id = tweet_id
        self.created_at = created_at
        self.author = author
        self.statuses_count = statuses_count
        self.favourites_count = favourites_count
        self.mention = mention
        self.reply_to_id = reply_to_id
        self.reply_to_created_at = reply_to_created_at
        self.kind = kind
        self.source = source
        self.text = text
        self.hashtags = hashtags
        self.topic = topic
        self._tweets: list[Tweet | None] = [None] * len(tweet_id)

    def __len__(self) -> int:
        return len(self.tweet_id)

    def tweet(self, i: int) -> Tweet:
        """The public record of row ``i`` (built once, then cached)."""
        tweet = self._tweets[i]
        if tweet is None:
            self._build([i])
            tweet = self._tweets[i]
        return tweet

    def tweets(self, rows: Iterable[int] | None = None) -> list[Tweet]:
        """The records of ``rows`` (all rows when omitted), in order.

        Rows not read before are built together, column-wise.
        """
        rows = range(len(self)) if rows is None else list(rows)
        cache = self._tweets
        missing = [i for i in rows if cache[i] is None]
        if missing:
            self._build(missing)
        return [cache[i] for i in rows]

    def subset(self, rows: list[int]) -> "TweetBatch":
        """A batch of just ``rows``, in that order, outside any window
        (``seq0`` −1); records already built carry over."""
        at = np.array(rows, dtype=np.intp)
        part = TweetBatch(
            self.cols,
            -1,
            self.tweet_id[at],
            self.created_at[at],
            self.author[at],
            self.statuses_count[at],
            self.favourites_count[at],
            self.mention[at],
            self.reply_to_id[at],
            self.reply_to_created_at[at],
            [self.kind[i] for i in rows],
            [self.source[i] for i in rows],
            [self.text[i] for i in rows],
            [self.hashtags[i] for i in rows],
            [self.topic[i] for i in rows],
        )
        part._tweets = [self._tweets[i] for i in rows]
        return part

    def _build(self, rows: list[int]) -> None:
        cols = self.cols
        arrays = cols._arrays
        at = np.array(rows, dtype=np.intp)
        author = self.author[at]
        authors = author.tolist()
        screen_name = cols.screen_name
        profiles = zip(
            arrays["user_id"][author].tolist(),
            [screen_name[row] for row in authors],
            [cols.name[row] for row in authors],
            arrays["created_at"][author].tolist(),
            [cols.description[row] for row in authors],
            arrays["friends_count"][author].tolist(),
            arrays["followers_count"][author].tolist(),
            self.statuses_count[at].tolist(),
            arrays["listed_count"][author].tolist(),
            self.favourites_count[at].tolist(),
            arrays["verified"][author].tolist(),
            arrays["default_profile_image"][author].tolist(),
            arrays["profile_image_id"][author].tolist(),
        )
        mention = self.mention[at]
        # A -1 mention reads a filler id that the loop never uses.
        cache = self._tweets
        for (
            i, profile, tweet_id, created_at, mentioned, mentioned_id,
            reply_to_id, reply_to_created_at,
        ) in zip(
            rows,
            profiles,
            self.tweet_id[at].tolist(),
            self.created_at[at].tolist(),
            mention.tolist(),
            arrays["user_id"][mention].tolist(),
            self.reply_to_id[at].tolist(),
            self.reply_to_created_at[at].tolist(),
        ):
            text = self.text[i]
            replying = reply_to_id >= 0
            cache[i] = Tweet(
                tweet_id,
                created_at,
                UserProfile(*profile),
                text,
                self.kind[i],
                self.source[i],
                self.hashtags[i],
                (
                    (Mention(mentioned_id, screen_name[mentioned]),)
                    if mentioned >= 0
                    else ()
                ),
                (
                    tuple(t for t in text.split() if t.startswith("http"))
                    if "http" in text
                    else ()
                ),
                self.topic[i],
                reply_to_id if replying else None,
                reply_to_created_at if replying else None,
            )


@dataclass(frozen=True)
class TweetWindow:
    """The newest published tweets, as slices of the batches holding them.

    Covers publish sequences ``[lo, hi)``.  ``stream`` identifies the
    platform that published them, so a reader can tell two windows of
    one stream (diffable by sequence) from windows of different ones.
    """

    stream: object
    lo: int
    hi: int
    #: ``(batch, start, stop)`` row slices, oldest first.
    segments: tuple[tuple[TweetBatch, int, int], ...]

    def __len__(self) -> int:
        return self.hi - self.lo

    def slices(
        self, lo: int, hi: int
    ) -> Iterator[tuple[TweetBatch, int, int]]:
        """Row slices covering publish sequences ``[lo, hi)``."""
        for batch, start, stop in self.segments:
            start = max(start, lo - batch.seq0)
            stop = min(stop, hi - batch.seq0)
            if start < stop:
                yield batch, start, stop

    def tweets(self) -> list[Tweet]:
        """Every tweet of the window, oldest first."""
        return [
            tweet
            for batch, start, stop in self.segments
            for tweet in batch.tweets(range(start, stop))
        ]
