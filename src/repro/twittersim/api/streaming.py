"""Streaming API: real-time filtered tweet delivery.

Mirrors the tweepy Streaming API surface the paper's implementation
uses (Section V-A): a filter is a list of track terms of the form
``@screen_name``; the stream delivers every public tweet *crossing*
those accounts — tweets the account posts, and tweets that @-mention
it — in real time, without any visible interaction with the account.
That invisibility is what makes the pseudo-honeypot transparent to its
parasitic bodies.

Matching is column-wise: a stream resolves its tracked names to account
rows and matches each published hour with ``np.isin`` on the batch's
author and mention rows, so only the matches become ``Tweet`` objects.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ...faults.injector import DeliveryAction
from ..batch import TweetBatch
from ..engine import TwitterEngine
from ..entities import Tweet
from ..errors import (
    FilterLimitError,
    InvalidFilterError,
    StreamDisconnectedError,
)

#: Twitter's filter endpoint caps tracked entities; we mirror that.
MAX_TRACK_TERMS = 5000


def _check_track_limit(track: list[str]) -> None:
    if len(track) > MAX_TRACK_TERMS:
        raise FilterLimitError(
            f"{len(track)} track terms exceed the limit of "
            f"{MAX_TRACK_TERMS}"
        )


class StreamListener(Protocol):
    """Receiver of matched tweets (tweepy ``StreamListener`` analogue)."""

    def on_tweet(self, tweet: Tweet) -> None:
        """Called once per matched tweet, in timestamp order."""


class _BufferListener:
    """Default listener that simply buffers matched tweets."""

    def __init__(self) -> None:
        self.tweets: list[Tweet] = []

    def on_tweet(self, tweet: Tweet) -> None:
        self.tweets.append(tweet)


def parse_track_term(term: str) -> str:
    """Validate an ``@screen_name`` track term, returning the name.

    Raises:
        InvalidFilterError: if the term is not of the ``@name`` form.
    """
    if not term.startswith("@") or len(term) < 2:
        raise InvalidFilterError(
            f"track term {term!r} must be of the form '@screen_name'"
        )
    name = term[1:]
    if any(ch.isspace() for ch in name):
        raise InvalidFilterError(f"track term {term!r} contains whitespace")
    return name


class FilteredStream:
    """A live filtered stream over the platform firehose.

    Three connection states mirror a real streaming client:

    * **open** — matches are delivered to the listener;
    * **broken** — the transport dropped (fault injection) but the
      server keeps matching: like Twitter's limit notices, the stream
      counts what the client missed (``undelivered_matches``) so the
      client can reconcile a reconnect backfill exactly;
    * **closed** — :meth:`disconnect` was called; the subscription is
      gone for good.
    """

    def __init__(
        self,
        engine: TwitterEngine,
        tracked_names: set[str],
        listener: StreamListener,
    ) -> None:
        self._engine = engine
        self._tracked = tracked_names
        self._tracked_rows = np.zeros(0, dtype=np.intp)
        self._rows_resolved_at = -1
        self.listener = listener
        self._closed = False
        self._broken = False
        self.matched_count = 0
        #: Matches the broken transport never delivered.
        self.undelivered_matches = 0
        #: Simulation time the transport dropped (gap-window start).
        self.disconnected_at: float | None = None
        self._held: Tweet | None = None
        self._injector = engine.fault_injector
        engine.attach(self)
        if self._injector is not None:
            self._injector.attach_stream(self)

    @property
    def connected(self) -> bool:
        """Whether matches currently reach the listener."""
        return not self._closed and not self._broken

    @property
    def broken(self) -> bool:
        """Whether the transport dropped (recoverable by reconnect)."""
        return self._broken

    @property
    def closed(self) -> bool:
        """Whether the stream was deliberately disconnected."""
        return self._closed

    @property
    def tracked_names(self) -> frozenset[str]:
        """Screen names currently tracked by this stream."""
        return frozenset(self._tracked)

    def update_filter(self, track: list[str]) -> None:
        """Replace the track list (hourly pseudo-honeypot switching).

        Raises:
            StreamDisconnectedError: if the stream is closed or its
                transport is down (reconnect first).
            FilterLimitError: if the new track list exceeds the
                platform limit, or the call is rejected by an
                injected fault.
            InvalidFilterError: if a term is malformed; the previous
                filter stays in place.
        """
        if self._closed:
            raise StreamDisconnectedError("cannot update a closed stream")
        if self._broken:
            raise StreamDisconnectedError(
                "cannot update a broken stream; reconnect first"
            )
        _check_track_limit(track)
        if self._injector is not None:
            self._injector.check_stream_call(
                "update_filter", self._engine.clock.now
            )
        self._tracked = {parse_track_term(term) for term in track}
        self._rows_resolved_at = -1

    def disconnect(self) -> None:
        """Detach from the firehose; further matches stop immediately."""
        if not self._closed:
            self._engine.detach(self)
            self._closed = True
            self._broken = False
            self._held = None
            if self._injector is not None:
                self._injector.detach_stream(self)

    def mark_broken(self, at: float) -> None:
        """Simulate a transport drop at simulation time ``at``.

        The stream stays subscribed in counting mode: every further
        match increments ``undelivered_matches``.  A held (delayed)
        tweet dies with the connection and widens the gap window so a
        backfill over ``[disconnected_at, reconnect)`` still covers it.
        """
        if self._broken or self._closed:
            return
        self._broken = True
        self.disconnected_at = at
        if self._held is not None:
            self.undelivered_matches += 1
            self.disconnected_at = min(at, self._held.created_at)
            self._held = None

    def flush_held(self) -> None:
        """Deliver a held (out-of-order) tweet at the hour boundary."""
        if self._held is not None and self.connected:
            held, self._held = self._held, None
            self._deliver(held)

    def select(self, batch: TweetBatch) -> np.ndarray:
        """Rows of ``batch`` crossing a tracked account.

        A tweet crosses an account it is authored by or @-mentions.
        Tracked names resolve to account rows once per population size
        (a name no account holds matches nothing until one claims it).
        """
        population = self._engine.population
        if self._rows_resolved_at != len(population.order):
            row_of = population.row_of_name
            self._tracked_rows = np.array(
                [row_of[name] for name in self._tracked if name in row_of],
                dtype=np.intp,
            )
            self._rows_resolved_at = len(population.order)
        rows = self._tracked_rows
        matches = np.flatnonzero(
            np.isin(batch.author, rows) | np.isin(batch.mention, rows)
        )
        if self.connected:
            batch.tweets(matches.tolist())
        return matches

    def deliver(self, batch: TweetBatch, i: int) -> None:
        """Hand one matched tweet to the transport."""
        if self._closed:
            return
        if self._broken:
            self.undelivered_matches += 1
            return
        tweet = batch.tweet(i)
        action = DeliveryAction.DELIVER
        if self._injector is not None:
            action = self._injector.on_match(self, tweet)
            if action is DeliveryAction.BREAK:
                # The drop happened at/before this tweet: it is the
                # first match the dead transport failed to carry.
                self.undelivered_matches += 1
                return
            if action is DeliveryAction.HOLD and self._held is None:
                self._held = tweet
                return
        self._deliver(tweet)
        if action is DeliveryAction.DUPLICATE:
            self.listener.on_tweet(tweet)
        if self._held is not None:
            held, self._held = self._held, None
            self._deliver(held)

    def _deliver(self, tweet: Tweet) -> None:
        self.matched_count += 1
        self.listener.on_tweet(tweet)


class StreamingClient:
    """Factory for filtered streams (tweepy ``Stream`` analogue)."""

    MAX_TRACK_TERMS = MAX_TRACK_TERMS

    def __init__(self, engine: TwitterEngine) -> None:
        self._engine = engine

    def filter(
        self,
        track: list[str],
        listener: StreamListener | None = None,
    ) -> FilteredStream:
        """Open a filtered stream on ``@screen_name`` track terms.

        Args:
            track: track terms, each ``@screen_name``.
            listener: receiver of matched tweets; a buffering listener
                is created when omitted (read it via
                ``stream.listener.tweets``).

        Raises:
            FilterLimitError: if more than ``MAX_TRACK_TERMS`` terms,
                or the call is rejected by an injected fault.
            InvalidFilterError: if a term is malformed.
        """
        _check_track_limit(track)
        injector = self._engine.fault_injector
        if injector is not None:
            injector.check_stream_call("filter", self._engine.clock.now)
        names = {parse_track_term(term) for term in track}
        return FilteredStream(
            self._engine, names, listener or _BufferListener()
        )
