"""Tests for the engine's per-hour TweetBatch publication.

Each hour is published once as a struct-of-arrays batch; a ``Tweet``
is built only when read.  These tests pin the batch against the
per-tweet semantics it replaces: stream matching, post-time profile
snapshots, cached records and the per-tweet tap contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.twittersim.api.streaming import StreamingClient


class _BatchRecorder:
    """A batch subscriber that keeps every published hour."""

    def __init__(self) -> None:
        self.batches = []

    def select(self, batch):
        self.batches.append(batch)
        return np.zeros(0, dtype=np.intp)

    def deliver(self, batch, i):  # pragma: no cover - selects nothing
        raise AssertionError("nothing was selected")


def _crossing(tweet, names) -> bool:
    """The per-tweet filter predicate: authored by or mentioning a name."""
    return tweet.user.screen_name in names or any(
        mention.screen_name in names for mention in tweet.mentions
    )


@pytest.fixture(scope="module")
def recorded_world():
    """A tiny world run 6 hours with suspensions mid-run, and its
    published batches."""
    from tests.conftest import build_world

    population, engine, rest = build_world(seed=41)
    recorder = _BatchRecorder()
    engine.attach(recorder)
    engine.run_hours(3)
    # Suspend a slice of recently active authors: they stop posting,
    # but replies scheduled to their posts still mention them.
    authors = np.unique(recorder.batches[-1].author)[:40]
    for row in authors.tolist():
        population.accounts[population.order[row]].suspended = True
    engine.run_hours(3)
    engine.detach(recorder)
    return population, engine, recorder.batches, authors


class TestStreamMatching:
    def test_batch_matching_equals_per_tweet_predicate(
        self, recorded_world
    ):
        population, engine, batches, suspended = recorded_world
        names = population.cols.screen_name
        rng = np.random.default_rng(5)
        stream = StreamingClient(engine).filter(["@nobody"])
        for trial in range(20):
            picks = rng.choice(len(names), size=60, replace=False)
            tracked = {names[row] for row in picks.tolist()}
            # Suspended accounts and names no account holds.
            tracked |= {names[row] for row in suspended[trial::4].tolist()}
            tracked |= {f"ghost_{trial}", "nobody_at_all"}
            stream.update_filter(sorted(f"@{name}" for name in tracked))
            for batch in batches:
                expected = [
                    i
                    for i, tweet in enumerate(batch.tweets())
                    if _crossing(tweet, tracked)
                ]
                assert stream.select(batch).tolist() == expected
        stream.disconnect()

    def test_suspended_accounts_are_still_mentioned_and_matched(
        self, recorded_world
    ):
        population, engine, batches, suspended = recorded_world
        later = batches[3:]
        mentioned = np.concatenate([b.mention for b in later])
        hit = np.intersect1d(mentioned, suspended)
        assert len(hit), "expected replies to suspended accounts"
        names = population.cols.screen_name
        stream = StreamingClient(engine).filter(
            [f"@{names[row]}" for row in hit.tolist()]
        )
        assert sum(len(stream.select(b)) for b in later) > 0
        stream.disconnect()


class TestMaterialization:
    def test_kth_tweet_of_an_hour_carries_base_plus_k(self, fresh_world):
        population, engine, __ = fresh_world(seed=42)
        recorder = _BatchRecorder()
        engine.attach(recorder)
        for __ in range(4):
            base = population.cols.statuses_count.copy()
            engine.run_hour()
            batch = recorder.batches[-1]
            tweets = batch.tweets()
            by_author: dict[int, list] = {}
            for row, tweet in zip(batch.author.tolist(), tweets):
                by_author.setdefault(row, []).append(tweet)
            assert any(len(posts) > 1 for posts in by_author.values())
            for row, posts in by_author.items():
                # Ids are issued in finalize order.
                posts.sort(key=lambda tweet: tweet.tweet_id)
                assert [t.user.statuses_count for t in posts] == [
                    int(base[row]) + k for k in range(1, len(posts) + 1)
                ]
                assert population.cols.statuses_count[row] == (
                    base[row] + len(posts)
                )

    def test_repeat_read_is_the_same_object(self, recorded_world):
        __, __, batches, __ = recorded_world
        batch = batches[-1]
        first = batch.tweet(3)
        assert batch.tweet(3) is first
        assert batch.tweets([5, 3])[1] is first
        assert batch.tweets()[3] is first

    def test_profile_matches_the_account_store(self, recorded_world):
        population, __, batches, __ = recorded_world
        for tweet in batches[0].tweets()[:50]:
            now = population.accounts[tweet.user.user_id].snapshot()
            assert tweet.user.screen_name == now.screen_name
            assert tweet.user.followers_count == now.followers_count
            assert tweet.user.created_at == now.created_at


class TestTweetTap:
    def test_tap_sees_each_hour_in_time_order(self, fresh_world):
        __, engine, __ = fresh_world(seed=43)
        recorder = _BatchRecorder()
        engine.attach(recorder)
        seen = []
        engine.subscribe(seen.append)
        for __ in range(3):
            before = len(seen)
            engine.run_hour()
            batch = recorder.batches[-1]
            hour = seen[before:]
            assert [t.tweet_id for t in hour] == batch.tweet_id.tolist()
            times = [t.created_at for t in hour]
            assert times == sorted(times)
            assert all(a is b for a, b in zip(hour, batch.tweets()))
        engine.unsubscribe(seen.append)
        engine.run_hour()
        assert len(seen) == sum(len(b) for b in recorder.batches[:3])

    def test_unsubscribing_an_unknown_callback_raises(self, fresh_world):
        __, engine, __ = fresh_world(seed=44)
        with pytest.raises(ValueError):
            engine.unsubscribe(print)


class TestTimelines:
    def test_timelines_survive_the_search_window(self, fresh_world):
        """Past the 24 h window, a timeline still returns its author's
        newest tweets, and no longer pins whole hours."""
        population, engine, __ = fresh_world(seed=45)
        recorder = _BatchRecorder()
        engine.attach(recorder)
        engine.run_hours(30)
        newest: dict[int, list] = {}
        for batch in recorder.batches:
            for i, row in enumerate(batch.author.tolist()):
                newest.setdefault(population.order[row], []).append(
                    (batch, i)
                )
        for uid, refs in newest.items():
            expected = [b.tweet(i).to_json() for b, i in refs[-5:]]
            got = [t.to_json() for t in engine.user_timeline(uid)]
            assert got == expected
        window = {id(b) for b, __, __ in engine.recent_window().segments}
        held = {
            id(b): len(b)
            for refs in engine._timelines.values()
            for b, __ in refs
            if id(b) not in window
        }
        n_refs = sum(len(refs) for refs in engine._timelines.values())
        assert held and sum(held.values()) <= n_refs
