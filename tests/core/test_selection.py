"""Tests for attribute-based pseudo-honeypot selection."""

import math

import pytest

from repro.core.attributes import PROFILE_ATTRIBUTE_BY_KEY
from repro.core.portability import ActivityPolicy
from repro.core.selection import (
    AttributeSelector,
    CategoryTarget,
    ProfileTarget,
    SelectionPlan,
    _RecentIndex,
)


@pytest.fixture(scope="module")
def selector_world():
    from tests.conftest import build_world

    population, engine, rest = build_world(seed=71)
    engine.run_hours(8)  # populate trending + timelines
    selector = AttributeSelector(
        rest,
        candidate_pool=500,
        activity=ActivityPolicy(window_hours=24),
        seed=1,
    )
    return population, engine, rest, selector


class TestSelectionPlan:
    def test_full_paper_plan_is_2400_nodes(self):
        plan = SelectionPlan.full_paper_plan(per_value=10)
        assert plan.total_requested == 2400
        assert len(plan.profile_targets) == 110  # 11 attrs x 10 values
        assert len(plan.category_targets) == 13  # 9 hashtag + 4 trending

    def test_random_plan_sizes(self):
        plan = SelectionPlan.random_plan(n_targets=10, per_value=10, seed=0)
        n_targets = len(plan.profile_targets) + len(plan.category_targets)
        assert n_targets == 10

    def test_random_plan_deterministic(self):
        a = SelectionPlan.random_plan(8, 5, seed=3)
        b = SelectionPlan.random_plan(8, 5, seed=3)
        assert a == b


class TestProfileSelection:
    def test_selected_accounts_match_bin(self, selector_world):
        population, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 100, count=5),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes
        for node in nodes:
            value = population.accounts[node.user_id].friends_count
            assert 100 / selector.tolerance <= value <= 100 * selector.tolerance
            assert node.attribute_key == "friends_count"
            assert node.sample_label == "friends_count=100"

    def test_closest_matches_preferred(self, selector_world):
        population, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 100, count=3),)
        )
        nodes = selector.select(plan, engine.clock.now)
        picked = [
            abs(math.log(population.accounts[n.user_id].friends_count / 100))
            for n in nodes
        ]
        assert picked == sorted(picked)

    def test_no_account_selected_twice(self, selector_world):
        __, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["friends_count"]
        plan = SelectionPlan(
            profile_targets=(
                ProfileTarget(spec, 100, count=10),
                ProfileTarget(spec, 110, count=10),
            )
        )
        nodes = selector.select(plan, engine.clock.now)
        ids = [n.user_id for n in nodes]
        assert len(set(ids)) == len(ids)

    def test_selected_accounts_are_active(self, selector_world):
        population, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["account_age_days"]
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 500, count=10),)
        )
        nodes = selector.select(plan, engine.clock.now)
        for node in nodes:
            last_post = population.accounts[node.user_id].last_post_at
            assert engine.clock.now - last_post <= 24 * 3600

    def test_shortfall_reported(self, selector_world):
        __, engine, __, selector = selector_world
        spec = PROFILE_ATTRIBUTE_BY_KEY["followers_count"]
        # Nobody in a tiny world has exactly ~1e9 followers.
        plan = SelectionPlan(
            profile_targets=(ProfileTarget(spec, 1e9, count=10),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes == []
        assert selector.last_report.shortfalls


class TestCategorySelection:
    def test_hashtag_nodes_recently_used_category(self, selector_world):
        population, engine, rest, selector = selector_world
        plan = SelectionPlan(
            category_targets=(CategoryTarget("hashtag_social", count=8),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes
        from repro.twittersim.hashtags import HASHTAG_POOLS, HashtagCategory

        social = set(HASHTAG_POOLS[HashtagCategory.SOCIAL])
        for node in nodes:
            timeline_tags = {
                tag
                for tweet in rest.recent_sample(50_000)
                if tweet.user.user_id == node.user_id
                for tag in tweet.hashtags
            }
            assert timeline_tags & social

    def test_no_hashtag_nodes_have_no_recent_hashtags(self, selector_world):
        __, engine, rest, selector = selector_world
        plan = SelectionPlan(
            category_targets=(CategoryTarget("no_hashtag", count=8),)
        )
        nodes = selector.select(plan, engine.clock.now)
        assert nodes
        for node in nodes:
            tags = [
                tag
                for tweet in rest.recent_sample(50_000)
                if tweet.user.user_id == node.user_id
                for tag in tweet.hashtags
            ]
            assert tags == []

    def test_trending_nodes_posted_trending_topics(self, selector_world):
        __, engine, rest, selector = selector_world
        plan = SelectionPlan(
            category_targets=(CategoryTarget("trending_up", count=5),)
        )
        nodes = selector.select(plan, engine.clock.now)
        trending_up = rest.trending_sets()["trending_up"]
        if not trending_up:
            pytest.skip("no trending-up topics in this tiny world")
        for node in nodes:
            topics = {
                tweet.topic
                for tweet in rest.recent_sample(50_000)
                if tweet.user.user_id == node.user_id and tweet.topic
            }
            assert topics & trending_up


def _index_state(index: _RecentIndex) -> dict:
    return {
        "hashtag_authors": {
            tag: list(authors)
            for tag, authors in index.hashtag_authors.items()
            if authors
        },
        "topic_authors": {
            topic: list(authors)
            for topic, authors in index.topic_authors.items()
            if authors
        },
        "hashtag_usage": dict(index.hashtag_usage),
        "author_used_hashtag": set(index.author_used_hashtag),
        "author_used_topic": set(index.author_used_topic),
        "author_last_post": dict(index.author_last_post),
        "author_name": dict(index.author_name),
        "ordered_authors": index.ordered_authors(),
    }


def _reference_state(tweets) -> dict:
    """The index a one-tweet-at-a-time scan of the window builds."""
    state = {
        "hashtag_authors": {},
        "topic_authors": {},
        "hashtag_usage": {},
        "author_used_hashtag": set(),
        "author_used_topic": set(),
        "author_last_post": {},
        "author_name": {},
        "ordered_authors": [],
    }
    for tweet in tweets:
        uid = tweet.user.user_id
        if uid not in state["author_name"]:
            state["ordered_authors"].append(uid)
        state["author_last_post"][uid] = tweet.created_at
        state["author_name"][uid] = tweet.user.screen_name
        for tag in tweet.hashtags:
            state["hashtag_authors"].setdefault(tag, []).append(uid)
            usage = state["hashtag_usage"]
            usage[tag] = usage.get(tag, 0) + 1
            state["author_used_hashtag"].add(uid)
        if tweet.topic is not None:
            state["topic_authors"].setdefault(tweet.topic, []).append(uid)
            state["author_used_topic"].add(uid)
    return state


class TestRecentIndex:
    def test_incremental_index_equals_rebuild(self, fresh_world):
        __, engine, rest = fresh_world(seed=72)
        # A window of ~2 hours, so most rounds expire a partial batch.
        selector = AttributeSelector(rest, recent_limit=600, seed=1)
        for __ in range(6):
            engine.run_hour()
            index = selector._index_recent_sample()
            window = rest.recent_window(selector.recent_limit)
            assert (index.window.lo, index.window.hi) == (
                window.lo,
                window.hi,
            )
            rebuilt = _RecentIndex()
            assert rebuilt.advance(window)
            assert _index_state(index) == _index_state(rebuilt)
            assert _index_state(index) == _reference_state(window.tweets())

    def test_window_of_another_platform_is_not_diffed(self, fresh_world):
        __, engine, rest = fresh_world(seed=73)
        __, other_engine, other_rest = fresh_world(seed=73)
        engine.run_hour()
        other_engine.run_hour()
        index = _RecentIndex()
        assert index.advance(rest.recent_window())
        assert not index.advance(other_rest.recent_window())


class TestValidation:
    def test_rejects_bad_tolerance(self, selector_world):
        __, __, rest, __ = selector_world
        with pytest.raises(ValueError):
            AttributeSelector(rest, tolerance=0.9)
