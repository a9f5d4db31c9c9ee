"""LRUCache semantics + the "eviction never changes a feature" contract.

Two layers: the cache itself (recency order, eviction at cap, counter
reconciliation) and the extractor built on it — feature matrices must
be bitwise-identical whether the description-statistics memo always
hits, always thrashes (capacity 1), or sits at the default cap, because
it memoizes a pure function of the description string.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.detector import extract_captures
from repro.features.extractor import FeatureExtractor
from repro.obs import get_registry
from repro.service.cache import LRUCache


class TestLRUSemantics:
    def test_get_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_refresh_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh in place
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_iteration_is_lru_first_and_accounting_neutral(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        before = (cache.hits, cache.misses)
        assert list(cache) == ["b", "c", "a"]
        assert "b" in cache
        assert (cache.hits, cache.misses) == before

    def test_clear_preserves_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (1, 1)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_counters_reconcile_under_random_workload(self):
        rng = np.random.default_rng(41)
        cache = LRUCache(8)
        for __ in range(3_000):
            key = int(rng.integers(0, 32))
            if rng.random() < 0.5:
                cache.get(key)
            else:
                cache.put(key, key)
            assert cache.hits + cache.misses == cache.lookups
            assert len(cache) <= cache.capacity
        assert 0.0 <= cache.hit_rate <= 1.0


class TestExtractorCacheEquivalence:
    def _vectors(self, captures, cap: int | None) -> np.ndarray:
        extractor = FeatureExtractor(profile_cache_cap=cap)
        return extract_captures(extractor, captures)

    def test_thrashing_cache_is_bitwise_identical(self, capture_stream):
        ordered = sorted(
            capture_stream, key=lambda c: c.tweet.created_at
        )
        default = self._vectors(ordered, None)
        thrashed = self._vectors(ordered, 1)
        roomy = self._vectors(ordered, 1_000_000)
        assert np.array_equal(default, thrashed)
        assert np.array_equal(default, roomy)

    def test_cache_hit_equals_recompute(self, capture_stream):
        tweet = capture_stream[0].tweet
        first = replace(tweet, created_at=100.0, mentions=())
        later = replace(tweet, created_at=7_200.0, mentions=())
        extractor = FeatureExtractor()
        extractor.extract_batch([first])
        hit = extractor.extract_batch([later])[0]
        assert extractor.profile_cache_hits == 1
        assert extractor.profile_cache_misses == 1
        fresh = FeatureExtractor().extract_batch([later])[0]
        assert np.array_equal(hit[0:16], fresh[0:16])

    def test_registry_mirror_matches_cache_counters(self, capture_stream):
        ordered = sorted(
            capture_stream, key=lambda c: c.tweet.created_at
        )
        extractor = FeatureExtractor()
        for start in range(0, len(ordered), 64):
            extract_captures(extractor, ordered[start : start + 64])
        counters = get_registry().counter_values("features.profile_cache")
        assert counters["features.profile_cache.hits"] == (
            extractor.profile_cache_hits
        )
        assert counters["features.profile_cache.misses"] == (
            extractor.profile_cache_misses
        )
        assert (
            extractor.profile_cache_hits + extractor.profile_cache_misses
            == extractor._desc_stats.lookups
        )
        assert extractor.profile_cache_misses > 0
