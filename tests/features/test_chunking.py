"""``extract_batch`` is invariant to how an ordered stream is chunked.

The extractor's state is folded row by row inside a batch, so cutting
one ordered capture stream into any sequence of batches must give the
bit-identical matrix — and the same description-memo hits and misses,
since the memo is consulted in row order whatever the cuts.  This is
what lets ``fit`` (one batch), ``classify`` (2,000-row chunks) and the
service (flush-sized batches) share one extractor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bench import workload_scale
from repro.core.detector import extract_captures
from repro.core.experiment import PseudoHoneypotExperiment
from repro.features.extractor import FeatureExtractor

#: Chunk sizes the chunkings draw from; 0 stands for "the whole rest".
CHUNK_SIZES = (1, 7, 256, 0)


@pytest.fixture(scope="module")
def ordered():
    """The attribute sweep's captures of one ``micro`` world, in time
    order: several hundred rows, more than one 512-row extraction
    block, and more distinct descriptions than the small memo caps."""
    scale = workload_scale("micro", seed=7)
    experiment = PseudoHoneypotExperiment(
        scale.sim, candidate_pool=scale.candidate_pool, workers=0
    )
    experiment.warm_up(scale.warmup_hours)
    sweep = experiment.run_full_network(
        hours=scale.main_hours, per_value=scale.main_per_value
    )
    captures = sorted(sweep.captures, key=lambda c: c.tweet.created_at)
    assert len(captures) > FeatureExtractor._BLOCK_ROWS
    return captures


def _extract(ordered, sizes, cap=None):
    """Extract ``ordered`` in consecutive chunks of ``sizes`` (cycled)."""
    extractor = FeatureExtractor(profile_cache_cap=cap)
    blocks, start, i = [], 0, 0
    while start < len(ordered):
        size = sizes[i % len(sizes)] or len(ordered)
        chunk = ordered[start : start + size]
        blocks.append(extract_captures(extractor, chunk))
        start += size
        i += 1
    counts = (extractor.profile_cache_hits, extractor.profile_cache_misses)
    return np.vstack(blocks), counts


@pytest.fixture(scope="module")
def whole(ordered):
    return {cap: _extract(ordered, [0], cap) for cap in (None, 1, 64)}


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_uniform_chunkings_match_one_batch(ordered, whole, size):
    X, counts = _extract(ordered, [size])
    X_whole, counts_whole = whole[None]
    assert np.array_equal(X, X_whole)
    assert counts == counts_whole


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.sampled_from(CHUNK_SIZES), min_size=1, max_size=8),
    cap=st.sampled_from([None, 1, 64]),
)
def test_random_chunkings_match_one_batch(ordered, whole, sizes, cap):
    X, counts = _extract(ordered, sizes, cap)
    X_whole, counts_whole = whole[cap]
    assert np.array_equal(X, X_whole)
    assert counts == counts_whole
