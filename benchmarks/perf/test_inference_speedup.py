"""Perf gate: compiled-forest inference beats the object-tree walk 2x.

ROADMAP 5b's acceptance bar, measured on the workload the service
actually runs: many small batches (the service scores
``DEFAULT_BATCH_SIZE``-row batches as they flush, where per-tree
dispatch overhead dominates the object path).  The compiled arena's
advantage shrinks as batches grow — at tens of thousands of rows both
paths are element-work bound — so the gate pins the deployment shape,
not a synthetic giant matrix.  Parity is asserted in the same breath:
a fast wrong answer must fail here, not in production.

Both paths are single-threaded, so the gate runs on any machine.  To
keep host-speed drift out of the ratio, the two paths are timed in
interleaved rounds (trees, compiled, trees, compiled, ...) and the
gate reads the median of the per-round ratios.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.obs import reset, set_enabled

MIN_SPEEDUP = 2.0
#: The service's scoring shape: a stream of small flush batches.
BATCH_ROWS = 256
N_BATCHES = 60
#: Interleaved (trees, compiled) timing rounds.
ROUNDS = 5


@pytest.fixture(autouse=True)
def quiet_obs():
    # Timing runs: keep span/event bookkeeping out of the comparison.
    reset()
    set_enabled(False)
    yield
    reset()
    set_enabled(True)


def _fitted_forest() -> RandomForestClassifier:
    rng = np.random.default_rng(19)
    X = rng.normal(size=(1_500, 12))
    y = (X[:, 0] + 0.4 * X[:, 3] - 0.2 * X[:, 7] > 0).astype(np.int64)
    forest = RandomForestClassifier(
        n_estimators=70, max_depth=12, seed=5, workers=0
    )
    forest.fit(X, y)
    return forest


def _batches() -> list[np.ndarray]:
    rng = np.random.default_rng(23)
    return [
        rng.normal(size=(BATCH_ROWS, 12)) for __ in range(N_BATCHES)
    ]


def test_compiled_inference_speedup_with_identical_probabilities():
    forest = _fitted_forest()
    compiled = forest.compiled()
    batches = _batches()

    # Warm both paths (first-touch allocations out of the timing).
    forest.predict_proba_trees(batches[0])
    compiled.predict_proba(batches[0])

    def timed(predict) -> tuple[float, list[np.ndarray]]:
        start = time.perf_counter()
        out = [predict(X) for X in batches]
        return time.perf_counter() - start, out

    ratios = []
    for __ in range(ROUNDS):
        t_trees, reference = timed(forest.predict_proba_trees)
        t_compiled, fast = timed(compiled.predict_proba)
        for ref, got in zip(reference, fast):
            assert np.array_equal(ref, got)
        ratios.append(t_trees / t_compiled)

    speedup = statistics.median(ratios)
    assert speedup >= MIN_SPEEDUP, (
        f"compiled inference speedup {speedup:.2f}x (median of "
        f"{ROUNDS} interleaved rounds: "
        f"{', '.join(f'{r:.2f}' for r in ratios)}) on "
        f"{N_BATCHES}x{BATCH_ROWS}-row batches"
    )
