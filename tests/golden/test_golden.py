"""Committed golden digests of the extraction and scoring outputs.

For ``micro`` seeds 7 and 23 the paper pipeline runs up to the full
attribute sweep, then eight outputs are pinned by ``stable_digest``:

* ``firehose`` — every tweet the engine emits, as ``to_json()``, from
  a subscriber attached right after the world is built,
* ``captures`` — every ground-truth collection capture, then every
  sweep capture: tweet id, hour, category, crossed attribute keys,
  sample labels, node ids and the backfill flag,
* ``labels`` — the labeled dataset: each tweet id with its label and
  labeling method, then the sorted per-user labels,
* ``fit_features`` — the training matrix ``fit`` extracts (labels fed
  back as they stream past),
* ``classify_features`` — every matrix ``classify`` hands the forest,
* ``verdicts`` — the classify verdicts and spammer set,
* ``service_log`` — the ``SnifferService`` verdict log of a replay of
  the same captures through a copy of the trained detector,
* ``table6`` — the Table VI ``ranking_payload`` of the sweep.

A change that moves any of them changes the simulated world,
extraction or scoring, not just its speed.  To re-bless after an intended change, run::

    PYTHONPATH=src python -m tests.golden.test_golden --bless

and name every digest that moved, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.analysis.bench import workload_scale
from repro.core.experiment import PseudoHoneypotExperiment
from repro.core.pge import pge_by_sample, ranking_payload
from repro.obs import reset, stable_digest
from repro.service.sniffer import SnifferService

DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")
SEEDS = (7, 23)


def _matrix_digest(X: np.ndarray) -> str:
    X = np.ascontiguousarray(X, dtype=np.float64)
    return stable_digest([list(X.shape), X.tobytes().hex()])


def _capture_rows(captures) -> list[list]:
    return [
        [
            c.tweet.tweet_id,
            c.hour,
            c.capture_category.value,
            list(c.attribute_keys),
            list(c.sample_labels),
            list(c.node_user_ids),
            c.backfilled,
        ]
        for c in captures
    ]


def compute_digests(seed: int) -> dict[str, str]:
    """The golden digests of one ``micro`` run."""
    reset()
    scale = workload_scale("micro", seed=seed)
    experiment = PseudoHoneypotExperiment(
        scale.sim, candidate_pool=scale.candidate_pool, workers=0
    )
    firehose: list[dict] = []
    experiment.engine.subscribe(
        lambda tweet: firehose.append(tweet.to_json())
    )
    experiment.warm_up(scale.warmup_hours)
    collection = experiment.collect_ground_truth(
        hours=scale.gt_hours,
        n_targets=scale.gt_targets,
        per_value=scale.gt_per_value,
    )
    dataset = experiment.label_ground_truth(collection)
    detector = experiment.train_detector(collection, dataset)
    sweep = experiment.run_full_network(
        hours=scale.main_hours, per_value=scale.main_per_value
    )

    label_of = {
        tweet.tweet_id: int(dataset.tweet_labels[i])
        for i, tweet in enumerate(dataset.tweets)
    }
    kept = sorted(
        (c for c in collection.captures if c.tweet.tweet_id in label_of),
        key=lambda c: c.tweet.created_at,
    )
    labels = np.array([label_of[c.tweet.tweet_id] for c in kept])
    fit_X = copy.deepcopy(detector).extract_features(kept, labels)

    service = SnifferService(copy.deepcopy(detector))
    service.replay(sweep.captures)

    classifier = detector.classifier
    seen: list[np.ndarray] = []
    predict = classifier.predict

    def recording_predict(X: np.ndarray) -> np.ndarray:
        seen.append(np.array(X, copy=True))
        return predict(X)

    classifier.predict = recording_predict
    try:
        outcome = detector.classify(sweep.captures)
    finally:
        del classifier.predict

    return {
        "firehose": stable_digest(firehose),
        "captures": stable_digest(
            [
                _capture_rows(collection.captures),
                _capture_rows(sweep.captures),
            ]
        ),
        "labels": stable_digest(
            [
                [
                    [
                        tweet.tweet_id,
                        int(dataset.tweet_labels[i]),
                        dataset.tweet_method.get(tweet.tweet_id),
                    ]
                    for i, tweet in enumerate(dataset.tweets)
                ],
                sorted(dataset.user_labels.items()),
            ]
        ),
        "table6": stable_digest(
            ranking_payload(pge_by_sample(outcome, sweep.exposure))
        ),
        "fit_features": _matrix_digest(fit_X),
        "classify_features": _matrix_digest(np.vstack(seen)),
        "verdicts": stable_digest(
            [
                [c.tweet.tweet_id for c in outcome.captures],
                outcome.is_spam.tolist(),
                sorted(outcome.spammer_ids),
            ]
        ),
        "service_log": stable_digest(
            [
                [
                    r.tweet_id,
                    r.sender_id,
                    r.hour,
                    r.spam_probability,
                    r.is_spam,
                    r.backfilled,
                ]
                for r in service.results
            ]
        ),
    }


def _committed() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_golden_digests_unchanged(seed):
    expected = _committed()[str(seed)]
    assert compute_digests(seed) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: python -m tests.golden.test_golden --bless")
    old = _committed() if DIGESTS_PATH.exists() else {}
    new = {str(seed): compute_digests(seed) for seed in SEEDS}
    for seed, digests in new.items():
        for name, value in digests.items():
            if old.get(seed, {}).get(name) != value:
                print(f"seed {seed}: {name} -> {value}")
    DIGESTS_PATH.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
