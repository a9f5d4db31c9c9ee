"""The pseudo-honeypot spam detector (Section IV).

Couples the 58-feature extractor with a pluggable classifier (the paper
deploys Random Forest with 70 trees after the Table-IV comparison).
Training consumes the ground-truth dataset; classification runs over
captured streams in timestamp order, feeding every confirmed spam back
into the environment-score tracker — the paper's online
reverse-engineering loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features.environment import EnvironmentScoreTracker
from ..features.extractor import FeatureExtractor
from ..labeling.pipeline import LabeledDataset
from ..ml.base import Classifier
from ..ml.forest import RandomForestClassifier
from ..obs import get_registry, trace
from .monitor import CapturedTweet


def default_classifier(seed: int = 0) -> RandomForestClassifier:
    """The paper's deployed configuration: RF, 70 trees, depth 700."""
    return RandomForestClassifier(
        n_estimators=70, max_depth=700, seed=seed
    )


def extract_captures(
    extractor: FeatureExtractor,
    captures: list[CapturedTweet],
    labels: np.ndarray | None = None,
) -> np.ndarray:
    """(n, 58) features of time-ordered captures through ``extractor``.

    Each capture's crossed nodes resolve its receiver; ``labels``
    (training) feed confirmed spams back row by row.
    """
    return extractor.extract_batch(
        [c.tweet for c in captures],
        [c.attribute_keys for c in captures],
        [c.node_user_ids for c in captures],
        labels,
    )


@dataclass
class ClassificationOutcome:
    """Result of classifying a captured stream."""

    captures: list[CapturedTweet]
    is_spam: np.ndarray
    spammer_ids: set[int] = field(default_factory=set)

    @property
    def n_spams(self) -> int:
        return int(self.is_spam.sum())

    @property
    def n_spammers(self) -> int:
        return len(self.spammer_ids)

    @property
    def n_tweets(self) -> int:
        return len(self.captures)


class PseudoHoneypotDetector:
    """Feature pipeline + classifier, trained on labeled captures.

    Args:
        classifier: any :class:`repro.ml.base.Classifier`; defaults to
            the paper's RF(70, depth 700).
        environment: shared group-likelihood tracker (fresh if omitted);
            the same tracker must be used for training and deployment so
            environment scores stay comparable.
    """

    def __init__(
        self,
        classifier: Classifier | None = None,
        environment: EnvironmentScoreTracker | None = None,
    ) -> None:
        self.classifier: Classifier = classifier or default_classifier()
        self.environment = environment or EnvironmentScoreTracker()
        self._fitted = False

    @property
    def fitted(self) -> bool:
        """Whether the detector is ready to classify."""
        return self._fitted

    @classmethod
    def from_fitted_classifier(
        cls,
        classifier: Classifier,
        environment: EnvironmentScoreTracker | None = None,
    ) -> "PseudoHoneypotDetector":
        """Wrap an already-fitted classifier, ready to classify.

        The service/soak harnesses fit classifiers outside the
        capture-labeling flow (e.g. on synthetic matrices) and only
        need the extraction + feedback plumbing around them.
        """
        detector = cls(classifier=classifier, environment=environment)
        detector._fitted = True
        return detector

    # ------------------------------------------------------------------

    def extract_features(
        self, captures: list[CapturedTweet], labels: np.ndarray | None = None
    ) -> np.ndarray:
        """(n, 58) features of captures, in timestamp order.

        When ``labels`` is given (training), confirmed spams update the
        environment tracker as they stream past, exactly as they would
        during live collection.
        """
        captures = sorted(captures, key=lambda c: c.tweet.created_at)
        extractor = FeatureExtractor(environment=self.environment)
        return extract_captures(extractor, captures, labels)

    def fit(
        self, captures: list[CapturedTweet], labels: np.ndarray
    ) -> "PseudoHoneypotDetector":
        """Train on labeled captures; returns self.

        Raises:
            ValueError: on empty or misaligned input.
        """
        if len(captures) != len(labels):
            raise ValueError("captures and labels must align")
        if len(captures) == 0:
            raise ValueError("cannot fit on an empty capture set")
        order = np.argsort([c.tweet.created_at for c in captures])
        captures = [captures[i] for i in order]
        labels = np.asarray(labels)[order]
        with trace("ml.fit") as span:
            with trace("ml.extract_features") as extract_span:
                X = self.extract_features(captures, labels)
                extract_span.set(n_rows=X.shape[0], n_features=X.shape[1])
            self.classifier.fit(X, labels)
            span.set(
                n_samples=len(captures),
                n_spam_labels=int(np.asarray(labels).sum()),
                classifier=type(self.classifier).__name__,
            )
        get_registry().counter("ml.fits").inc()
        self._fitted = True
        return self

    def fit_from_ground_truth(
        self, captures: list[CapturedTweet], dataset: LabeledDataset
    ) -> "PseudoHoneypotDetector":
        """Train using a :class:`LabeledDataset` keyed by tweet id.

        Captures whose tweets the dataset never labeled are skipped.
        """
        label_of = {
            tweet.tweet_id: int(dataset.tweet_labels[i])
            for i, tweet in enumerate(dataset.tweets)
        }
        kept = [c for c in captures if c.tweet.tweet_id in label_of]
        labels = np.array([label_of[c.tweet.tweet_id] for c in kept])
        return self.fit(kept, labels)

    def classify(
        self, captures: list[CapturedTweet], chunk_size: int = 2_000
    ) -> ClassificationOutcome:
        """Classify a captured stream; spams update environment scores.

        The stream is processed in timestamp-ordered chunks: features
        of a chunk are extracted with the environment state as of the
        previous chunk, the chunk is classified, and its confirmed
        spams update the tracker before the next chunk — the paper's
        online feedback loop at batch granularity (predicting tweet by
        tweet would forfeit vectorized inference for no behavioral
        difference at this timescale).

        Raises:
            RuntimeError: if the detector was never fitted.
        """
        if not self._fitted:
            raise RuntimeError("detector must be fit before classifying")
        order = np.argsort([c.tweet.created_at for c in captures])
        ordered = [captures[i] for i in order]
        extractor = FeatureExtractor(environment=self.environment)
        is_spam = np.zeros(len(ordered), dtype=np.int64)
        spammer_ids: set[int] = set()
        for start in range(0, len(ordered), chunk_size):
            chunk = ordered[start : start + chunk_size]
            X = extract_captures(extractor, chunk)
            verdicts = np.asarray(
                self.classifier.predict(X), dtype=np.int64
            )
            is_spam[start : start + len(chunk)] = verdicts
            for capture, spam in zip(chunk, verdicts):
                if spam:
                    spammer_ids.add(capture.sender_id)
                    self.environment.record_spam(capture.attribute_keys)
        return ClassificationOutcome(
            captures=ordered, is_spam=is_spam, spammer_ids=spammer_ids
        )
