"""Closed-world website classifier (the Deep Fingerprinting stand-in).

:class:`KnnClassifier` is k-nearest-neighbours over z-scored CUMUL feature
vectors from :mod:`repro.fingerprint.features`.  DESIGN.md §2 explains
why a classical attacker suffices: the Browser defense collapses the
traffic *shape*, so its effect shows up in any competent classifier.

Feature rows are lists of floats and labels are ints.  Every choice is a
function of the data: training rows rank by ``(distance, index)`` and a
tied vote goes to the smallest label.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter

from repro.util.rng import DeterministicRandom


class KnnClassifier:
    """k-NN over z-scored features (Euclidean)."""

    def __init__(self, k: int = 3) -> None:
        self.k = k

    def fit(self, X: list[list[float]], y: list[int]) -> "KnnClassifier":
        """Train on (X, y); returns self."""
        n = len(X)
        self._mean, self._std = [], []
        for column in zip(*X):
            mean = sum(column) / n
            deviations = [value - mean for value in column]
            std = math.sqrt(sum(d * d for d in deviations) / n)
            self._mean.append(mean)
            self._std.append(std if std >= 1e-12 else 1.0)
        self._X = [self._zscore(row) for row in X]
        self._y = list(y)
        return self

    def _zscore(self, row: list[float]) -> list[float]:
        return [(value - mean) / std
                for value, mean, std in zip(row, self._mean, self._std)]

    def predict(self, X: list[list[float]]) -> list[int]:
        """Predicted labels for each row of X."""
        k = min(self.k, len(self._y))
        predictions = []
        for row in X:
            query = self._zscore(row)
            nearest = heapq.nsmallest(
                k, range(len(self._X)),
                key=lambda i: (math.dist(query, self._X[i]), i))
            votes = Counter(self._y[i] for i in nearest)
            predictions.append(min(votes,
                                   key=lambda label: (-votes[label], label)))
        return predictions


def _stratified_indices(y: list[int], train_fraction: float,
                        seed: int | str) -> tuple[list[int], list[int]]:
    rng = DeterministicRandom(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(set(y)):
        indices = [i for i, value in enumerate(y) if value == label]
        rng.shuffle(indices)
        n_train = max(1, int(round(len(indices) * train_fraction)))
        train_idx += indices[:n_train]
        test_idx += indices[n_train:]
    if not test_idx:
        raise ValueError("no test samples; need >1 visit per site")
    return train_idx, test_idx


def _split_predict(classifier, X: list[list[float]], y: list[int],
                   train_fraction: float,
                   seed: int | str) -> tuple[list[int], list[int]]:
    """Stratified split, fit, predict -> (true labels, predictions)."""
    train_idx, test_idx = _stratified_indices(y, train_fraction, seed)
    classifier.fit([X[i] for i in train_idx], [y[i] for i in train_idx])
    return ([y[i] for i in test_idx],
            classifier.predict([X[i] for i in test_idx]))


def _share(flags: list[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def evaluate_split(classifier, X: list[list[float]], y: list[int],
                   train_fraction: float = 0.7,
                   seed: int | str = "split") -> float:
    """Stratified train/test split -> test accuracy.

    Every class contributes at least one training sample; classes with a
    single sample go to training only (they cannot be tested fairly).
    """
    truth, predictions = _split_predict(classifier, X, y, train_fraction,
                                        seed)
    return _share([t == p for t, p in zip(truth, predictions)])


def confusion_matrix(classifier, X: list[list[float]], y: list[int],
                     train_fraction: float = 0.7,
                     seed: int | str = "split"
                     ) -> tuple[list[int], list[list[int]]]:
    """Stratified split -> (labels, counts) confusion matrix.

    ``counts[i][j]`` is the number of test traces of site ``labels[i]``
    predicted as site ``labels[j]`` — the per-site view behind the
    aggregate accuracy (which sites a defense actually protects).
    """
    truth, predictions = _split_predict(classifier, X, y, train_fraction,
                                        seed)
    labels = sorted(set(y))
    index_of = {label: i for i, label in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for t, p in zip(truth, predictions):
        counts[index_of[t]][index_of[p]] += 1
    return labels, counts


def evaluate_open_world(classifier, X: list[list[float]], y: list[int],
                        monitored: set, train_fraction: float = 0.7,
                        seed: int | str = "ow-split") -> dict:
    """Open-world evaluation: the attacker monitors a subset of sites.

    Unmonitored traces are labelled as a single background class for
    training; returns true/false-positive rates for "visited a monitored
    site" plus the closed-world accuracy on monitored traffic.  This is
    the evaluation regime most WF papers report alongside Table-1-style
    closed-world numbers.
    """
    background = -1
    collapsed = [label if label in monitored else background for label in y]
    truth, predictions = _split_predict(classifier, X, collapsed,
                                        train_fraction, seed)
    on_monitored = [(t, p) for t, p in zip(truth, predictions)
                    if t != background]
    return {
        "tpr": _share([p != background for _, p in on_monitored]),
        "fpr": _share([p != background
                       for t, p in zip(truth, predictions)
                       if t == background]),
        "monitored_accuracy": _share([t == p for t, p in on_monitored]),
    }
