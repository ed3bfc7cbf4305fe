"""The k-NN attacker's outputs, pinned, and held to a brute-force oracle.

The predicted labels and confusion counts below were recorded from the
first, numpy ``KnnClassifier`` on two fixed datasets: the six-site lab
``TestLabSmall`` uses, and a seeded synthetic set.  The standard-library
rewrite reproduces them unchanged.  A hypothesis property then holds
``KnnClassifier`` to :func:`reference_predict` on small sets full of
duplicate rows, where distance and vote ties decide the answer, and
``TestOracleHasTeeth`` shows each check failing under a mutant.
"""

import math
import pathlib
import sys
import types

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.fingerprint import FingerprintLab
from repro.fingerprint import classifier
from repro.util.rng import DeterministicRandom


class _Recording:
    """Wraps a classifier and keeps what it predicted, as ints."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.predicted = []

    def fit(self, X, y):
        self.inner.fit(X, y)
        return self

    def predict(self, X):
        predictions = self.inner.predict(X)
        self.predicted = [int(label) for label in predictions]
        return predictions


def _pinned_run(X, y, k, train_fraction, seed):
    """(predicted labels, labels, confusion counts) of a k-NN on one split."""
    recording = _Recording(classifier.KnnClassifier(k=k))
    labels, counts = classifier.confusion_matrix(
        recording, X, y, train_fraction=train_fraction, seed=seed)
    return (recording.predicted, [int(label) for label in labels],
            [[int(count) for count in row] for row in counts])


def synthetic_set():
    """8 sites x 10 visits in 12 dimensions, per-dimension scales spanning
    four decades (so z-scoring matters) and noise enough to confuse."""
    rng = DeterministicRandom("knn-pins")
    scales = [10.0 ** (i % 4) for i in range(12)]
    centers = [[rng.gauss(0.0, 1.0) * s for s in scales] for _ in range(8)]
    X, y = [], []
    for visit in range(10):
        for site, center in enumerate(centers):
            X.append([c + rng.gauss(0.0, 0.8) * s
                      for c, s in zip(center, scales)])
            y.append(site)
    return X, y


SYNTHETIC_PREDICTED = [0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2, 2, 2, 2, 2, 5, 3, 3, 3,
                       3, 4, 4, 2, 4, 4, 5, 1, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7,
                       7, 7]
SYNTHETIC_COUNTS = [[5, 0, 0, 0, 0, 0, 0, 0],
                    [1, 4, 0, 0, 0, 0, 0, 0],
                    [0, 0, 5, 0, 0, 0, 0, 0],
                    [0, 0, 0, 4, 0, 1, 0, 0],
                    [0, 0, 1, 0, 4, 0, 0, 0],
                    [0, 1, 0, 0, 0, 4, 0, 0],
                    [0, 0, 0, 0, 0, 0, 5, 0],
                    [0, 0, 0, 0, 0, 0, 0, 5]]

LAB_PREDICTED = {"none": [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
                 "padded": [0, 3, 0, 1, 1, 1, 0, 1, 0, 4, 4, 4]}
LAB_COUNTS = {"none": [[2, 0, 0, 0, 0, 0],
                       [0, 2, 0, 0, 0, 0],
                       [0, 0, 2, 0, 0, 0],
                       [0, 0, 0, 2, 0, 0],
                       [0, 0, 0, 0, 2, 0],
                       [0, 0, 0, 0, 0, 2]],
              "padded": [[1, 0, 0, 1, 0, 0],
                         [1, 1, 0, 0, 0, 0],
                         [0, 2, 0, 0, 0, 0],
                         [1, 1, 0, 0, 0, 0],
                         [1, 0, 0, 0, 1, 0],
                         [0, 0, 0, 0, 2, 0]]}


@pytest.fixture(scope="module")
def lab_datasets():
    """TestLabSmall's lab, collected once per condition: unmodified Tor,
    and the Browser defense padding to 512 KiB."""
    lab = FingerprintLab(n_sites=6, n_relays=9, seed="lab-tests",
                         max_total=300 * 1024)
    return {"none": lab.dataset(lab.collect("none", visits_per_site=4)),
            "padded": lab.dataset(lab.collect("browser", visits_per_site=4,
                                              padding=512 * 1024))}


def test_synthetic_predictions_are_pinned():
    predicted, labels, counts = _pinned_run(*synthetic_set(), k=3,
                                            train_fraction=0.5, seed="pin")
    assert labels == list(range(8))
    assert predicted == SYNTHETIC_PREDICTED
    assert counts == SYNTHETIC_COUNTS


@pytest.mark.parametrize("defense", ["none", "padded"])
def test_lab_predictions_are_pinned(lab_datasets, defense):
    predicted, labels, counts = _pinned_run(*lab_datasets[defense], k=3,
                                            train_fraction=0.5, seed="pin")
    assert labels == list(range(6))
    assert predicted == LAB_PREDICTED[defense]
    assert counts == LAB_COUNTS[defense]


def reference_predict(train_X, train_y, test_X, k):
    """Brute force: z-score, sort every training row by (distance, index),
    and take the most common label among the first k, the smallest on a
    tie."""
    n = len(train_X)
    means = [sum(column) / n for column in zip(*train_X)]
    stds = [math.sqrt(sum((v - m) * (v - m) for v in column) / n)
            for column, m in zip(zip(*train_X), means)]
    stds = [s if s >= 1e-12 else 1.0 for s in stds]

    def zscore(row):
        return [(v - m) / s for v, m, s in zip(row, means, stds)]

    train = [zscore(row) for row in train_X]
    predictions = []
    for row in test_X:
        query = zscore(row)
        ranked = sorted(range(n),
                        key=lambda i: (math.dist(query, train[i]), i))
        votes = [train_y[i] for i in ranked[:k]]
        most = max(votes.count(label) for label in votes)
        predictions.append(min(label for label in votes
                               if votes.count(label) == most))
    return predictions


@st.composite
def knn_problems(draw):
    """Up to 40 rows in up to 8 dimensions, drawn from a pool of at most 6
    distinct points (so rows repeat and distances tie), each dimension on
    its own scale."""
    d = draw(st.integers(1, 8))
    scales = draw(st.lists(st.sampled_from([0.01, 1.0, 100.0]),
                           min_size=d, max_size=d))
    pool = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                  max_size=d), min_size=1, max_size=6))
    points = st.sampled_from(pool).map(
        lambda row: [v * s for v, s in zip(row, scales)])
    n = draw(st.integers(1, 40))
    X = draw(st.lists(points, min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    queries = draw(st.lists(points, min_size=1, max_size=5))
    return X, y, queries, draw(st.integers(1, 5))


def _agrees_with_the_reference(problem):
    X, y, queries, k = problem
    model = classifier.KnnClassifier(k=k).fit(X, y)
    assert model.predict(queries) == reference_predict(X, y, queries, k)


@given(knn_problems())
def test_knn_matches_the_brute_force_reference(problem):
    _agrees_with_the_reference(problem)


#: The same property without its shrink phase, for the mutants below: the
#: first counterexample is enough, and shrinking one can take a minute.
_unshrunk_property = settings(phases=[Phase.generate])(
    given(knn_problems())(_agrees_with_the_reference))


def _mutant(old: str, new: str) -> types.ModuleType:
    """``repro.fingerprint.classifier`` with ``old`` (which must occur
    once) replaced by ``new``."""
    source = pathlib.Path(classifier.__file__).read_text()
    assert source.count(old) == 1, old
    module = types.ModuleType("classifier_mutant")
    exec(compile(source.replace(old, new), "<mutant>", "exec"),
         module.__dict__)
    return module


class TestOracleHasTeeth:
    """Each mutant makes the checks named fail: the property (unshrunk)
    and, where named, a pin."""

    @pytest.fixture()
    def fails_under(self, monkeypatch):
        def check(old: str, new: str, *checks) -> None:
            monkeypatch.setattr(sys.modules[__name__], "classifier",
                                _mutant(old, new))
            for check in checks:
                with pytest.raises((AssertionError, ExceptionGroup)) as failed:
                    check()
                if isinstance(failed.value, ExceptionGroup):
                    assert failed.value.split(AssertionError)[1] is None
        return check

    def test_a_vote_tie_going_to_the_largest_label_is_caught(
            self, fails_under):
        fails_under("key=lambda label: (-votes[label], label))",
                    "key=lambda label: (-votes[label], -label))",
                    _unshrunk_property)

    def test_skipping_the_zscore_is_caught(self, fails_under):
        fails_under("        self._X = [self._zscore(row) for row in X]",
                    "        self._zscore = lambda row: list(row)\n"
                    "        self._X = [self._zscore(row) for row in X]",
                    _unshrunk_property,
                    test_synthetic_predictions_are_pinned)

    def test_an_unstable_distance_sort_is_caught(self, fails_under):
        fails_under("key=lambda i: (math.dist(query, self._X[i]), i))",
                    "key=lambda i: (math.dist(query, self._X[i]), -i))",
                    _unshrunk_property)
