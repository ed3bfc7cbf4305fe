"""Confusion matrices and open-world fingerprinting evaluation."""

from repro.fingerprint.classifier import (
    KnnClassifier,
    confusion_matrix,
    evaluate_open_world,
)

from test_fingerprint import clustered_dataset


def _clustered_dataset(n_classes=8, per_class=12, noise=0.05, seed=0):
    return clustered_dataset(n_classes, per_class, 16, noise, seed)


def _diagonal_share(counts):
    return (sum(counts[i][i] for i in range(len(counts)))
            / sum(map(sum, counts)))


class TestConfusionMatrix:
    def test_diagonal_dominates_when_separable(self):
        X, y = _clustered_dataset()
        labels, counts = confusion_matrix(KnnClassifier(k=3), X, y)
        assert _diagonal_share(counts) > 0.9
        assert labels == list(range(8))

    def test_rows_sum_to_test_counts(self):
        X, y = _clustered_dataset(per_class=10)
        _labels, counts = confusion_matrix(KnnClassifier(k=3), X, y,
                                           train_fraction=0.7)
        assert [sum(row) for row in counts] == [3] * 8   # 10 - 7 per class

    def test_noise_spreads_off_diagonal(self):
        X, y = _clustered_dataset(noise=50.0)
        _labels, counts = confusion_matrix(KnnClassifier(k=3), X, y)
        assert _diagonal_share(counts) < 0.5


class TestOpenWorld:
    def test_monitored_sites_detected(self):
        X, y = _clustered_dataset(n_classes=10, per_class=12)
        result = evaluate_open_world(KnnClassifier(k=3), X, y,
                                     monitored={0, 1, 2})
        assert result["tpr"] > 0.85
        assert result["fpr"] < 0.2
        assert result["monitored_accuracy"] > 0.8

    def test_indistinguishable_traces_confuse_attacker(self):
        """All-identical features (full padding): the attacker cannot
        separate monitored from background traffic."""
        X = [[0.0] * 16 for _ in range(120)]
        y = [i // 12 for i in range(120)]
        result = evaluate_open_world(KnnClassifier(k=3), X, y,
                                     monitored={0, 1, 2})
        # Whatever it predicts, it cannot have both high TPR and low FPR.
        assert not (result["tpr"] > 0.8 and result["fpr"] < 0.3)

    def test_no_monitored_traffic_edge(self):
        X, y = _clustered_dataset(n_classes=4)
        result = evaluate_open_world(KnnClassifier(k=3), X, y,
                                     monitored={99})   # never visited
        assert result["tpr"] == 0.0
        assert result["monitored_accuracy"] == 0.0
