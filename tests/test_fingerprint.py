"""The fingerprinting pipeline: corpus, features, classifiers, lab."""

import pytest

from repro.fingerprint.classifier import KnnClassifier, evaluate_split
from repro.fingerprint.features import extract_features
from repro.fingerprint.lab import FingerprintLab, TraceSample
from repro.fingerprint.websites import build_corpus
from repro.netsim.trace import INCOMING, OUTGOING, PacketRecord
from repro.util.rng import DeterministicRandom


def clustered_dataset(n_classes, per_class, dims, noise, seed):
    """``per_class`` noisy copies of each of ``n_classes`` random centers."""
    rng = DeterministicRandom(seed)
    centers = [[rng.gauss(0.0, 1.0) for _ in range(dims)]
               for _ in range(n_classes)]
    X = [[c + noise * rng.gauss(0.0, 1.0) for c in center]
         for center in centers for _ in range(per_class)]
    y = [label for label in range(n_classes) for _ in range(per_class)]
    return X, y


class TestCorpus:
    def test_deterministic(self):
        a = build_corpus(10, seed="x")
        b = build_corpus(10, seed="x")
        assert [s.resource_sizes for s in a] == [s.resource_sizes for s in b]

    def test_seed_changes_corpus(self):
        a = build_corpus(10, seed="x")
        b = build_corpus(10, seed="y")
        assert [s.total_bytes for s in a] != [s.total_bytes for s in b]

    def test_totals_in_bounds(self):
        for site in build_corpus(50, min_total=10_000, max_total=100_000):
            # resource rounding can push slightly past the nominal total
            assert 10_000 <= site.total_bytes <= 130_000

    def test_index_page_lists_resources(self):
        site = build_corpus(3)[1]
        lines = site.index_page.decode().splitlines()
        paths = [line for line in lines if line.startswith("/")]
        assert len(paths) == len(site.resource_sizes) - 1

    def test_resources_materialize(self):
        from repro.util.rng import DeterministicRandom

        site = build_corpus(3)[0]
        bodies = site.resources(DeterministicRandom("b"))
        assert set(bodies) == {"/"} | {f"/r{j}"
                                       for j in range(len(site.resource_sizes) - 1)}
        for path, size in zip(sorted(bodies), sorted(bodies)):
            assert isinstance(bodies[path], bytes)


class TestFeatures:
    def _trace(self, sizes_dirs):
        return [PacketRecord(time=i * 0.01, direction=d, size=s)
                for i, (s, d) in enumerate(sizes_dirs)]

    def test_vector_length(self):
        trace = self._trace([(514, OUTGOING), (514, INCOMING)] * 10)
        assert len(extract_features(trace, n_points=50)) == 55

    def test_empty_trace(self):
        assert extract_features([]) == [0.0] * 105

    def test_summary_fields(self):
        trace = self._trace([(100, OUTGOING), (200, INCOMING),
                             (300, INCOMING)])
        features = extract_features(trace, n_points=10)
        total_in, total_out, count_in, count_out, _dur = features[-5:]
        assert (total_in, total_out, count_in, count_out) == (500, 100, 2, 1)

    def test_direction_matters(self):
        a = self._trace([(514, OUTGOING)] * 20)
        b = self._trace([(514, INCOMING)] * 20)
        assert extract_features(a) != extract_features(b)

    def test_cumul_curve_interpolates_between_packets(self):
        trace = self._trace([(100, OUTGOING), (300, INCOMING),
                             (50, OUTGOING)])
        # cumulative 100, -200, -150 at packets 0, 1, 2; 5 points land on
        # packets 0, 0.5, 1, 1.5, 2.
        assert extract_features(trace, n_points=5)[:5] == [
            100.0, -50.0, -200.0, -175.0, -150.0]

    def test_matrix_stacking(self):
        traces = [self._trace([(514, OUTGOING)] * 5) for _ in range(4)]
        samples = [TraceSample(site=i, defense="none", padding=0,
                               records=trace, elapsed=0.0)
                   for i, trace in enumerate(traces)]
        X, y = FingerprintLab.dataset(samples)
        assert [len(row) for row in X] == [105] * 4 and y == [0, 1, 2, 3]


class TestClassifiers:
    def _toy_dataset(self, n_classes=5, per_class=10, noise=0.05, seed=0):
        return clustered_dataset(n_classes, per_class, 20, noise, seed)

    def test_knn_separable(self):
        X, y = self._toy_dataset()
        assert evaluate_split(KnnClassifier(k=3), X, y) > 0.95

    def test_chance_on_pure_noise(self):
        rng = DeterministicRandom(1)
        X = [[rng.gauss(0.0, 1.0) for _ in range(30)] for _ in range(200)]
        y = [i // 10 for i in range(200)]
        accuracy = evaluate_split(KnnClassifier(k=3), X, y)
        assert accuracy < 0.3      # 5% chance + generous slack

    def test_split_needs_multiple_visits(self):
        X = [[0.0] * 4 for _ in range(3)]
        y = [0, 1, 2]
        with pytest.raises(ValueError):
            evaluate_split(KnnClassifier(), X, y, train_fraction=0.99)

    def test_knn_deterministic(self):
        X, y = self._toy_dataset(seed=7)
        a = evaluate_split(KnnClassifier(k=3), X, y, seed="s")
        b = evaluate_split(KnnClassifier(k=3), X, y, seed="s")
        assert a == b


class TestLabSmall:
    """End-to-end pipeline on a tiny corpus (kept small: real simulation)."""

    @pytest.fixture(scope="class")
    def lab(self):
        return FingerprintLab(n_sites=6, n_relays=9, seed="lab-tests",
                              max_total=300 * 1024)

    def test_standard_attack_beats_chance(self, lab):
        samples = lab.collect("none", visits_per_site=4)
        X, y = lab.dataset(samples)
        accuracy = evaluate_split(KnnClassifier(k=1), X, y,
                                  train_fraction=0.75)
        assert accuracy > 0.6          # chance is ~0.17

    def test_full_padding_defeats_attack(self, lab):
        samples = lab.collect("browser", visits_per_site=4,
                              padding=512 * 1024)
        X, y = lab.dataset(samples)
        accuracy = evaluate_split(KnnClassifier(k=1), X, y,
                                  train_fraction=0.75)
        assert accuracy <= 0.5         # collapses toward chance

    def test_traces_labelled_and_nonempty(self, lab):
        samples = lab.collect("none", visits_per_site=2, site_indices=[0, 3])
        assert {s.site for s in samples} == {0, 3}
        assert all(len(s.records) > 20 for s in samples)

    def test_browser_hides_upstream_pattern(self, lab):
        """Under the defense the client sends almost nothing after the
        install: upstream volume is tiny relative to downstream."""
        samples = lab.collect("browser", visits_per_site=1,
                              site_indices=[1], padding=0)
        records = samples[0].records
        up = sum(r.size for r in records if r.direction == OUTGOING)
        down = sum(r.size for r in records if r.direction == INCOMING)
        assert down > 2 * up
