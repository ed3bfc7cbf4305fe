"""Determinism of the RNG and id generators — the reproducibility bedrock."""

from repro.util.idgen import IdGenerator
from repro.util.rng import DeterministicRandom


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom(42)
        b = DeterministicRandom(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert DeterministicRandom(1).random() != DeterministicRandom(2).random()

    def test_fork_is_independent(self):
        parent = DeterministicRandom(7)
        fork_a = parent.fork("a")
        before = parent.random()
        # Consuming the fork must not perturb the parent stream.
        parent2 = DeterministicRandom(7)
        parent2.fork("a").random()
        assert parent2.random() == before
        assert fork_a.random() != before

    def test_fork_labels_distinct(self):
        parent = DeterministicRandom(7)
        assert parent.fork("x").random() != parent.fork("y").random()

    def test_randbytes_length_and_determinism(self):
        a = DeterministicRandom("s").randbytes(33)
        b = DeterministicRandom("s").randbytes(33)
        assert len(a) == 33 and a == b

    def test_weighted_choice_respects_zero_weight(self):
        rng = DeterministicRandom(3)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0])
                 for _ in range(50)}
        assert picks == {"a"}

    def test_weighted_choice_proportions(self):
        rng = DeterministicRandom(4)
        picks = [rng.weighted_choice(["a", "b"], [9.0, 1.0])
                 for _ in range(1000)]
        assert 820 < picks.count("a") < 980

    def test_weighted_choice_rejects_bad_input(self):
        import pytest

        rng = DeterministicRandom(5)
        with pytest.raises(ValueError):
            rng.weighted_choice(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            rng.weighted_choice([], [])
        with pytest.raises(ValueError):
            rng.weighted_choice(["a"], [0.0])


class TestIdGenerator:
    def test_uniqueness(self):
        gen = IdGenerator("seed")
        ids = {gen.next_hex() for _ in range(500)}
        assert len(ids) == 500

    def test_determinism_across_instances(self):
        assert (IdGenerator("x").next_hex(8)
                == IdGenerator("x").next_hex(8))

    def test_seed_separation(self):
        assert IdGenerator("x").next_hex() != IdGenerator("y").next_hex()

    def test_requested_length(self):
        assert len(IdGenerator("z").next_bytes(40)) == 40
