import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantmatch.rng import SplitMix64


def scalar_permutation(rng, n):
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def scalar_sample(rng, n, k):
    items = list(range(n))
    for i in range(k):
        j = i + rng.randbelow(n - i)
        items[i], items[j] = items[j], items[i]
    return items[:k]


class TestBlockDraws:
    """The numpy-drawn shuffles give the scalar generator's integers and leave its state."""

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=8), st.integers(0, 2**64 - 1), st.integers(0, 600))
    def test_permutation_matches_the_scalar_loop(self, name, seed, n):
        fast, slow = SplitMix64.stream(name, seed), SplitMix64.stream(name, seed)
        assert fast.permutation(n) == scalar_permutation(slow, n)
        assert fast.next_u64() == slow.next_u64()

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=8), st.integers(0, 2**64 - 1), st.integers(0, 600), st.floats(0, 1))
    def test_sample_matches_the_scalar_loop(self, name, seed, n, share):
        k = int(share * n)
        fast, slow = SplitMix64.stream(name, seed), SplitMix64.stream(name, seed)
        assert fast.sample_without_replacement(n, k) == scalar_sample(slow, n, k)
        assert fast.next_u64() == slow.next_u64()

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 510, 4080])
    def test_training_sizes(self, n):
        for seed in range(20):
            fast, slow = SplitMix64.stream("trainer_batches", seed), SplitMix64.stream("trainer_batches", seed)
            assert fast.permutation(n) == scalar_permutation(slow, n)
            assert fast._state == slow._state

    @pytest.mark.parametrize("seed", range(8))
    def test_rejected_draws_fall_back_to_the_scalar_path(self, seed):
        # 2**64 mod (2**63 + 1) = 2**63 - 1, so about half of the draws are rejected
        moduli = [2**63 + 1, 5, 2**63 + 1, 2**62 + 3, 7, 2**63 + 1, 3]
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        assert fast._draws_below(np.asarray(moduli, dtype=np.uint64)) == [slow.randbelow(m) for m in moduli]
        assert fast._state == slow._state

    def test_no_draws_leave_the_state(self):
        rng = SplitMix64(3)
        assert rng._draws_below(np.arange(0)) == [] and rng._state == 3
