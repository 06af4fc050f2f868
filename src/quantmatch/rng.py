"""Portable deterministic randomness.

A SplitMix64 state machine with Box-Muller normals instead of numpy's
Generator: the bit stream is pinned by ~20 lines of integer arithmetic, so
seeded runs reproduce exactly on any platform or library version.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """64-bit SplitMix64 PRNG with uniform, normal, and permutation helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    @classmethod
    def stream(cls, name: str, seed: int) -> "SplitMix64":
        """Independent substream keyed by (name, seed)."""
        return cls(_fnv1a64(name.encode("utf-8")) ^ ((seed * _GOLDEN) & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller (pairs cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # u1 in (0, 1] so the log is finite
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, shape) -> np.ndarray:
        size = int(np.prod(shape))
        out = np.empty(size, dtype=float)
        for i in range(size):
            out[i] = self.normal()
        return out.reshape(shape)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("n must be positive")
        bound = _MASK64 + 1 - (_MASK64 + 1) % n
        while True:
            r = self.next_u64()
            if r < bound:
                return r % n

    def _draws_below(self, moduli: np.ndarray) -> list[int]:
        """[self.randbelow(m) for m in moduli]: the same integers and the same final state.

        The state is a counter, so the next outputs are mixed as one numpy
        uint64 block.  Rejection (probability below m / 2**64 a draw) is
        checked on the whole block; from the first rejected draw on, the
        scalar randbelow takes over at that draw's state.
        """
        moduli = np.asarray(moduli, dtype=np.uint64)
        start = self._state
        z = np.uint64(start) + np.arange(1, moduli.size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        # r < 2**64 - (2**64 mod m), with 2**64 mod m = (MASK64 mod m + 1) mod m
        mask = np.uint64(_MASK64)
        accepted = z <= mask - (mask % moduli + 1) % moduli
        kept = moduli.size if accepted.all() else int(accepted.argmin())
        draws = (z[:kept] % moduli[:kept]).tolist()
        self._state = (start + kept * _GOLDEN) & _MASK64
        draws.extend(self.randbelow(m) for m in moduli[kept:].tolist())
        return draws

    def permutation(self, n: int) -> list[int]:
        """range(n) shuffled by Fisher-Yates."""
        items = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self._draws_below(np.arange(n, 1, -1))):
            items[i], items[j] = items[j], items[i]
        return items

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        items = list(range(n))
        for i, j in zip(range(k), self._draws_below(np.arange(n, n - k, -1))):
            j += i
            items[i], items[j] = items[j], items[i]
        return items[:k]
