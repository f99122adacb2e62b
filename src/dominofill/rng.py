"""Portable deterministic randomness for seeded runs.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-gamma constant and scrambled by two xor-multiply
rounds.  It is trivial to reimplement in any language, which keeps seeded
runs reproducible across implementations.  Bounded draws use the
multiply-shift reduction ``(x * n) >> 64`` rather than rejection sampling,
so a draw always consumes exactly one raw output.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def scramble(x: int) -> int:
    """One SplitMix64 output round applied to an arbitrary 64-bit value."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX[0]) & _MASK
    z = ((z ^ (z >> 27)) * _MIX[1]) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable stream of 64-bit values with documented derived streams."""

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return scramble(self._state)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); exact enough for lattice offsets."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by ``below``.

        Swap k (k = 1 .. len - 1) swaps position i = len - k with
        ``below(i + 1)``.  Output k is ``scramble(state + k * gamma)``, a pure
        function of the counter, so all draws come from one ``uint64`` numpy
        pass; only the swaps run in order.  The multiply-shift is split in
        32-bit halves, which is exact for lists shorter than 2**32.
        """
        n = len(items)
        if n < 2:
            return
        k = np.arange(1, n, dtype=np.uint64)
        z = k * np.uint64(_GAMMA)
        z += np.uint64(self._state)
        for shift, mix in zip((30, 27), _MIX):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mix)
        z ^= z >> np.uint64(31)
        bound = np.uint64(n + 1) - k  # i + 1
        low = ((z & np.uint64(0xFFFFFFFF)) * bound) >> np.uint64(32)
        draws = ((z >> np.uint64(32)) * bound + low) >> np.uint64(32)
        for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
            items[i], items[j] = items[j], items[i]
        self._state = (self._state + (n - 1) * _GAMMA) & _MASK

    def fork(self, tag: int) -> "SplitMix64":
        """Child stream for purpose ``tag``, independent of draw order.

        The child seed is ``scramble(seed xor (tag + 1) * gamma)``, a pure
        function of the parent seed and the tag, so reordering unrelated
        draws never perturbs a derived stream.
        """
        child = scramble(self.seed ^ (((tag + 1) * _GAMMA) & _MASK))
        return SplitMix64(child)
