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

    def shuffle(self, items: list | np.ndarray) -> None:
        """In-place Fisher-Yates shuffle driven by ``below``; a list or 1-D array.

        Swap s (s = len - 1 .. 1) exchanges positions s and
        ``j[s] = below(s + 1)``, so its draw is output ``len - s``, which is
        ``scramble(state + (len - s) * gamma)``: all draws come from one
        ``uint64`` numpy pass and the stream advances by ``len - 1`` draws.
        The multiply-shift is split in 32-bit halves, which is exact for
        fewer than 2**32 items.

        The swaps are not replayed one by one; the order follows from the
        targets.  Position s is final after swap s and holds what position
        ``j[s]`` held just before it: ``g(next(s))``, where ``next(s)`` is the
        smallest s' > s with ``j[s'] = j[s]``, or item ``j[s]`` when there is
        none.  ``g(s)``, what position s holds just before swap s, is
        ``g(first(s))``, where ``first(s)`` is the smallest s'' > s with
        ``j[s''] = s``, or item s when there is none.  Position 0 ends with
        ``g(first(0))``, or item 0, which is the same rule with ``j[0] = 0``.
        One sort of the keys ``j[s] * 2**32 + s`` lists each target's swaps
        in order, which gives ``next`` and ``first``; ``first`` is injective,
        so the ``g`` chains are disjoint paths, resolved by pointer doubling.
        """
        n = len(items)
        if n < 2:
            return
        src = _fisher_yates_sources(self._state, n)
        if isinstance(items, np.ndarray):
            items[:] = items[src]
        else:
            items[:] = [items[i] for i in src.tolist()]
        self._state = (self._state + (n - 1) * _GAMMA) & _MASK

    def fork(self, tag: int) -> "SplitMix64":
        """Child stream for purpose ``tag``, independent of draw order.

        The child seed is ``scramble(seed xor (tag + 1) * gamma)``, a pure
        function of the parent seed and the tag, so reordering unrelated
        draws never perturbs a derived stream.
        """
        child = scramble(self.seed ^ (((tag + 1) * _GAMMA) & _MASK))
        return SplitMix64(child)


def _fisher_yates_sources(state: int, n: int) -> np.ndarray:
    """Indices ``src`` such that ``items[src]`` is the shuffle from ``state``.

    ``SplitMix64.shuffle`` states the rule.  Every step is one array pass,
    except the pointer doubling, which loops once per doubling of the longest
    chain.  The 8-byte temporaries are freed once spent.
    """
    # j[s] = below(s + 1) from output n - s; at s = 0 the bound is 1, so j[0] = 0.
    s = np.arange(n, dtype=np.uint64)
    z = np.uint64(n) - s
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    tmp = np.empty_like(z)
    for shift, mix in zip((30, 27), _MIX):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    s += np.uint64(1)  # the bound s + 1, until the keys need s again
    np.bitwise_and(z, np.uint64(0xFFFFFFFF), out=tmp)
    tmp *= s
    tmp >>= np.uint64(32)
    z >>= np.uint64(32)
    z *= s
    z += tmp
    z >>= np.uint64(32)
    del tmp
    # Keys j[s] * 2**32 + s, sorted: each target's swaps in increasing s.
    keys = z
    keys <<= np.uint64(32)
    s -= np.uint64(1)
    keys |= s
    del s
    keys.sort()
    target = (keys >> np.uint64(32)).view(np.int64)
    keys &= np.uint64(0xFFFFFFFF)
    swap = keys.view(np.int64)
    same = target[1:] == target[:-1]  # swap[k + 1] is next(swap[k])
    # As j[s] <= s, v's own swap leads v's run when j[v] = v; first(v) is the
    # first swap of the run that is not v.
    moved = swap != target
    heads = moved.copy()
    heads[1:] &= ~(same & moved[:-1])
    heads = np.flatnonzero(heads)
    # root[s]: the end of s's first-chain, whose item is g(s).
    root = np.arange(n)
    live = target[heads]
    root[live] = swap[heads]
    del heads
    while live.size:
        hop = root[live]
        jump = root[hop]
        root[live] = jump
        live = np.compress(jump != hop, live)
    # Position swap[k] takes g(next(swap[k])) if there is a next, else item target[k].
    k = np.flatnonzero(same)
    target[k] = root[swap[k + 1]]
    del k, root
    src = np.empty(n, dtype=np.intp)
    src[swap] = target
    return src
