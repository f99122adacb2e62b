"""The seeded stream: the array-pass shuffle against the scalar ``below`` loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import shuffle_by_below

from dominofill.rng import SplitMix64


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**64 - 1) | st.integers(0, 100),
    n=st.integers(0, 40) | st.integers(0, 5000),
)
def test_shuffle_matches_scalar_draws(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got, want = list(range(n)), list(range(n))
    fast.shuffle(got)
    shuffle_by_below(slow, want)
    assert got == want
    assert fast.next_u64() == slow.next_u64()  # the stream advanced by the same draws


def test_shuffle_near_the_top_of_the_counter():
    seed = 2**64 - 3
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got, want = list("abcdefghij"), list("abcdefghij")
    fast.shuffle(got)
    shuffle_by_below(slow, want)
    assert got == want and fast.next_u64() == slow.next_u64()


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 1) | st.integers(0, 100),
    n=st.integers(0, 40) | st.integers(0, 5000),
)
def test_array_shuffle_matches_list_shuffle(seed, n):
    on_array, on_list = SplitMix64(seed), SplitMix64(seed)
    backing = np.full(n + 2, -1, dtype=np.int64)
    backing[1:-1] = np.arange(n) * 7 - 3
    want = backing[1:-1].tolist()
    on_array.shuffle(backing[1:-1])  # a view: the shuffle lands in the caller's buffer
    on_list.shuffle(want)
    assert backing[1:-1].tolist() == want
    assert backing[0] == backing[-1] == -1
    assert on_array.next_u64() == on_list.next_u64()


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_shortest_shuffles(n, seed):
    """Fewer than two items draw nothing; two items draw once."""
    as_list, as_array, slow = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
    got_list, got_array, want = list("xy"[:n]), np.arange(n), list("xy"[:n])
    as_list.shuffle(got_list)
    as_array.shuffle(got_array)
    shuffle_by_below(slow, want)
    assert got_list == want
    assert ["xy"[i] for i in got_array.tolist()] == want
    untouched = SplitMix64(seed)
    for _ in range(max(n - 1, 0)):
        untouched.next_u64()
    assert as_list.next_u64() == as_array.next_u64() == slow.next_u64() == untouched.next_u64()


@pytest.mark.parametrize("seed", [1, 2**63 + 11, 2**64 - 2])
def test_large_array_shuffle_matches_scalar_draws(seed):
    n = 2**17
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got, want = np.arange(n), list(range(n))
    fast.shuffle(got)
    shuffle_by_below(slow, want)
    assert got.tolist() == want
    assert fast.next_u64() == slow.next_u64()
