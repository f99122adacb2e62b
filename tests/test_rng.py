"""The seeded stream: vectorised shuffle draws against the scalar ``below`` loop."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dominofill.rng import SplitMix64


def shuffle_by_below(rng, items):
    """Fisher-Yates with one scalar ``below`` draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


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
