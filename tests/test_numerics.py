"""Threshold and representation arithmetic checked against brute force.

The oracles here are deliberately naive: representability by bitset closure,
tie-breaks by exhaustive descent.  Library answers must match them exactly.
"""

import math
import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (
    lex_greatest_by_descent,
    represent_by_suffix_tables,
    representable_bits,
    threshold_by_scan,
)

from dominofill import validate_family
from dominofill.numerics import (
    FamilyError,
    FewerThanTwoShapes,
    GcdNotOne,
    NonPositiveEntry,
    NotRepresentable,
    SharedAxisDivisor,
    axis_threshold,
    represent,
)


@st.composite
def coprime_heights(draw, max_entry=50, max_k=4):
    k = draw(st.integers(min_value=2, max_value=max_k))
    hs = tuple(
        draw(st.lists(st.integers(1, max_entry), min_size=k, max_size=k))
    )
    assume(math.gcd(*hs) == 1)
    return hs


class TestAxisThreshold:
    @pytest.mark.parametrize(
        "heights, expected",
        [((2, 3), 2), ((3, 5), 8), ((1, 4), 0), ((3, 4), 6), ((6, 10, 15), 30)],
    )
    def test_known_values(self, heights, expected):
        assert threshold_by_scan(heights) == expected
        assert axis_threshold(heights) == expected

    @given(coprime_heights())
    def test_matches_scan(self, heights):
        assert axis_threshold(heights) == threshold_by_scan(heights)

    @given(coprime_heights(max_entry=30))
    def test_minimality(self, heights):
        r = axis_threshold(heights)
        bits = representable_bits(heights, r + min(heights) + 1)
        assert all((bits >> v) & 1 for v in range(r, r + min(heights) + 1))
        if r > 0:
            assert not (bits >> (r - 1)) & 1

    @pytest.mark.parametrize("heights", [(2, 4), (6, 10), (3, 3, 9)])
    def test_shared_divisor_rejected(self, heights):
        with pytest.raises(GcdNotOne):
            axis_threshold(heights)


class TestRepresent:
    @pytest.mark.parametrize(
        "r, heights, expected",
        [
            (7, (3, 2), (1, 2)),
            (0, (3, 2), (0, 0)),
            (15, (2, 3), (6, 1)),
            (9, (2, 3), (3, 1)),
            (12, (3, 5), (4, 0)),
        ],
    )
    def test_known_values(self, r, heights, expected):
        assert lex_greatest_by_descent(r, heights) == expected
        assert represent(r, heights) == expected

    @pytest.mark.parametrize("r, heights", [(1, (3, 2)), (7, (3, 5)), (4, (6, 10, 15))])
    def test_not_representable(self, r, heights):
        assert lex_greatest_by_descent(r, heights) is None
        with pytest.raises(NotRepresentable):
            represent(r, heights)

    @given(coprime_heights(max_entry=20, max_k=3), st.integers(0, 80))
    def test_matches_descent(self, heights, r):
        expected = lex_greatest_by_descent(r, heights)
        if expected is None:
            with pytest.raises(NotRepresentable):
                represent(r, heights)
        else:
            got = represent(r, heights)
            assert got == expected
            assert sum(a * h for a, h in zip(got, heights)) == r

    @given(coprime_heights(), st.integers(0, 400))
    def test_soundness(self, heights, r):
        bits = representable_bits(heights, r)
        if (bits >> r) & 1:
            coeffs = represent(r, heights)
            assert all(a >= 0 for a in coeffs)
            assert sum(a * h for a, h in zip(coeffs, heights)) == r
        else:
            with pytest.raises(NotRepresentable):
                represent(r, heights)


class TestAgainstSuffixTables:
    """The least tables against ``represent_by_suffix_tables``, one
    bytearray a suffix for each width."""

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=5), st.integers(0, 400))
    def test_represent_matches(self, heights, r):
        """Heights in any order, repeats and suffixes of gcd above 1 (or a
        whole gcd above 1) included: the same coefficients or the same
        NotRepresentable."""
        try:
            want = represent_by_suffix_tables(r, heights)
        except NotRepresentable as exc:
            with pytest.raises(NotRepresentable, match=re.escape(str(exc))):
                represent(r, heights)
        else:
            assert represent(r, heights) == want

    @given(coprime_heights(max_entry=30, max_k=5))
    def test_threshold_matches(self, heights):
        """The threshold is the first r from which every value, over one
        smallest height past it, has a representation."""
        r = axis_threshold(heights)
        for v in range(max(r - 1, 0), r + min(heights) + 1):
            try:
                represent_by_suffix_tables(v, heights)
            except NotRepresentable:
                assert v == r - 1
            else:
                assert v >= r or v == 0


@st.composite
def valid_shape_lists(draw, max_dim=3, max_k=3, max_side=6):
    dim = draw(st.integers(1, max_dim))
    k = draw(st.integers(2, max_k))
    shapes = tuple(
        tuple(draw(st.integers(1, max_side)) for _ in range(dim)) for _ in range(k)
    )
    for axis in range(dim):
        assume(math.gcd(*(s[axis] for s in shapes)) == 1)
    return shapes


class TestValidateFamily:
    def test_flagship(self):
        f = validate_family([(3, 2), (2, 3)])
        assert f.dim == 2
        assert f.large_shape == (6, 6)
        assert f.axis_thresholds == (2, 2)
        assert f.threshold == 2
        assert f.fill_length == 26

    def test_line_family(self):
        f = validate_family([(2,), (3,)])
        assert f.large_shape == (6,)
        assert f.threshold == 2
        assert f.fill_length == 14

    def test_shared_axis_divisor(self):
        with pytest.raises(SharedAxisDivisor) as info:
            validate_family([(2, 2), (4, 2)])
        assert info.value.axis == 0
        assert info.value.divisor == 2

    def test_rejections(self):
        with pytest.raises(FewerThanTwoShapes):
            validate_family([(3, 2)])
        with pytest.raises(NonPositiveEntry):
            validate_family([(3, 0), (2, 3)])
        with pytest.raises(FamilyError):
            validate_family([(3, 2), (2, 3)], dim=3)

    @given(valid_shape_lists())
    def test_derived_fields(self, shapes):
        f = validate_family(shapes)
        for axis in range(f.dim):
            sides = tuple(s[axis] for s in shapes)
            assert f.large_shape[axis] == math.prod(sides)
            assert f.axis_thresholds[axis] == threshold_by_scan(sides)
        assert f.threshold == max(f.axis_thresholds)
        assert f.fill_length == f.threshold + 2 * sum(f.large_shape)
        assert f.fill_length == f.collar(f.large_shape, f.large_shape)

    @given(valid_shape_lists(max_side=5))
    def test_threshold_tightness(self, shapes):
        f = validate_family(shapes)
        for axis in range(f.dim):
            sides = tuple(s[axis] for s in shapes)
            for r in range(f.threshold, f.threshold + max(f.large_shape) + 1):
                coeffs = represent(r, sides)
                assert sum(a * h for a, h in zip(coeffs, sides)) == r
        if f.threshold > 0:
            worst = max(range(f.dim), key=lambda a: f.axis_thresholds[a])
            with pytest.raises(NotRepresentable):
                represent(f.threshold - 1, tuple(s[worst] for s in shapes))
