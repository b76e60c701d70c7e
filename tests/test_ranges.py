"""Unit and property tests for RangeSet."""

from hypothesis import given, strategies as st

from repro.common.ranges import RangeSet


class TestBasics:
    def test_empty(self):
        rs = RangeSet()
        assert not rs
        assert rs.span() == 0
        assert 5 not in rs

    def test_add_and_contains(self):
        rs = RangeSet([(0, 10)])
        assert 0 in rs and 9 in rs
        assert 10 not in rs

    def test_add_merges_adjacent(self):
        rs = RangeSet([(0, 5), (5, 10)])
        assert sorted(rs) == [(0, 10)]

    def test_add_merges_overlapping(self):
        rs = RangeSet([(0, 6), (4, 10)])
        assert sorted(rs) == [(0, 10)]

    def test_add_keeps_disjoint_separate(self):
        rs = RangeSet([(0, 3), (7, 9)])
        assert sorted(rs) == [(0, 3), (7, 9)]

    def test_empty_range_ignored(self):
        rs = RangeSet([(5, 5), (7, 3)])
        assert not rs

    def test_remove_splits(self):
        rs = RangeSet([(0, 10)])
        rs.remove(4, 6)
        assert sorted(rs) == [(0, 4), (6, 10)]

    def test_remove_trims_edges(self):
        rs = RangeSet([(0, 10)])
        rs.remove(0, 3)
        rs.remove(8, 12)
        assert sorted(rs) == [(3, 8)]

    def test_remove_across_multiple_ranges(self):
        rs = RangeSet([(0, 4), (6, 10), (12, 16)])
        rs.remove(2, 14)
        assert sorted(rs) == [(0, 2), (14, 16)]

    def test_intersects(self):
        rs = RangeSet([(5, 10)])
        assert rs.intersects(0, 6)
        assert rs.intersects(9, 20)
        assert not rs.intersects(0, 5)
        assert not rs.intersects(10, 20)

    def test_intersection(self):
        rs = RangeSet([(0, 4), (6, 10)])
        assert rs.intersection(2, 8) == [(2, 4), (6, 8)]

    def test_span(self):
        rs = RangeSet([(0, 4), (6, 10)])
        assert rs.span() == 8

    def test_copy_is_independent(self):
        rs = RangeSet([(0, 10)])
        clone = rs.copy()
        clone.remove(0, 5)
        assert sorted(rs) == [(0, 10)]
        assert sorted(clone) == [(5, 10)]

    def test_equality(self):
        assert RangeSet([(0, 5), (5, 8)]) == RangeSet([(0, 8)])


ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(0, 64),
        st.integers(0, 64),
    ),
    max_size=30,
)


class TestProperties:
    @given(ops)
    def test_matches_naive_set_model(self, operations):
        rs = RangeSet()
        model = set()
        for op, a, b in operations:
            lo, hi = min(a, b), max(a, b)
            if op == "add":
                rs.add(lo, hi)
                model.update(range(lo, hi))
            else:
                rs.remove(lo, hi)
                model.difference_update(range(lo, hi))
        for value in range(65):
            assert (value in rs) == (value in model)
        assert rs.span() == len(model)

    @given(ops)
    def test_ranges_stay_normalized(self, operations):
        rs = RangeSet()
        for op, a, b in operations:
            lo, hi = min(a, b), max(a, b)
            if op == "add":
                rs.add(lo, hi)
            else:
                rs.remove(lo, hi)
        ranges = sorted(rs)
        for lo, hi in ranges:
            assert lo < hi
        for (_, prev_hi), (next_lo, _) in zip(ranges, ranges[1:]):
            assert prev_hi < next_lo  # disjoint and non-adjacent
