"""Unit and property tests for key groups and virtual nodes."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import EngineError
from repro.common.ranges import RangeSet
from repro.engine.partitioning import (
    KeyGroupAssignment,
    key_group_of,
    split_key_groups,
    virtual_nodes,
)


class TestKeyGroups:
    def test_key_group_is_stable(self):
        assert key_group_of("user-1", 1024) == key_group_of("user-1", 1024)

    def test_key_group_in_range(self):
        for key in ["a", "b", 42, (1, 2)]:
            assert 0 <= key_group_of(key, 128) < 128

    def test_split_covers_space_without_overlap(self):
        ranges = split_key_groups(100, 7)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        for (_, prev_hi), (next_lo, _) in zip(ranges, ranges[1:]):
            assert prev_hi == next_lo

    def test_split_balanced(self):
        ranges = split_key_groups(2**15, 64)
        widths = {hi - lo for lo, hi in ranges}
        assert widths == {512}

    def test_split_rejects_zero_parallelism(self):
        with pytest.raises(EngineError):
            split_key_groups(8, 0)

    @given(st.integers(1, 4096), st.integers(1, 64))
    def test_split_is_a_partition(self, num_groups, parallelism):
        ranges = split_key_groups(num_groups, parallelism)
        covered = []
        for lo, hi in ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(num_groups))


class TestVirtualNodes:
    def test_even_split(self):
        assert virtual_nodes(0, 8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_covers_range(self):
        nodes = virtual_nodes(10, 17, 4)
        assert nodes[0][0] == 10
        assert nodes[-1][1] == 17
        for (_, prev_hi), (next_lo, _) in zip(nodes, nodes[1:]):
            assert prev_hi == next_lo

    def test_narrow_range_produces_fewer_nodes(self):
        nodes = virtual_nodes(0, 2, 4)
        assert nodes == [(0, 1), (1, 2)]

    def test_empty_range_rejected(self):
        with pytest.raises(EngineError):
            virtual_nodes(5, 5, 4)

    @given(st.integers(0, 100), st.integers(1, 100), st.integers(1, 8))
    def test_nodes_partition_their_range(self, lo, width, count):
        hi = lo + width
        nodes = virtual_nodes(lo, hi, count)
        covered = []
        for n_lo, n_hi in nodes:
            covered.extend(range(n_lo, n_hi))
        assert covered == list(range(lo, hi))


class TestAssignment:
    def test_initial_assignment_matches_split(self):
        assignment = KeyGroupAssignment(16, 4)
        assert assignment.owner_of(0) == 0
        assert assignment.owner_of(15) == 3
        assert assignment.group_counts() == {0: 4, 1: 4, 2: 4, 3: 4}

    def test_route_key_consistent_with_owner(self):
        assignment = KeyGroupAssignment(64, 4)
        group = key_group_of("k", 64)
        assert assignment.route_key("k") == assignment.owner_of(group)

    def test_reassign_moves_range(self):
        assignment = KeyGroupAssignment(16, 4)
        assignment.reassign(0, 2, 3)
        assert assignment.owner_of(0) == 3
        assert assignment.owner_of(1) == 3
        assert assignment.owner_of(2) == 0

    def test_reassign_rejects_bad_range(self):
        assignment = KeyGroupAssignment(16, 4)
        with pytest.raises(EngineError):
            assignment.reassign(10, 20, 0)

    def test_ranges_of_reflects_reassignment(self):
        assignment = KeyGroupAssignment(16, 4)
        assignment.reassign(0, 2, 1)
        assert sorted(assignment.ranges_of(1)) == [(0, 2), (4, 8)]
        assert sorted(assignment.ranges_of(0)) == [(2, 4)]

    def test_from_ranges(self):
        assignment = KeyGroupAssignment.from_ranges(
            8, {0: [(0, 4)], 1: [(4, 8)]}
        )
        assert assignment.owner_of(3) == 0
        assert assignment.owner_of(4) == 1

    def test_from_ranges_requires_full_cover(self):
        with pytest.raises(EngineError):
            KeyGroupAssignment.from_ranges(8, {0: [(0, 4)]})

    def test_copy_is_independent(self):
        assignment = KeyGroupAssignment(8, 2)
        clone = assignment.copy()
        clone.reassign(0, 4, 1)
        assert assignment.owner_of(0) == 0
        assert clone.owner_of(0) == 1

    @staticmethod
    def naive_ranges(assignment, index):
        """The pre-cache ``ranges_of``: one scan of every key group."""
        owned = [
            g for g in range(assignment.num_groups) if assignment.owner_of(g) == index
        ]
        return sorted(RangeSet((g, g + 1) for g in owned))

    @given(
        st.integers(1, 96),
        st.integers(1, 6),
        st.lists(
            st.tuples(st.integers(0, 95), st.integers(1, 96), st.integers(0, 7)),
            max_size=12,
        ),
        st.data(),
    )
    def test_cached_runs_match_the_naive_scan(self, num_groups, parallelism, ops, data):
        assignment = KeyGroupAssignment(num_groups, min(parallelism, num_groups))
        clone = None
        frozen = None
        for lo, width, owner in ops:
            lo %= num_groups
            hi = min(num_groups, lo + width)
            if data.draw(st.booleans()):
                assignment.ranges_of(owner)  # warm the cache before the write
            assignment.reassign(lo, hi, owner)
            if clone is None and data.draw(st.booleans()):
                # Copy with a warm (shared) cache; the parent's later
                # reassigns must not show through it.
                assignment.owners()
                clone = assignment.copy()
                frozen = [clone.owner_of(g) for g in range(num_groups)]
        for subject in filter(None, (assignment, clone)):
            indexes = {subject.owner_of(g) for g in range(num_groups)}
            assert subject.owners() == indexes
            for index in indexes | {99}:
                assert sorted(subject.ranges_of(index)) == self.naive_ranges(
                    subject, index
                )
            assert subject.group_counts() == {
                index: sum(hi - lo for lo, hi in self.naive_ranges(subject, index))
                for index in indexes
            }
        if clone is not None:
            assert [clone.owner_of(g) for g in range(num_groups)] == frozen

    def test_copy_cache_is_independent_both_ways(self):
        assignment = KeyGroupAssignment(16, 4)
        assert sorted(assignment.ranges_of(0)) == [(0, 4)]  # cache is warm
        clone = assignment.copy()
        assignment.reassign(0, 2, 3)
        assert sorted(clone.ranges_of(0)) == [(0, 4)]
        assert sorted(assignment.ranges_of(0)) == [(2, 4)]
        clone.reassign(4, 8, 0)
        assert sorted(clone.ranges_of(0)) == [(0, 8)]
        assert sorted(assignment.ranges_of(0)) == [(2, 4)]
        assert sorted(assignment.ranges_of(3)) == [(0, 2), (12, 16)]

    @given(st.integers(2, 64), st.integers(1, 8))
    def test_owner_always_defined(self, num_groups, parallelism):
        assignment = KeyGroupAssignment(num_groups, min(parallelism, num_groups))
        for group in range(num_groups):
            assert assignment.owner_of(group) is not None
