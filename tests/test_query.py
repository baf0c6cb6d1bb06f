"""Tests for range specifications, queries, and workloads."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.query import RangeQuery, RangeSpec, Workload


class TestRangeSpec:
    def test_basic_properties(self):
        spec = RangeSpec(3, 7)
        assert spec.num_leaves == 5
        assert spec.contains(3) and spec.contains(7)
        assert not spec.contains(2) and not spec.contains(8)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RangeSpec(-1, 3)
        with pytest.raises(WorkloadError):
            RangeSpec(5, 4)

    def test_bounds_past_int64_are_rejected(self):
        """A bound the planner's int64 arrays cannot hold fails typed
        at construction, not with ``OverflowError`` mid-plan."""
        assert RangeSpec(0, 2**63 - 1).num_leaves == 2**63
        with pytest.raises(WorkloadError):
            RangeSpec(0, 2**63)
        with pytest.raises(WorkloadError):
            RangeSpec(2**63, 2**64)
        with pytest.raises(WorkloadError):
            RangeQuery([(0, 2), (5, 2**63)])

    def test_overlap(self):
        spec = RangeSpec(10, 20)
        assert spec.overlap(0, 9) == 0
        assert spec.overlap(15, 25) == 6
        assert spec.overlap(0, 100) == 11
        assert spec.overlap(12, 14) == 3

    def test_clipped(self):
        spec = RangeSpec(10, 20)
        assert spec.clipped(15, 30) == RangeSpec(15, 20)
        assert spec.clipped(0, 9) is None
        assert spec.clipped(10, 20) == spec

    def test_ordering(self):
        assert RangeSpec(1, 5) < RangeSpec(2, 3)


class TestRangeQueryNormalization:
    def test_sorts_specs(self):
        query = RangeQuery([(10, 12), (0, 2)])
        assert query.specs == (RangeSpec(0, 2), RangeSpec(10, 12))

    def test_merges_overlapping(self):
        query = RangeQuery([(0, 5), (3, 9)])
        assert query.specs == (RangeSpec(0, 9),)

    def test_merges_adjacent(self):
        query = RangeQuery([(0, 4), (5, 9)])
        assert query.specs == (RangeSpec(0, 9),)

    def test_keeps_disjoint(self):
        query = RangeQuery([(0, 2), (4, 6)])
        assert len(query.specs) == 2

    def test_accepts_spec_objects_and_tuples(self):
        query = RangeQuery([RangeSpec(0, 1), (3, 4)])
        assert query.num_range_leaves == 4

    def test_needs_at_least_one_spec(self):
        with pytest.raises(WorkloadError):
            RangeQuery([])

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50), st.integers(0, 50)
            ).map(lambda pair: (min(pair), max(pair))),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=150)
    def test_normalization_preserves_leaf_set(self, raw_specs):
        query = RangeQuery(raw_specs)
        expected = set()
        for start, end in raw_specs:
            expected.update(range(start, end + 1))
        assert set(query.range_leaves()) == expected
        assert query.num_range_leaves == len(expected)
        # Normalized specs are sorted, disjoint, non-adjacent.
        for left, right in zip(query.specs, query.specs[1:]):
            assert left.end + 1 < right.start


class TestRangeQueryApi:
    def test_is_range_leaf(self):
        query = RangeQuery([(2, 4), (8, 9)])
        assert query.is_range_leaf(3)
        assert query.is_range_leaf(8)
        assert not query.is_range_leaf(5)

    def test_range_count_in_span(self):
        query = RangeQuery([(2, 4), (8, 9)])
        assert query.range_count_in_span(0, 10) == 5
        assert query.range_count_in_span(3, 8) == 3
        assert query.range_count_in_span(5, 7) == 0

    def test_clipped_specs(self):
        query = RangeQuery([(2, 4), (8, 9)])
        assert query.clipped_specs(3, 8) == [
            RangeSpec(3, 4),
            RangeSpec(8, 8),
        ]

    def test_equality_and_hash(self):
        assert RangeQuery([(0, 5), (3, 9)]) == RangeQuery([(0, 9)])
        assert hash(RangeQuery([(0, 9)])) == hash(
            RangeQuery([(0, 5), (6, 9)])
        )

    def test_label_and_repr(self):
        query = RangeQuery([(0, 1)], label="q0")
        assert query.label == "q0"
        assert "q0" in repr(query)


class TestWorkload:
    def test_sequence_protocol(self):
        queries = [RangeQuery([(0, 1)]), RangeQuery([(2, 3)])]
        workload = Workload(queries)
        assert len(workload) == 2
        assert workload[0] == queries[0]
        assert list(workload) == queries

    def test_needs_queries(self):
        with pytest.raises(WorkloadError):
            Workload([])

    def test_union_is_range_leaf(self):
        workload = Workload(
            [RangeQuery([(0, 1)]), RangeQuery([(5, 6)])]
        )
        assert workload.union_is_range_leaf(5)
        assert not workload.union_is_range_leaf(3)

    def test_repr(self):
        workload = Workload([RangeQuery([(0, 1)])])
        assert "1 queries" in repr(workload)
