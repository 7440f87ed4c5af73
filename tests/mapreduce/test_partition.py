"""Partitioning helpers, with property-based invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce.partition import (
    group_pairs,
    partition_items,
    shard_index,
    shard_indexes,
    stable_hash,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("A22") == stable_hash("A22")

    def test_non_negative(self):
        assert stable_hash("x") >= 0
        assert stable_hash(("t", 1)) >= 0


class TestShardIndexes:
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=8),
                st.integers(),
                st.tuples(st.text(max_size=3), st.integers()),
            ),
            max_size=20,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_each_key_lands_where_shard_index_puts_it(self, keys, shards):
        expected = [shard_index(key, shards) for key in keys]
        assert list(shard_indexes(keys, shards)) == expected

    def test_no_shards_is_refused(self):
        with pytest.raises(ValueError):
            shard_indexes(["a"], 0)


class TestPartitionItems:
    def test_balanced_split(self):
        chunks = partition_items(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]

    def test_fewer_items_than_chunks(self):
        chunks = partition_items([1, 2], 5)
        assert [len(c) for c in chunks] == [1, 1]

    def test_empty(self):
        assert partition_items([], 4) == []

    def test_invalid_chunks(self):
        with pytest.raises(ValueError):
            partition_items([1], 0)


class TestGroupPairs:
    def test_grouping_preserves_order(self):
        grouped = group_pairs([("a", 1), ("b", 2), ("a", 3)])
        assert grouped == {"a": [1, 3], "b": [2]}


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(), max_size=100),
    st.integers(min_value=1, max_value=12),
)
def test_partition_items_concatenates_to_input(items, chunks):
    split = partition_items(items, chunks)
    assert [x for chunk in split for x in chunk] == items
    if items:
        sizes = [len(chunk) for chunk in split]
        assert max(sizes) - min(sizes) <= 1
