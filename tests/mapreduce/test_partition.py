"""Partitioning helpers, with property-based invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce.partition import (
    group_pairs,
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


class TestGroupPairs:
    def test_grouping_preserves_order(self):
        grouped = group_pairs([("a", 1), ("b", 2), ("a", 3)])
        assert grouped == {"a": [1, 3], "b": [2]}

