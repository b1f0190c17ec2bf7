"""Tests for the implicit (address-computed) CSB+-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HASWELL
from repro.errors import IndexStructureError
from repro.indexes.base import INVALID_CODE
from repro.indexes.csb_tree import csb_lookup_stream
from repro.indexes.csb_tree_synthetic import ImplicitCSBTree
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator


def make_tree(n, **kw):
    return ImplicitCSBTree(AddressSpaceAllocator(), "it", n, **kw)


def run_stream(stream):
    return ExecutionEngine(HASWELL).run(stream)


class TestStructure:
    def test_single_leaf(self):
        tree = make_tree(5, node_size=128)
        assert tree.height == 1
        assert tree.is_leaf(tree.root_handle())

    def test_heights_grow_logarithmically(self):
        small = make_tree(100, node_size=128)
        large = make_tree(100_000, node_size=128)
        assert large.height > small.height

    def test_widths_and_spans_consistent(self):
        tree = make_tree(50_000, node_size=128)
        assert tree.width_at[0] == 1
        assert tree.width_at[-1] == tree.n_leaves
        for depth in range(tree.height - 1):
            assert tree.width_at[depth] == -(-tree.n_leaves // tree.span_at[depth])

    def test_node_addresses_disjoint_by_depth(self):
        tree = make_tree(10_000, node_size=128)
        seen = set()
        for depth in range(tree.height):
            for index in range(min(tree.width_at[depth], 50)):
                addr = tree.node_address((depth, index))
                assert addr not in seen
                seen.add(addr)

    def test_invalid_node_rejected(self):
        tree = make_tree(100, node_size=128)
        with pytest.raises(IndexStructureError):
            tree.node_address((0, 5))

    def test_child_out_of_range(self):
        tree = make_tree(10_000, node_size=128)
        root = tree.root_handle()
        with pytest.raises(IndexStructureError):
            tree.child_of(root, tree.fanout + 1)

    def test_zero_entries_rejected(self):
        with pytest.raises(IndexStructureError):
            make_tree(0)


class TestSearch:
    def test_every_key_found_small(self):
        tree = make_tree(777, node_size=64)
        for key in range(777):
            assert tree.search(key) == key
        assert tree.search(777) == INVALID_CODE
        assert tree.search(-1) == INVALID_CODE

    def test_stream_matches_python(self):
        tree = make_tree(5_000, node_size=128)
        for probe in list(range(-2, 5_003, 53)) + [0, 4_999, 5_000]:
            assert run_stream(csb_lookup_stream(tree, probe, False)) == tree.search(probe)

    def test_code_fn_applied_at_leaves(self):
        tree = make_tree(1_000, node_size=128, code_fn=lambda e: e * 31 % 1_000)
        assert tree.search(10) == 310
        assert run_stream(csb_lookup_stream(tree, 10, False)) == 310

    def test_value_fn_monotone_mapping(self):
        tree = make_tree(500, node_size=128, value_fn=lambda e: e * 4)
        assert tree.search(400) == 100  # entry 100 has value 400
        assert tree.search(401) == INVALID_CODE

    def test_gigascale_tree_is_cheap_to_build(self):
        tree = make_tree((2 << 30) // 4)  # 2 GB of 4-byte values
        assert tree.height == 6
        assert tree.n_entries == (2 << 30) // 4
        probe = 123_456_789
        assert run_stream(csb_lookup_stream(tree, probe, False)) == probe


class TestProperties:
    @given(
        n=st.integers(1, 30_000),
        node_size=st.sampled_from([48, 64, 128, 256]),
        probes=st.lists(st.integers(-5, 30_005), min_size=1, max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_search_agrees_with_membership(self, n, node_size, probes):
        tree = make_tree(n, node_size=node_size)
        for probe in probes:
            expected = probe if 0 <= probe < n else INVALID_CODE
            assert tree.search(probe) == expected

    @given(n=st.integers(1, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_stream_equals_python_search(self, n):
        tree = make_tree(n, node_size=64)
        for probe in {0, n // 2, n - 1, n}:
            assert run_stream(csb_lookup_stream(tree, probe, False)) == tree.search(probe)


class TestLayoutOverArrays:
    """The layout methods give over an array of node indexes what the
    TreeInterface methods give node by node."""

    @given(
        n=st.integers(1, 30_000),
        node_size=st.sampled_from([48, 64, 128, 256]),
    )
    @settings(max_examples=30, deadline=None)
    def test_arrays_equal_per_node(self, n, node_size):
        tree = make_tree(n, node_size=node_size, code_fn=lambda e: e * 7 % n)
        for depth in range(tree.height):
            width = tree.width_at[depth]
            # The first nodes and the ragged last one.
            index = np.unique(np.r_[np.arange(min(width, 12)), width - 1])
            first, stride, count = tree.key_entries(depth, index)
            addresses = tree.node_addresses(depth, index)
            for j, node in enumerate(index.tolist()):
                handle = (depth, node)
                keys = tree.keys_table(handle)
                assert tree.node_address(handle) == addresses[j]
                assert keys.size == count[j]
                for position in range(keys.size):
                    assert keys.value_at(position) == first[j] + position * stride
                    assert keys.address_of(position) == tree.key_addresses(
                        depth, index, position
                    )[j]
                if tree.is_leaf(handle):
                    last = count - 1  # each leaf's last entry
                    assert tree.leaf_value(handle, keys.size - 1) == tree.leaf_values(
                        index, last
                    )[j]
                    assert tree.leaf_value_address(
                        handle, keys.size - 1
                    ) == tree.leaf_value_addresses(index, last)[j]
                else:
                    for child in range(keys.size + 1):
                        assert tree.child_of(handle, child) == (
                            depth + 1,
                            tree.child_indexes(depth, index, child)[j],
                        )

    def test_leaf_values_reject_positions_beyond_the_entries(self):
        tree = make_tree(10, node_size=64)
        last = tree.n_leaves - 1
        with pytest.raises(IndexStructureError):
            tree.leaf_values(np.array([last]), np.array([tree.leaf_entries]))
