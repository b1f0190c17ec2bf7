"""Implicit CSB+-tree: gigabyte-scale trees without materialized nodes.

The paper's Delta experiments run CSB+-tree lookups over dictionaries up
to 2 GB (hundreds of millions of keys) — far beyond what a Python object
graph can hold. Because the benchmark keys are the integers ``0..n-1``
(Section 5.3), the tree a bulk-load would produce is fully determined by
arithmetic: this class computes node addresses, separator keys, and leaf
contents on demand, exposing the same :class:`~repro.indexes.csb_tree.
TreeInterface` the materialized tree implements, so Listing 6's traversal
(and the schedulers above it) run unchanged.

Layout: a left-full implicit F-ary tree. Leaves hold ``leaf_entries``
consecutive keys each (the last leaf may be partial); depth ``d`` holds
``ceil(n_leaves / F^(H-1-d))`` nodes stored contiguously, so the node at
``(depth, index)`` lives at a closed-form address. Node ``(d, i)`` covers
leaves ``[i * F^(H-1-d), min((i+1) * F^(H-1-d), n_leaves))`` and its
``j``-th child is node ``(d+1, i*F + j)``.

The layout methods (``node_addresses``, ``key_entries``,
``key_addresses``, ``child_indexes``, ``leaf_value_addresses``,
``leaf_values``) take a node index or an int64 array of them: the
:class:`~repro.indexes.csb_tree.TreeInterface` methods read the layout
through them one node at a time, and the trace compiler's closed-form
Delta model (:mod:`repro.interleaving.compiled`) one node per lookup.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import IndexStructureError
from repro.indexes.csb_tree import NODE_HEADER_BYTES
from repro.sim.allocator import AddressSpaceAllocator

__all__ = ["ImplicitCSBTree"]


def _least(bound: int, value):
    """``min(bound, value)``, elementwise when ``value`` is an array."""
    return np.minimum(bound, value) if type(value) is np.ndarray else min(bound, value)


class _ImplicitKeysView:
    """Key array of one implicit node (inner separators or leaf keys)."""

    compare_extra = (0, 0)

    def __init__(self, base_addr: int, key_size: int, first: int, count: int,
                 stride: int, value_fn: Callable[[int], object]) -> None:
        self._base = base_addr
        self._key_size = key_size
        self._first = first  # entry index of keys[0]
        self._count = count
        self._stride = stride  # entries between consecutive keys
        self._value_fn = value_fn

    @property
    def size(self) -> int:
        return self._count

    @property
    def element_size(self) -> int:
        return self._key_size

    def address_of(self, index: int) -> int:
        return self._base + index * self._key_size

    def value_at(self, index: int):
        return self._value_fn(self._first + index * self._stride)


class ImplicitCSBTree:
    """Address-computed CSB+-tree over keys ``value_fn(0..n-1)``.

    ``code_fn`` maps an entry index to the value stored at the leaf (the
    Delta dictionary passes a pseudo-random permutation so that leaf hits
    point into an unsorted dictionary array).
    """

    def __init__(
        self,
        allocator: AddressSpaceAllocator,
        name: str,
        n_entries: int,
        *,
        node_size: int = 256,
        key_size: int = 4,
        value_size: int = 4,
        value_fn: Callable[[int], object] | None = None,
        code_fn: Callable[[int], object] | None = None,
    ) -> None:
        if n_entries <= 0:
            raise IndexStructureError("tree needs at least one entry")
        if node_size <= NODE_HEADER_BYTES + key_size:
            raise IndexStructureError("node size too small for any key")
        self.node_size = node_size
        self.key_size = key_size
        self.value_size = value_size
        self.n_entries = n_entries
        #: True when every key is its entry number — an implicit Delta's
        #: tree. The trace-compiled replay path then derives each locate
        #: from the tree's geometry alone.
        self.is_identity = value_fn is None
        self._value_fn = value_fn or (lambda entry: entry)
        self._code_fn = code_fn or (lambda entry: entry)
        self.fanout = (node_size - NODE_HEADER_BYTES) // key_size
        self.leaf_entries = (node_size - NODE_HEADER_BYTES) // (key_size + value_size)
        if self.fanout < 2 or self.leaf_entries < 2:
            raise IndexStructureError("node size holds fewer than two entries")

        self.n_leaves = -(-n_entries // self.leaf_entries)
        height = 1
        span = 1  # leaves covered by one node at the root's depth
        while span < self.n_leaves:
            span *= self.fanout
            height += 1
        self.height = height
        #: nodes per depth, root first.
        self.width_at: list[int] = []
        #: leaves covered by one node at each depth.
        self.span_at: list[int] = []
        for depth in range(height):
            span = self.fanout ** (height - 1 - depth)
            self.span_at.append(span)
            self.width_at.append(-(-self.n_leaves // span))
        total_nodes = sum(self.width_at)
        self.region = allocator.allocate(name, total_nodes * node_size)
        self._depth_base: list[int] = []
        offset = 0
        for width in self.width_at:
            self._depth_base.append(self.region.base + offset)
            offset += width * node_size

    # ------------------------------------------------------------------
    # Layout, over a node index or an int64 array of them
    # ------------------------------------------------------------------

    def node_addresses(self, depth: int, index):
        """Address of node ``(depth, index)``: a depth's nodes lie back to back."""
        return self._depth_base[depth] + index * self.node_size

    def key_entries(self, depth: int, index) -> tuple:
        """``(first, stride, count)``: node ``(depth, index)`` holds the keys
        of entries ``first + j * stride`` for ``j < count``.

        An inner node's keys are its separators, the first entries of its
        children ``1 .. k - 1``; a leaf's are ``leaf_entries`` consecutive
        entries (fewer in the last leaf).
        """
        if depth == self.height - 1:
            first = index * self.leaf_entries
            return first, 1, _least(self.leaf_entries, self.n_entries - first)
        stride = self.span_at[depth + 1] * self.leaf_entries  # entries per child
        first_child = self.child_indexes(depth, index, 0)
        children = _least(self.fanout, self.width_at[depth + 1] - first_child)
        return (first_child + 1) * stride, stride, children - 1

    def key_addresses(self, depth: int, index, position):
        """Address of key ``position`` of node ``(depth, index)``; the keys
        follow the node header."""
        return (
            self.node_addresses(depth, index)
            + NODE_HEADER_BYTES
            + position * self.key_size
        )

    def child_indexes(self, depth: int, index, position):
        """Index at ``depth + 1`` of child ``position`` of node ``(depth, index)``."""
        return index * self.fanout + position

    def leaf_value_addresses(self, index, position):
        """Address of code slot ``position`` of leaf ``index``; a leaf's
        codes follow its keys."""
        depth = self.height - 1
        count = self.key_entries(depth, index)[2]
        return self.key_addresses(depth, index, count) + position * self.value_size

    def leaf_values(self, index, position):
        """The codes stored at ``position`` of leaf ``index`` (an int64
        array when either is an array)."""
        entry = index * self.leaf_entries + position
        if isinstance(entry, np.ndarray):
            if entry.size and not (0 <= entry.min() and entry.max() < self.n_entries):
                raise IndexStructureError("leaf position out of range")
            code_fn = self._code_fn
            return np.array([code_fn(e) for e in entry.tolist()], dtype=np.int64)
        if not 0 <= entry < self.n_entries:
            raise IndexStructureError(f"no leaf entry {position} at leaf {index}")
        return self._code_fn(entry)

    # ------------------------------------------------------------------
    # TreeInterface
    # ------------------------------------------------------------------

    def _checked(self, handle: tuple[int, int]) -> tuple[int, int]:
        depth, index = handle
        if not 0 <= index < self.width_at[depth]:
            raise IndexStructureError(f"no node {handle!r}")
        return depth, index

    def root_handle(self) -> tuple[int, int]:
        return (0, 0)

    def is_leaf(self, handle: tuple[int, int]) -> bool:
        return handle[0] == self.height - 1

    def node_address(self, handle: tuple[int, int]) -> int:
        return self.node_addresses(*self._checked(handle))

    def keys_table(self, handle: tuple[int, int]) -> _ImplicitKeysView:
        depth, index = self._checked(handle)
        first, stride, count = self.key_entries(depth, index)
        return _ImplicitKeysView(
            self.key_addresses(depth, index, 0),
            self.key_size,
            first,
            count,
            stride,
            self._value_fn,
        )

    def child_of(self, handle: tuple[int, int], index: int) -> tuple[int, int]:
        depth, node_index = handle
        if self.is_leaf(handle):
            raise IndexStructureError("leaves have no children")
        if not 0 <= index <= self.key_entries(depth, node_index)[2]:
            raise IndexStructureError(f"child {index} out of range at {handle!r}")
        return (depth + 1, self.child_indexes(depth, node_index, index))

    def leaf_value(self, handle: tuple[int, int], position: int):
        if not self.is_leaf(handle):
            raise IndexStructureError(f"no leaf entry {position} at {handle!r}")
        return self.leaf_values(handle[1], position)

    def leaf_value_address(self, handle: tuple[int, int], position: int) -> int:
        if not self.is_leaf(handle):
            raise IndexStructureError(f"{handle!r} is not a leaf")
        return self.leaf_value_addresses(self._checked(handle)[1], position)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.region.size

    def search(self, value) -> object:
        """Pure-Python exact lookup (oracle for tests)."""
        from repro.indexes.base import INVALID_CODE

        node = self.root_handle()
        while not self.is_leaf(node):
            keys = self.keys_table(node)
            child = 0
            for j in range(keys.size):
                if keys.value_at(j) <= value:
                    child = j + 1
                else:
                    break
            node = self.child_of(node, child)
        keys = self.keys_table(node)
        low = 0
        for j in range(keys.size):
            if keys.value_at(j) <= value:
                low = j
        if keys.size and keys.value_at(low) == value:
            return self.leaf_value(node, low)
        return INVALID_CODE
