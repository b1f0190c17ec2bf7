"""Cache-sensitive B+-tree (CSB+-tree, Rao & Ross) and its lookup coroutine.

The CSB+-tree is the index behind SAP HANA's Delta dictionaries
(Section 2.1). Its defining trait: all children of a node are stored
contiguously in one *node group*, so an inner node keeps a single
first-child pointer plus its keys — more keys per cache line than a
plain B+-tree.

This module provides:

* :class:`CSBTree` — a materialized tree with bulk-load and insert
  (splits reallocate the enlarged node group contiguously, as in the
  original proposal), laid out in simulated memory.
* :func:`csb_lookup_stream` — the lookup coroutine of Listing 6: per
  level, a *non-suspending* binary-search coroutine over the node's keys
  (the node was just prefetched, so in-node probes hit the cache),
  then a prefetch of all the child node's cache lines and a suspension.

The traversal works against any object implementing :class:`TreeInterface`
— the materialized tree here and the implicit gigabyte-scale tree in
:mod:`repro.indexes.csb_tree_synthetic`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Protocol, Sequence

from repro.errors import IndexStructureError
from repro.indexes.base import INVALID_CODE, SearchableTable
from repro.indexes.binary_search import (
    DEFAULT_COSTS,
    EXACT_MATCH_COST,
    SearchCosts,
    binary_search_coro,
)
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import InstructionStream
from repro.sim.events import SUSPEND, Compute, Load, Prefetch

__all__ = [
    "TreeInterface",
    "CSBTree",
    "csb_lookup_stream",
    "NODE_HEADER_BYTES",
    "ROUTE_COST",
    "SINGLE_CHILD_COST",
]

#: Per-node header: level, key count, first-child offset, padding.
NODE_HEADER_BYTES = 16

#: ``(cycles, instructions)`` of picking the child after an inner node's
#: separator search, and of descending a node with a single child.
ROUTE_COST = (2, 2)
SINGLE_CHILD_COST = (1, 1)


class TreeInterface(Protocol):
    """What the Listing 6 traversal needs from a CSB+-tree."""

    @property
    def node_size(self) -> int:
        """Bytes per node (the traversal prefetches all of them)."""

    @property
    def height(self) -> int:
        """Number of levels (1 = the root is a leaf)."""

    def root_handle(self) -> object: ...

    def is_leaf(self, handle: object) -> bool: ...

    def node_address(self, handle: object) -> int: ...

    def keys_table(self, handle: object) -> SearchableTable:
        """The node's key array as a searchable table (inner or leaf)."""

    def child_of(self, handle: object, index: int) -> object: ...

    def leaf_value(self, handle: object, position: int) -> object: ...

    def leaf_value_address(self, handle: object, position: int) -> int: ...


class _KeysView:
    """SearchableTable over one node's key array."""

    compare_extra = (0, 0)

    def __init__(self, base_addr: int, keys: Sequence[object], key_size: int) -> None:
        self._base = base_addr
        self._keys = keys
        self._key_size = key_size

    @property
    def size(self) -> int:
        return len(self._keys)

    @property
    def element_size(self) -> int:
        return self._key_size

    def address_of(self, index: int) -> int:
        return self._base + index * self._key_size

    def value_at(self, index: int):
        return self._keys[index]


class _Node:
    """One tree node; leaves carry values, inner nodes carry a child group."""

    __slots__ = ("level", "keys", "values", "child_group", "group", "index")

    def __init__(self, level: int) -> None:
        self.level = level
        self.keys: list = []
        self.values: list = []  # leaves only
        self.child_group: "_NodeGroup | None" = None  # inner only
        self.group: "_NodeGroup | None" = None
        self.index = 0

    @property
    def is_leaf(self) -> bool:
        return self.level == 0


class _NodeGroup:
    """Contiguous storage for all children of one parent."""

    _counter = itertools.count()

    def __init__(
        self, allocator: AddressSpaceAllocator, name: str, nodes: list[_Node],
        node_size: int,
        group_log: "list[tuple[int, int]] | None" = None,
    ) -> None:
        self.name = f"{name}/group{next(self._counter)}"
        self.region = allocator.allocate(self.name, max(1, len(nodes)) * node_size)
        self.nodes = nodes
        self._node_size = node_size
        for index, node in enumerate(nodes):
            node.group = self
            node.index = index
        if group_log is not None:
            group_log.append((self.region.base, len(nodes) * node_size))

    def address_of(self, index: int) -> int:
        return self.region.base + index * self._node_size


class CSBTree:
    """Materialized CSB+-tree over simulated memory.

    ``values`` defaults to the keys themselves (a value index); Delta
    dictionaries store codes instead.
    """

    def __init__(
        self,
        allocator: AddressSpaceAllocator,
        name: str,
        keys: Iterable,
        values: Iterable | None = None,
        *,
        node_size: int = 256,
        key_size: int = 4,
        value_size: int = 4,
    ) -> None:
        if node_size <= NODE_HEADER_BYTES + key_size:
            raise IndexStructureError("node size too small for any key")
        self._allocator = allocator
        self._name = name
        self.node_size = node_size
        self.key_size = key_size
        self.value_size = value_size
        self.max_inner_keys = (node_size - NODE_HEADER_BYTES) // key_size
        self.max_leaf_entries = (node_size - NODE_HEADER_BYTES) // (
            key_size + value_size
        )
        if self.max_inner_keys < 2 or self.max_leaf_entries < 2:
            raise IndexStructureError("node size holds fewer than two entries")
        keys = list(keys)
        values = list(values) if values is not None else list(keys)
        if len(values) != len(keys):
            raise IndexStructureError("keys and values must have equal length")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise IndexStructureError("bulk-load keys must be strictly increasing")
        self._root = self._bulk_load(keys, values)
        self.n_entries = len(keys)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    #: When set (by csb_insert_stream), newly allocated node groups are
    #: logged as (base_address, byte_length) so the simulated insert can
    #: charge the CSB+ group-copy writes.
    group_log: "list[tuple[int, int]] | None" = None

    def _new_group(self, nodes: list[_Node]) -> _NodeGroup:
        return _NodeGroup(
            self._allocator, self._name, nodes, self.node_size, self.group_log
        )

    @staticmethod
    def _subtree_min(node: _Node):
        """Smallest key stored under ``node`` (leftmost leaf's first key)."""
        while not node.is_leaf:
            node = node.child_group.nodes[0]
        return node.keys[0]

    def _bulk_load(self, keys: list, values: list) -> _Node:
        leaves: list[_Node] = []
        step = max(1, self.max_leaf_entries)
        if not keys:
            leaf = _Node(0)
            self._new_group([leaf])
            return leaf
        for start in range(0, len(keys), step):
            leaf = _Node(0)
            leaf.keys = keys[start : start + step]
            leaf.values = values[start : start + step]
            leaves.append(leaf)
        level_nodes = leaves
        level = 0
        while len(level_nodes) > 1:
            level += 1
            parents: list[_Node] = []
            fanout = self.max_inner_keys  # children per parent
            n = len(level_nodes)
            n_parents = -(-n // fanout)
            # Distribute children evenly so no parent ends up with a
            # single child (which would make it unroutable).
            base, extra = divmod(n, n_parents)
            start = 0
            for parent_index in range(n_parents):
                count = base + (1 if parent_index < extra else 0)
                children = level_nodes[start : start + count]
                start += count
                parent = _Node(level)
                # keys[j] = smallest key under child j+1; route left when less.
                parent.keys = [self._subtree_min(child) for child in children[1:]]
                parent.child_group = self._new_group(children)
                parents.append(parent)
            level_nodes = parents
        root = level_nodes[0]
        if root.group is None:
            self._new_group([root])
        return root

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        return self._root.level + 1

    def root_handle(self) -> _Node:
        return self._root

    def is_leaf(self, handle: _Node) -> bool:
        return handle.is_leaf

    def node_address(self, handle: _Node) -> int:
        assert handle.group is not None
        return handle.group.address_of(handle.index)

    def keys_table(self, handle: _Node) -> _KeysView:
        return _KeysView(
            self.node_address(handle) + NODE_HEADER_BYTES, handle.keys, self.key_size
        )

    def child_of(self, handle: _Node, index: int) -> _Node:
        assert handle.child_group is not None
        children = handle.child_group.nodes
        if not 0 <= index < len(children):
            raise IndexStructureError(
                f"child index {index} out of range ({len(children)} children)"
            )
        return children[index]

    def leaf_value(self, handle: _Node, position: int):
        return handle.values[position]

    def leaf_value_address(self, handle: _Node, position: int) -> int:
        base = self.node_address(handle) + NODE_HEADER_BYTES
        return base + len(handle.keys) * self.key_size + position * self.value_size

    # ------------------------------------------------------------------
    # Pure-Python operations (no simulation events)
    # ------------------------------------------------------------------

    @staticmethod
    def _route(keys: list, value) -> int:
        """Child index for ``value``: the number of keys <= value."""
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def search(self, key):
        """Exact lookup without simulation; INVALID_CODE when absent."""
        node = self._root
        while not node.is_leaf:
            node = self.child_of(node, self._route(node.keys, key))
        position = self._route(node.keys, key) - 1
        if position >= 0 and node.keys[position] == key:
            return node.values[position]
        return INVALID_CODE

    def insert(self, key, value) -> None:
        """Insert one entry; splits reallocate node groups contiguously.

        Structural only — inserts are not charged simulation cycles (the
        paper measures lookups; Delta maintenance happens off the
        measured path).
        """
        split = self._insert_into(self._root, key, value)
        if split is not None:
            separator, right = split
            old_root = self._root
            new_root = _Node(old_root.level + 1)
            new_root.keys = [separator]
            new_root.child_group = self._new_group([old_root, right])
            self._new_group([new_root])
            self._root = new_root
        self.n_entries += 1

    def _insert_into(self, node: _Node, key, value):
        if node.is_leaf:
            position = self._route(node.keys, key)
            if position > 0 and node.keys[position - 1] == key:
                raise IndexStructureError(f"duplicate key {key!r}")
            node.keys.insert(position, key)
            node.values.insert(position, value)
            if len(node.keys) <= self.max_leaf_entries:
                return None
            return self._split_leaf(node)
        child_index = self._route(node.keys, key)
        split = self._insert_into(self.child_of(node, child_index), key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(child_index, separator)
        children = list(node.child_group.nodes)
        children.insert(child_index + 1, right)
        # CSB+ group reallocation: the enlarged sibling set moves to a new
        # contiguous region.
        node.child_group = self._new_group(children)
        if len(node.keys) <= self.max_inner_keys - 1:
            return None
        return self._split_inner(node)

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(0)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        return right.keys[0], right

    def _split_inner(self, node: _Node):
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Node(node.level)
        right.keys = node.keys[mid + 1 :]
        children = node.child_group.nodes
        left_children = children[: mid + 1]
        right_children = children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.child_group = self._new_group(left_children)
        right.child_group = self._new_group(right_children)
        return separator, right

    def check_invariants(self) -> None:
        """Validate ordering, routing, and group contiguity (tests)."""
        self._check_node(self._root, None, None)

    def _check_node(self, node: _Node, lo, hi) -> None:
        keys = node.keys
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise IndexStructureError("node keys not strictly increasing")
        for key in keys:
            if lo is not None and key < lo:
                raise IndexStructureError("key below subtree lower bound")
            if hi is not None and key > hi:
                raise IndexStructureError("key above subtree upper bound")
        if node.is_leaf:
            if len(node.keys) != len(node.values):
                raise IndexStructureError("leaf keys/values length mismatch")
            return
        group = node.child_group
        if group is None or len(group.nodes) != len(keys) + 1:
            raise IndexStructureError("inner node child count != keys + 1")
        for index, child in enumerate(group.nodes):
            if child.group is not group or child.index != index:
                raise IndexStructureError("node group back-references broken")
            child_lo = keys[index - 1] if index > 0 else lo
            child_hi = keys[index] if index < len(keys) else hi
            self._check_node(child, child_lo, child_hi)

    def iter_items(self):
        """Yield (key, value) pairs in key order (tests)."""
        out = []

        def visit(node: _Node):
            if node.is_leaf:
                out.extend(zip(node.keys, node.values))
                return
            for child in node.child_group.nodes:
                visit(child)

        visit(self._root)
        return iter(sorted(out))


def csb_insert_stream(
    tree: "CSBTree",
    key,
    value,
    interleave: bool = False,
    costs: SearchCosts = DEFAULT_COSTS,
) -> InstructionStream:
    """Simulated CSB+-tree insert: traversal reads + structural writes.

    The Delta store's write path. The descent touches the same nodes a
    lookup touches (prefetch+suspend per level when interleaved); the
    leaf rewrite is one node-sized store; and — the CSB+-tree's known
    insertion trade-off — every split reallocates the enlarged sibling
    group contiguously, charged as stores over the new group's lines.
    Returns the number of node groups (re)allocated.
    """
    from repro.sim.events import Store

    node = tree.root_handle()
    while not tree.is_leaf(node):
        keys = tree.keys_table(node)
        if keys.size == 0:
            child = 0
            yield Compute(*SINGLE_CHILD_COST)
        else:
            low = yield from binary_search_coro(keys, value, False, costs)
            yield Compute(*ROUTE_COST)
            child = low + 1 if keys.value_at(low) <= value else 0
        node = tree.child_of(node, child)
        if interleave:
            yield Prefetch(tree.node_address(node), tree.node_size)
            yield SUSPEND
    leaf_addr = tree.node_address(node)

    log: list[tuple[int, int]] = []
    tree.group_log = log
    try:
        tree.insert(key, value)
    finally:
        tree.group_log = None

    # Rewrite the leaf in place (entry shift).
    yield Store(leaf_addr, tree.node_size)
    # Copy every reallocated node group to its new region.
    line = 64
    for base, length in log:
        for offset in range(0, length, line):
            yield Store(base + offset, min(line, length - offset))
        yield Compute(max(1, length // 64), max(1, length // 32))
    yield Compute(4, 6)
    return len(log)


def csb_lookup_stream(
    tree: TreeInterface,
    value,
    interleave: bool = False,
    costs: SearchCosts = DEFAULT_COSTS,
) -> InstructionStream:
    """Listing 6: CSB+-tree lookup coroutine.

    The in-node binary searches reuse the Listing 5 coroutine with
    ``interleave=False`` — the node prefetch already brought the key list
    into the cache, so they cause no misses worth suspending for. The
    root is assumed cached (no prefetch before it), as in the paper.
    """
    node = tree.root_handle()
    while not tree.is_leaf(node):
        keys = tree.keys_table(node)
        if keys.size == 0:  # single-child node (tiny trees only)
            child = 0
            yield Compute(*SINGLE_CHILD_COST)
        else:
            low = yield from binary_search_coro(keys, value, False, costs)
            yield Compute(*ROUTE_COST)
            child = low + 1 if keys.value_at(low) <= value else 0
        node = tree.child_of(node, child)
        if interleave:
            yield Prefetch(tree.node_address(node), tree.node_size)
            yield SUSPEND
    keys = tree.keys_table(node)
    if keys.size == 0:
        return INVALID_CODE
    low = yield from binary_search_coro(keys, value, False, costs)
    yield Load(tree.leaf_value_address(node, low), 4)
    yield Compute(*EXACT_MATCH_COST)
    if keys.value_at(low) == value:
        return tree.leaf_value(node, low)
    return INVALID_CODE
