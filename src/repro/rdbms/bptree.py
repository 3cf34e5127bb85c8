"""A B+-tree mapping ordered keys to buckets of row keys.

This is the ordered half of the secondary-index story: the hash indexes
in :mod:`repro.rdbms.storage` answer equality probes in O(1), while a
:class:`BPlusTree` answers *range* and *prefix* probes by walking the
linked leaf chain in key order.  Values are buckets (sets of primary
keys), mirroring the hash-index shape, so one tree serves non-unique
columns.

Deletion is lazy in the classic simplification: removing the last row
key from a bucket removes the key from its leaf, but leaves are never
merged or rebalanced and the tree height never shrinks.  Search and
range scans stay correct over underfull (even empty) leaves; for the
insert-heavy workloads this engine serves, the wasted nodes are noise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Set, Tuple

__all__ = ["BPlusTree"]

DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("keys", "buckets", "next")

    def __init__(self):
        self.keys: List[Any] = []
        self.buckets: List[Set[Any]] = []
        self.next: Optional["_Leaf"] = None

    # The sibling link is left out of the pickle (following it would
    # recurse once per leaf); the owning tree relinks on unpickling.
    def __getstate__(self):
        return self.keys, self.buckets

    def __setstate__(self, state):
        self.keys, self.buckets = state
        self.next = None


class _Branch:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[Any], children: List[Any]):
        self.keys = keys
        self.children = children


class BPlusTree:
    """Ordered key -> bucket-of-row-keys index.

    ``order`` bounds the number of keys per leaf and children per branch.
    Keys must be mutually comparable (the storage layer guarantees this
    by coercing column values to one type per column).
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError("B+-tree order must be at least 4")
        self.order = order
        self._root: Any = _Leaf()
        self._distinct = 0

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct keys currently present."""
        return self._distinct

    def __bool__(self) -> bool:
        return self._distinct > 0

    @property
    def height(self) -> int:
        node, levels = self._root, 1
        while isinstance(node, _Branch):
            node = node.children[0]
            levels += 1
        return levels

    def get(self, key: Any) -> Optional[Set[Any]]:
        """The bucket for ``key`` (the live set — do not mutate), or None."""
        leaf, index = self._find(key)
        return leaf.buckets[index] if index is not None else None

    def min_key(self) -> Optional[Any]:
        for key, _bucket in self.items():
            return key
        return None

    def max_key(self) -> Optional[Any]:
        node = self._root
        while isinstance(node, _Branch):
            node = node.children[-1]
        if node.keys:
            return node.keys[-1]
        # The rightmost leaf emptied out under lazy deletion: fall back to
        # a chain walk remembering the last key seen.
        last = None
        for key, _bucket in self.items():
            last = key
        return last

    # -- mutation -----------------------------------------------------------
    def add(self, key: Any, row_key: Any) -> None:
        """Add ``row_key`` to the bucket at ``key`` (creating it)."""
        split = self._add(self._root, key, row_key)
        if split is not None:
            separator, right = split
            self._root = _Branch([separator], [self._root, right])

    def _add(self, node: Any, key: Any, row_key: Any) -> Optional[Tuple[Any, Any]]:
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.buckets[index].add(row_key)
                return None
            node.keys.insert(index, key)
            node.buckets.insert(index, {row_key})
            self._distinct += 1
            if len(node.keys) <= self.order:
                return None
            mid = len(node.keys) // 2
            right = _Leaf()
            right.keys = node.keys[mid:]
            right.buckets = node.buckets[mid:]
            del node.keys[mid:]
            del node.buckets[mid:]
            right.next = node.next
            node.next = right
            return right.keys[0], right
        index = bisect_right(node.keys, key)
        split = self._add(node.children[index], key, row_key)
        if split is None:
            return None
        separator, child = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, child)
        if len(node.children) <= self.order:
            return None
        mid = len(node.keys) // 2
        separator_up = node.keys[mid]
        right = _Branch(node.keys[mid + 1 :], node.children[mid + 1 :])
        del node.keys[mid:]
        del node.children[mid + 1 :]
        return separator_up, right

    def discard(self, key: Any, row_key: Any) -> None:
        """Remove ``row_key`` from the bucket at ``key``; prune empty buckets."""
        leaf, index = self._find(key)
        if index is None:
            return
        bucket = leaf.buckets[index]
        bucket.discard(row_key)
        if not bucket:
            del leaf.keys[index]
            del leaf.buckets[index]
            self._distinct -= 1

    def clear(self) -> None:
        self._root = _Leaf()
        self._distinct = 0

    # -- copying -----------------------------------------------------------
    def copy(self) -> "BPlusTree":
        """An independent tree with the same nodes, keys and buckets.

        The node layout is copied as is (underfull leaves included), so
        the copy has the same height and answers every probe the same
        way; no bucket or node is shared with the original.
        """
        clone = BPlusTree(self.order)
        clone._root = _copy_node(self._root)
        clone._distinct = self._distinct
        clone._link_leaves()
        return clone

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._link_leaves()

    def _link_leaves(self) -> None:
        """Rebuild the leaf chain: leaves in left-to-right order."""
        previous = None
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Branch):
                stack.extend(reversed(node.children))
                continue
            if previous is not None:
                previous.next = node
            previous = node

    # -- search -----------------------------------------------------------
    def _find(self, key: Any) -> Tuple[_Leaf, Optional[int]]:
        node = self._root
        while isinstance(node, _Branch):
            node = node.children[bisect_right(node.keys, key)]
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node, index
        return node, None

    def items(
        self, lo: Any = None, lo_inclusive: bool = True
    ) -> Iterator[Tuple[Any, Set[Any]]]:
        """Yield ``(key, bucket)`` in key order, starting at ``lo``."""
        if lo is None:
            node = self._root
            while isinstance(node, _Branch):
                node = node.children[0]
            index = 0
        else:
            node = self._root
            while isinstance(node, _Branch):
                node = node.children[bisect_right(node.keys, lo)]
            if lo_inclusive:
                index = bisect_left(node.keys, lo)
            else:
                index = bisect_right(node.keys, lo)
        while node is not None:
            keys = node.keys
            buckets = node.buckets
            while index < len(keys):
                yield keys[index], buckets[index]
                index += 1
            node = node.next
            index = 0

    def range_items(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[Tuple[Any, Set[Any]]]:
        """``(key, bucket)`` pairs with lo/hi bounds (None = unbounded)."""
        for key, bucket in self.items(lo, lo_inclusive):
            if hi is not None:
                if hi_inclusive:
                    if key > hi:
                        return
                elif key >= hi:
                    return
            yield key, bucket

    def prefix_items(self, prefix: str) -> Iterator[Tuple[Any, Set[Any]]]:
        """``(key, bucket)`` pairs whose (string) key starts with ``prefix``."""
        for key, bucket in self.items(prefix, True):
            if not key.startswith(prefix):
                return
            yield key, bucket


def _copy_node(node: Any) -> Any:
    if isinstance(node, _Branch):
        return _Branch(list(node.keys), [_copy_node(child) for child in node.children])
    leaf = _Leaf()
    leaf.keys = list(node.keys)
    leaf.buckets = [set(bucket) for bucket in node.buckets]
    return leaf
