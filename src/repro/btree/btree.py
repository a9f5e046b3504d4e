"""A page-oriented B+-tree with insert, delete (with rebalancing) and cursors.

This is the ordered key/value store the rest of hFAD builds on, standing in
for Berkeley DB btrees (paper Section 3.4):

* the OSD's master tree maps OIDs to metadata and holds every object's
  extent map as a key range (offset → extent descriptor);
* every string index store is also an instance;
* the hierarchical FFS baseline reuses it for nothing — it has its own
  directories — which is exactly the point of the comparison.

Keys and values are ``bytes``.  Iteration is in lexicographic key order.
"""

from __future__ import annotations

import bisect
import operator
import threading
from typing import Iterator, List, Optional, Tuple

from repro.errors import BTreeError, KeyNotFoundError
from repro.btree.cursor import Cursor
from repro.btree.node import (
    INNER_ENTRY_OVERHEAD,
    LEAF_ENTRY_OVERHEAD,
    NO_PAGE,
    NODE_OVERHEAD,
    InnerNode,
    LeafNode,
)
from repro.btree.pages import InMemoryPageStore, PageStore

_MISSING = object()


def _even_cuts(total: int, parts: int):
    """``(start, end)`` of ``parts`` consecutive runs over ``total`` items,
    their lengths differing by at most one."""
    size, extra = divmod(total, parts)
    start = 0
    for part in range(parts):
        end = start + size + (part < extra)
        yield start, end
        start = end


class BPlusTree:
    """An ordered mapping from ``bytes`` keys to ``bytes`` values.

    Occupancy has one rule per kind of store.  Over a store with a page
    size (``DevicePageStore.page_bytes``, kept as ``node_byte_limit``) only
    *bytes* count: a node splits when its encoding outgrows the page,
    underflows below a quarter page, lends to a sibling only while it stays
    at least a quarter page itself, and merges with one when the pair fits
    a page.  Over a store without a page size (standalone indexes, unit tests)
    only *keys* count: ``max_keys`` and ``min_keys``.  Either way a donor
    lends while it does not underflow, so while no entry is over half a
    page a repair always succeeds: what cannot merge can lend.

    :param store: page backend; defaults to a fresh in-memory store.
    :param max_keys: over a store with no page size, the most keys a node
        holds before it splits; ``min_keys`` (underflow threshold) is
        ``max_keys // 2``.
    :param root_id: attach to an *existing* tree rooted at this page instead
        of creating a fresh one (the crash-recovery mount path).
    :param on_root_change: callback invoked with the new root page id
        whenever the root moves (root split or root collapse); the recovery
        layer uses it to journal the master-tree root.
    """

    def __init__(self, store: Optional[PageStore] = None, max_keys: int = 64,
                 root_id: Optional[int] = None,
                 on_root_change=None) -> None:
        if max_keys < 3:
            raise ValueError("max_keys must be at least 3")
        self.store = store if store is not None else InMemoryPageStore()
        self.max_keys = max_keys
        self.min_keys = max_keys // 2
        self.node_byte_limit: Optional[int] = getattr(self.store, "page_bytes", None)
        self._lock = threading.RLock()
        #: nodes visited by lookups/cursors; the index-traversal experiments
        #: (E1) read this to report "how many index hops did that search cost".
        self.node_visits = 0
        self.on_root_change = on_root_change
        if root_id is None:
            root = LeafNode()
            self._root_id = self.store.allocate()
            self.store.write(self._root_id, root)
        else:
            self._root_id = root_id

    @property
    def root_id(self) -> int:
        """Current root page id (persisted so a mount can re-attach)."""
        return self._root_id

    def _move_root(self, new_root_id: int) -> None:
        self._root_id = new_root_id
        if self.on_root_change is not None:
            self.on_root_change(new_root_id)

    def _overfull(self, node) -> bool:
        """A node must split: it outgrew its page, or ``max_keys``.

        A single-entry node is never split (a value too large for a page is
        the store's oversized-node error, not a split opportunity).
        """
        if self.node_byte_limit is None:
            return len(node.keys) > self.max_keys
        return node.nbytes > self.node_byte_limit and len(node.keys) > 1

    def _underflowing(self, node) -> bool:
        """A non-root node wants repair: under a quarter page, or ``min_keys``."""
        if self.node_byte_limit is None:
            return len(node.keys) < self.min_keys
        return node.nbytes < self.node_byte_limit // 4

    # ------------------------------------------------------------------ basic

    def __len__(self) -> int:
        """Walks the leaf chain: for tests and fsck, not for hot paths."""
        return sum(1 for _ in self._leaf_items_from(None))

    def __contains__(self, key: bytes) -> bool:
        # Values are always ``bytes``, so one lookup settles it.
        return self.get(key) is not None

    def _check_key(self, key: bytes) -> bytes:
        if not isinstance(key, (bytes, bytearray)):
            raise BTreeError(f"keys must be bytes, got {type(key).__name__}")
        return bytes(key)

    def _check_value(self, value: bytes) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise BTreeError(f"values must be bytes, got {type(value).__name__}")
        return bytes(value)

    # ---------------------------------------------------------------- lookups

    def _find_leaf(self, key: bytes) -> Tuple[int, LeafNode]:
        """Descend to the leaf that would hold ``key``."""
        page_id = self._root_id
        node = self.store.read(page_id)
        self.node_visits += 1
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            page_id = node.children[index]
            node = self.store.read(page_id)
            self.node_visits += 1
        return page_id, node

    def lookup(self, key: bytes) -> bytes:
        """Return the value for ``key`` or raise :class:`KeyNotFoundError`."""
        key = self._check_key(key)
        with self._lock:
            _page_id, leaf = self._find_leaf(key)
            index = bisect.bisect_left(leaf.keys, key)
            if index < len(leaf.keys) and leaf.keys[index] == key:
                return leaf.values[index]
        raise KeyNotFoundError(key)

    def get(self, key: bytes, default=None):
        """Return the value for ``key`` or ``default`` if absent."""
        try:
            return self.lookup(key)
        except KeyNotFoundError:
            return default

    def first(self) -> Tuple[bytes, bytes]:
        """Return the smallest ``(key, value)`` pair."""
        with self._lock:
            page_id = self._root_id
            node = self.store.read(page_id)
            self.node_visits += 1
            while not node.is_leaf:
                node = self.store.read(node.children[0])
                self.node_visits += 1
            if not node.keys:
                raise KeyNotFoundError("tree is empty")
            return node.keys[0], node.values[0]

    def last(self) -> Tuple[bytes, bytes]:
        """Return the largest ``(key, value)`` pair."""
        with self._lock:
            node = self.store.read(self._root_id)
            self.node_visits += 1
            while not node.is_leaf:
                node = self.store.read(node.children[-1])
                self.node_visits += 1
            if not node.keys:
                raise KeyNotFoundError("tree is empty")
            return node.keys[-1], node.values[-1]

    # ---------------------------------------------------------------- insert

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or replace ``key`` → ``value``."""
        key = self._check_key(key)
        value = self._check_value(value)
        with self._lock:
            root = self.store.read(self._root_id)
            split = self._insert(self._root_id, root, key, value)
            if split is not None:
                separator, right_id = split
                new_root = InnerNode(keys=[separator], children=[self._root_id, right_id])
                new_root_id = self.store.allocate()
                self.store.write(new_root_id, new_root)
                self._move_root(new_root_id)
            else:
                self._collapse_root(root)

    def _insert(self, page_id: int, node, key: bytes, value: bytes):
        if node.is_leaf:
            return self._insert_into_leaf(page_id, node, key, value)
        index = bisect.bisect_right(node.keys, key)
        child_id = node.children[index]
        child = self.store.read(child_id)
        split = self._insert(child_id, child, key, value)
        if split is None:
            if self._underflowing(child):  # a smaller value replaced a bigger one
                self._rebalance(page_id, node, index)
            return None
        separator, right_id = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right_id)
        node.nbytes += INNER_ENTRY_OVERHEAD + len(separator)
        if not self._overfull(node):
            self.store.write(page_id, node)
            return None
        return self._split_inner(page_id, node)

    def _insert_into_leaf(self, page_id: int, leaf: LeafNode, key: bytes, value: bytes):
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            # Replacing a value with a bigger one can outgrow the page
            # without changing the key count (growing metadata records do
            # exactly this) — split just like an insert would.
            leaf.nbytes += len(value) - len(leaf.values[index])
            leaf.values[index] = value
        else:
            leaf.keys.insert(index, key)
            leaf.values.insert(index, value)
            leaf.nbytes += LEAF_ENTRY_OVERHEAD + len(key) + len(value)
        if not self._overfull(leaf):
            self.store.write(page_id, leaf)
            return None
        return self._split_leaf(page_id, leaf)

    def _split_point(self, node) -> Tuple[int, int]:
        """``(index, encoded bytes of the entries before it)`` to split at.

        By count this is the middle.  By bytes it is the index minimizing
        the larger half: with uniform entries the classic middle, and with
        skewed ones (one fat metadata record among small ones, where a
        count middle can leave a half still over the page) whenever any
        split keeps both halves within a page, this one does — including
        the fat-entry-at-either-end cases.
        """
        sizes = [node.entry_size(i) for i in range(len(node.keys))]
        best = len(sizes) // 2
        if self.node_byte_limit is not None:
            total = sum(sizes)
            best_cost = running = 0
            for index in range(1, len(sizes)):
                running += sizes[index - 1]
                cost = max(running, total - running)
                if index == 1 or cost < best_cost:
                    best, best_cost = index, cost
        return best, sum(sizes[:best])

    def _split_leaf(self, page_id: int, leaf: LeafNode):
        mid, left_bytes = self._split_point(leaf)
        right = LeafNode(
            keys=leaf.keys[mid:],
            values=leaf.values[mid:],
            next_leaf=leaf.next_leaf,
            nbytes=leaf.nbytes - left_bytes,
        )
        right_id = self.store.allocate()
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next_leaf = right_id
        leaf.nbytes = NODE_OVERHEAD + left_bytes
        self.store.write(right_id, right)
        self.store.write(page_id, leaf)
        return right.keys[0], right_id

    def _split_inner(self, page_id: int, node: InnerNode):
        # keys[mid] moves up; its child pointer stays as the right half's first.
        mid, left_bytes = self._split_point(node)
        separator = node.keys[mid]
        right = InnerNode(
            keys=node.keys[mid + 1:],
            children=node.children[mid + 1:],
            nbytes=node.nbytes - left_bytes - INNER_ENTRY_OVERHEAD - len(separator),
        )
        right_id = self.store.allocate()
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        node.nbytes = NODE_OVERHEAD + left_bytes
        self.store.write(right_id, right)
        self.store.write(page_id, node)
        return separator, right_id

    # ----------------------------------------------------------- sorted apply

    def apply_sorted(self, updates) -> None:
        """Apply ``(key, fn)`` edits, keys strictly increasing, one write per leaf.

        ``fn(old_value_or_None)`` returns the key's new value, or ``None`` to
        delete it / leave it absent; returning the value it was given writes
        nothing.  One descent finds a leaf and its exclusive upper separator;
        every update below that bound is applied to the in-memory leaf, which
        then gets a single ``store.write``.  An edit the leaf cannot take — it
        would split, or leave a non-root leaf underflowing — is undone and
        goes through :meth:`put` / :meth:`delete` instead, so splits, borrows
        and merges keep their one implementation.
        """
        updates = [(self._check_key(key), fn) for key, fn in updates]
        if any(a[0] >= b[0] for a, b in zip(updates, updates[1:])):
            raise BTreeError("apply_sorted needs strictly increasing keys")
        done = 0
        with self._lock:
            while done < len(updates):
                page_id, node, upper = self._root_id, self.store.read(self._root_id), None
                self.node_visits += 1
                while not node.is_leaf:  # _find_leaf, remembering the bound
                    index = bisect.bisect_right(node.keys, updates[done][0])
                    if index < len(node.keys):
                        upper = node.keys[index]
                    page_id = node.children[index]
                    node = self.store.read(page_id)
                    self.node_visits += 1
                leaf, keys, values = node, node.keys, node.values
                dirty = structural = False
                while done < len(updates) and not structural:
                    key, fn = updates[done]
                    if upper is not None and key >= upper:
                        break
                    done += 1
                    index = bisect.bisect_left(keys, key)
                    present = index < len(keys) and keys[index] == key
                    old = values[index] if present else None
                    new = fn(old)
                    if new == old:
                        continue
                    if new is None:
                        grown = -leaf.entry_size(index)
                        del keys[index], values[index]
                    elif present:
                        values[index] = self._check_value(new)
                        grown = len(new) - len(old)
                    else:
                        keys.insert(index, key)
                        values.insert(index, self._check_value(new))
                        grown = leaf.entry_size(index)
                    leaf.nbytes += grown
                    if grown > 0:
                        structural = self._overfull(leaf)
                    else:
                        structural = (grown < 0 and page_id != self._root_id
                                      and self._underflowing(leaf))
                    if not structural:
                        dirty = True
                        continue
                    leaf.nbytes -= grown  # put the leaf back as it was
                    if new is None:
                        keys.insert(index, key)
                        values.insert(index, old)
                    elif present:
                        values[index] = old
                    else:
                        del keys[index], values[index]
                if dirty:
                    self.store.write(page_id, leaf)
                if structural and new is None:
                    self.delete(key)
                elif structural:
                    self.put(key, new)

    # -------------------------------------------------------------- bulk load

    def bulk_load(self, items) -> None:
        """Fill an empty tree from ``(key, value)`` pairs, keys strictly
        increasing, bottom up: one ``store.write`` per node.

        Leaves are sized evenly under ``max_keys``, so every non-root node
        holds at least ``min_keys``; the leaf chain is linked as they are
        cut, and each inner level is cut the same way from the first key of
        every child below it.  The empty root is freed and the new root
        installed.  Only a count-limited tree can be built this way: a store
        with a page size splits by bytes, and its trees take
        :meth:`apply_sorted`.
        """
        if self.node_byte_limit is not None:
            raise BTreeError("bulk_load builds count-limited trees only")
        keys: List[bytes] = []
        values: List[bytes] = []
        for key, value in items:
            keys.append(key)
            values.append(value)
        if not {*map(type, keys), *map(type, values)} <= {bytes}:
            raise BTreeError("bulk_load takes bytes keys and values")
        if not all(map(operator.lt, keys, keys[1:])):
            raise BTreeError("bulk_load needs strictly increasing keys")
        with self._lock:
            root = self.store.read(self._root_id)
            if not root.is_leaf or root.keys:
                raise BTreeError("bulk_load needs an empty tree")
            if not keys:
                return
            # (first key, page id) of each node of the level just built.
            level = []
            ids = [self.store.allocate() for _ in range(-(-len(keys) // self.max_keys))]
            for index, (start, end) in enumerate(_even_cuts(len(keys), len(ids))):
                next_leaf = ids[index + 1] if index + 1 < len(ids) else NO_PAGE
                self.store.write(ids[index], LeafNode(keys=keys[start:end],
                                                      values=values[start:end],
                                                      next_leaf=next_leaf))
                level.append((keys[start], ids[index]))
            while len(level) > 1:
                # An inner node of n keys has n + 1 children.
                count = -(-len(level) // (self.max_keys + 1))
                above = []
                for start, end in _even_cuts(len(level), count):
                    children = level[start:end]
                    page_id = self.store.allocate()
                    self.store.write(page_id, InnerNode(
                        keys=[first for first, _id in children[1:]],
                        children=[child_id for _first, child_id in children]))
                    above.append((children[0][0], page_id))
                level = above
            old_root_id = self._root_id
            self._move_root(level[0][1])
            self.store.free(old_root_id)

    # ---------------------------------------------------------------- delete

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raise :class:`KeyNotFoundError` if absent."""
        key = self._check_key(key)
        with self._lock:
            root = self.store.read(self._root_id)
            self._delete(self._root_id, root, key)
            self._collapse_root(root)

    def _collapse_root(self, root) -> None:
        """A root that lost its last separator to a merge: promote its only child."""
        if not root.is_leaf and not root.keys:
            old_root_id = self._root_id
            self._move_root(root.children[0])
            self.store.free(old_root_id)

    def destroy(self) -> int:
        """Free every page of the tree back to its store; returns the count.

        For a whole tree that dies: per-key deletes only release pages on
        merges, so dropping a tree without this leaks all its pages.  The
        tree is unusable afterwards.
        """
        with self._lock:
            freed = self._destroy(self._root_id)
        return freed

    def _destroy(self, page_id: int) -> int:
        node = self.store.read(page_id)
        freed = 1
        if not node.is_leaf:
            for child_id in node.children:
                freed += self._destroy(child_id)
        self.store.free(page_id)
        return freed

    def pop(self, key: bytes, default=_MISSING):
        """Remove ``key`` and return its value (or ``default`` if absent)."""
        try:
            value = self.lookup(key)
        except KeyNotFoundError:
            if default is _MISSING:
                raise
            return default
        self.delete(key)
        return value

    def _delete(self, page_id: int, node, key: bytes) -> None:
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise KeyNotFoundError(key)
            node.nbytes -= node.entry_size(index)
            node.keys.pop(index)
            node.values.pop(index)
            self.store.write(page_id, node)
            return
        index = bisect.bisect_right(node.keys, key)
        child_id = node.children[index]
        child = self.store.read(child_id)
        self._delete(child_id, child, key)
        if self._underflowing(child):
            self._rebalance(page_id, node, index)

    def _can_lend(self, parent: InnerNode, index: int, donor, child,
                  from_left: bool) -> bool:
        """Whether ``donor`` may move its entry nearest ``child`` over to it.

        While it does not underflow itself: it keeps ``min_keys`` or, by
        bytes, a quarter page — and then only if the child still fits its
        page, and so does the parent once the separator between them is the
        donor's next key.
        """
        limit = self.node_byte_limit
        if limit is None:
            return len(donor.keys) > self.min_keys
        if len(donor.keys) < 2:
            return False
        edge = len(donor.keys) - 1 if from_left else 0
        separator = parent.keys[index - 1 if from_left else index]
        if child.is_leaf:
            gained = donor.entry_size(edge)
            rising = donor.keys[edge if from_left else 1]
        else:
            gained = INNER_ENTRY_OVERHEAD + len(separator)
            rising = donor.keys[edge]
        return (donor.nbytes - donor.entry_size(edge) >= limit // 4
                and child.nbytes + gained <= limit
                and parent.nbytes + len(rising) - len(separator) <= limit)

    def _merged_bytes(self, parent: InnerNode, left_index: int, left, right) -> int:
        """Encoded size of ``left`` and ``right`` merged into one node."""
        merged = left.nbytes + right.nbytes - NODE_OVERHEAD
        if not left.is_leaf:  # the separator between them comes down
            merged += INNER_ENTRY_OVERHEAD + len(parent.keys[left_index])
        return merged

    def _merge_fits(self, parent: InnerNode, left_index: int, left, right) -> bool:
        return (self.node_byte_limit is None
                or self._merged_bytes(parent, left_index, left, right) <= self.node_byte_limit)

    def _rebalance(self, parent_id: int, parent: InnerNode, index: int) -> None:
        """Fix an underflowing child ``parent.children[index]``.

        Siblings lend while :meth:`_can_lend` lets them (by count one entry
        is always enough); a child still underflowing merges with a sibling
        when the pair fits a page.  When entries over half a page leave
        neither possible, the child stays as it is.
        """
        child_id = parent.children[index]
        child = self.store.read(child_id)
        left_id = parent.children[index - 1] if index > 0 else None
        right_id = parent.children[index + 1] if index + 1 < len(parent.children) else None
        left = self.store.read(left_id) if left_id is not None else None
        right = self.store.read(right_id) if right_id is not None else None

        changed = {}  # page id -> node, each written once, in this order
        while (left is not None and self._underflowing(child)
               and self._can_lend(parent, index, left, child, from_left=True)):
            self._borrow_from_left(parent, index, left, child)
            changed[left_id] = left
        while (right is not None and self._underflowing(child)
               and self._can_lend(parent, index, right, child, from_left=False)):
            self._borrow_from_right(parent, index, child, right)
            changed[right_id] = right
        if changed:
            changed[child_id] = child
            changed[parent_id] = parent
        freed = None
        if self._underflowing(child):
            # Merge: prefer merging child into its left sibling.
            if left is not None and self._merge_fits(parent, index - 1, left, child):
                self._merge(parent, index - 1, left, child)
                changed[left_id], changed[parent_id], freed = left, parent, child_id
            elif right is not None and self._merge_fits(parent, index, child, right):
                self._merge(parent, index, child, right)
                changed[child_id], changed[parent_id], freed = child, parent, right_id
        changed.pop(freed, None)
        for page_id, node in changed.items():
            self.store.write(page_id, node)
        if freed is not None:
            self.store.free(freed)

    def _borrow_from_left(self, parent: InnerNode, index: int, left, child) -> None:
        moved = left.entry_size(len(left.keys) - 1)
        old_separator = parent.keys[index - 1]
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
            child.nbytes += moved
        else:
            child.keys.insert(0, old_separator)
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
            child.nbytes += INNER_ENTRY_OVERHEAD + len(old_separator)
        left.nbytes -= moved
        parent.nbytes += len(parent.keys[index - 1]) - len(old_separator)

    def _borrow_from_right(self, parent: InnerNode, index: int, child, right) -> None:
        moved = right.entry_size(0)
        old_separator = parent.keys[index]
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
            child.nbytes += moved
        else:
            child.keys.append(old_separator)
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
            child.nbytes += INNER_ENTRY_OVERHEAD + len(old_separator)
        right.nbytes -= moved
        parent.nbytes += len(parent.keys[index]) - len(old_separator)

    def _merge(self, parent: InnerNode, left_index: int, left, right) -> None:
        """Merge ``right`` into ``left``; ``left_index`` is left's separator slot."""
        left.nbytes = self._merged_bytes(parent, left_index, left, right)
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.nbytes -= parent.entry_size(left_index)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # ---------------------------------------------------------------- cursors

    def cursor(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        prefix: Optional[bytes] = None,
        reverse: bool = False,
    ) -> Cursor:
        """Return a cursor over ``[start, end)`` (or all keys).

        ``prefix`` restricts iteration to keys beginning with those bytes and
        is mutually exclusive with ``start``/``end``.
        """
        if prefix is not None:
            if start is not None or end is not None:
                raise BTreeError("prefix cannot be combined with start/end")
            # Keys sharing a prefix are contiguous, so the cursor starts at the
            # prefix and stops at the first key that no longer matches it.
            start = prefix
        return Cursor(self, start=start, end=end, prefix=prefix, reverse=reverse)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate all ``(key, value)`` pairs in key order."""
        return iter(self.cursor())

    def keys(self) -> Iterator[bytes]:
        for key, _value in self.items():
            yield key

    def values(self) -> Iterator[bytes]:
        for _key, value in self.items():
            yield value

    def _leaf_items_from(self, start: Optional[bytes], end: Optional[bytes] = None,
                         prefix: Optional[bytes] = None):
        """Yield ``(key, value)`` pairs starting at the first key >= start.

        ``end`` / ``prefix`` are the range the caller stops at (it still
        filters keys itself).  The descent's *fence* — the separator right of
        the first leaf, below every key of every later leaf — says whether
        that range can continue past the first leaf; when it cannot, the walk
        ends there instead of reading the next leaf to find out.  A short
        range never touches a neighbour's page, rotten or not.
        """
        with self._lock:
            fence = None
            node = self.store.read(self._root_id)
            self.node_visits += 1
            while not node.is_leaf:
                index = 0 if start is None else bisect.bisect_right(node.keys, start)
                if index < len(node.keys):
                    fence = node.keys[index]
                node = self.store.read(node.children[index])
                self.node_visits += 1
            leaf = node
            index = 0 if start is None else bisect.bisect_left(leaf.keys, start)
        last_leaf = fence is not None and (
            (end is not None and fence >= end)
            or (prefix is not None and fence > prefix and not fence.startswith(prefix))
        )
        while True:
            while index < len(leaf.keys):
                yield leaf.keys[index], leaf.values[index]
                index += 1
            if last_leaf or leaf.next_leaf == NO_PAGE:
                return
            leaf = self.store.read(leaf.next_leaf)
            self.node_visits += 1
            index = 0

    # ---------------------------------------------------------------- stats

    def depth(self) -> int:
        """Height of the tree (1 = a single leaf)."""
        depth = 1
        node = self.store.read(self._root_id)
        while not node.is_leaf:
            depth += 1
            node = self.store.read(node.children[0])
        return depth

    def reset_counters(self) -> None:
        self.node_visits = 0

    # ----------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Verify structural invariants; raises ``AssertionError`` on failure.

        Checked: key ordering within and across nodes, uniform leaf depth,
        child counts on inner nodes, the leaf chain visiting every key in
        order, and occupancy (root exempt).  By count, a
        node holds at least ``min_keys``.  By bytes, a node's running size
        is its encoded size and fits the page, and a node under a quarter
        page is one that neither sibling could merge with — which entries
        over half a page can leave, and smaller ones cannot.
        """
        leaf_depths: List[int] = []
        keys_by_walk: List[bytes] = []
        limit = self.node_byte_limit

        def check_occupancy(node, parent, index: int) -> None:
            kind = "leaf" if node.is_leaf else "inner"
            if limit is None:
                assert len(node.keys) >= self.min_keys, f"{kind} underflow"
            elif self._underflowing(node):
                for at in (index - 1, index):  # at: the left node's separator slot
                    if 0 <= at < len(parent.keys):
                        left, right = (self.store.read(parent.children[side])
                                       for side in (at, at + 1))
                        assert not self._merge_fits(parent, at, left, right), (
                            f"{kind} underflow: under a quarter page beside a "
                            "sibling it fits a page with")

        def walk(page_id: int, depth: int, low: Optional[bytes], high: Optional[bytes],
                 parent=None, index: int = 0):
            node = self.store.read(page_id)
            is_root = parent is None
            if limit is not None:
                assert node.nbytes == node.encoded_size(), "running node size is stale"
                assert node.nbytes <= limit, "node larger than its page"
            if not is_root:
                check_occupancy(node, parent, index)
            if node.is_leaf:
                assert node.keys == sorted(node.keys), "leaf keys unsorted"
                assert len(node.keys) == len(set(node.keys)), "duplicate keys in leaf"
                assert len(node.keys) == len(node.values), "key/value length mismatch"
                for key in node.keys:
                    if low is not None:
                        assert key >= low, "leaf key below separator"
                    if high is not None:
                        assert key < high, "leaf key above separator"
                leaf_depths.append(depth)
                keys_by_walk.extend(node.keys)
                return
            assert node.keys == sorted(node.keys), "inner keys unsorted"
            assert len(node.children) == len(node.keys) + 1, "child count mismatch"
            if is_root:
                assert len(node.keys) >= 1, "non-leaf root must have a separator"
            bounds = [low] + list(node.keys) + [high]
            for i, child_id in enumerate(node.children):
                walk(child_id, depth + 1, bounds[i], bounds[i + 1], node, i)

        walk(self._root_id, 1, None, None)
        assert len(set(leaf_depths)) == 1, "leaves at different depths"
        assert keys_by_walk == sorted(keys_by_walk), "global key order violated"
        chain = [key for key, _ in self._leaf_items_from(None)]
        assert chain == keys_by_walk, "leaf chain disagrees with tree walk"
