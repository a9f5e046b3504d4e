"""A page-oriented B+-tree with insert, delete (with rebalancing) and cursors.

This is the ordered key/value store the rest of hFAD builds on, standing in
for Berkeley DB btrees (paper Section 3.4):

* the OSD represents every object as one of these trees keyed by byte offset
  with extent descriptors as values, using the NULL (empty) key for metadata;
* the OID→metadata map and every string index store are also instances;
* the hierarchical FFS baseline reuses it for nothing — it has its own
  directories — which is exactly the point of the comparison.

Keys and values are ``bytes``.  Iteration is in lexicographic key order.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator, List, Optional, Tuple

from repro.errors import BTreeError, KeyNotFoundError
from repro.btree.cursor import Cursor
from repro.btree.node import NO_PAGE, InnerNode, LeafNode
from repro.btree.pages import InMemoryPageStore, PageStore

_MISSING = object()


class BPlusTree:
    """An ordered mapping from ``bytes`` keys to ``bytes`` values.

    :param store: page backend; defaults to a fresh in-memory store.
    :param max_keys: maximum keys per node before it splits.  ``min_keys``
        (underflow threshold) is ``max_keys // 2``.
    :param root_id: attach to an *existing* tree rooted at this page instead
        of creating a fresh one (the crash-recovery mount path).  The element
        count is rebuilt by one leaf-chain walk unless ``count`` is supplied.
    :param count: known element count when attaching via ``root_id`` —
        callers that already walk the tree (the mount reservation pass) use
        it to skip the redundant counting walk.
    :param on_root_change: callback invoked with the new root page id
        whenever the root moves (root split or root collapse); the recovery
        layer uses it to journal the master-tree root.
    :param node_byte_limit: split nodes whose *encoded* size would exceed
        this many bytes, regardless of key count.  Defaults to the store's
        page size when it has one (``DevicePageStore.page_bytes``), so
        variable-size values (fat metadata records) can never overflow a
        device page.  Byte-limited trees skip count-based merges that would
        not fit, so their occupancy invariant is byte- rather than
        count-driven.
    """

    def __init__(self, store: Optional[PageStore] = None, max_keys: int = 64,
                 root_id: Optional[int] = None,
                 count: Optional[int] = None,
                 on_root_change=None,
                 node_byte_limit: Optional[int] = None) -> None:
        if max_keys < 3:
            raise ValueError("max_keys must be at least 3")
        self.store = store if store is not None else InMemoryPageStore()
        self.max_keys = max_keys
        self.min_keys = max_keys // 2
        if node_byte_limit is None:
            node_byte_limit = getattr(self.store, "page_bytes", None)
        self.node_byte_limit = node_byte_limit
        self._lock = threading.RLock()
        self._count = 0
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
            self._count = (
                count if count is not None
                else sum(1 for _ in self._leaf_items_from(None))
            )

    @property
    def root_id(self) -> int:
        """Current root page id (persisted so a mount can re-attach)."""
        return self._root_id

    def _move_root(self, new_root_id: int) -> None:
        self._root_id = new_root_id
        if self.on_root_change is not None:
            self.on_root_change(new_root_id)

    def _overfull(self, node) -> bool:
        """A node must split: too many keys, or too many encoded bytes.

        A single-entry node is never split (a value too large for a page is
        the store's oversized-node error, not a split opportunity).
        """
        if len(node.keys) > self.max_keys:
            return True
        return (
            self.node_byte_limit is not None
            and len(node.keys) > 1
            and node.encoded_size() > self.node_byte_limit
        )

    def _fits(self, node) -> bool:
        """Whether a (prospective) node respects the byte budget."""
        return (
            self.node_byte_limit is None
            or node.encoded_size() <= self.node_byte_limit
        )

    # ------------------------------------------------------------------ basic

    def __len__(self) -> int:
        return self._count

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

    def _insert(self, page_id: int, node, key: bytes, value: bytes):
        if node.is_leaf:
            return self._insert_into_leaf(page_id, node, key, value)
        index = bisect.bisect_right(node.keys, key)
        child_id = node.children[index]
        child = self.store.read(child_id)
        split = self._insert(child_id, child, key, value)
        if split is None:
            return None
        separator, right_id = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right_id)
        if not self._overfull(node):
            self.store.write(page_id, node)
            return None
        return self._split_inner(page_id, node)

    def _insert_into_leaf(self, page_id: int, leaf: LeafNode, key: bytes, value: bytes):
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            # Replacing a value with a bigger one can overflow the byte
            # budget without changing the key count (growing metadata
            # records do exactly this) — split just like an insert would.
            leaf.values[index] = value
            if not self._overfull(leaf):
                self.store.write(page_id, leaf)
                return None
            return self._split_leaf(page_id, leaf)
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        self._count += 1
        if not self._overfull(leaf):
            self.store.write(page_id, leaf)
            return None
        return self._split_leaf(page_id, leaf)

    def _leaf_split_point(self, leaf: LeafNode) -> int:
        """Split index balancing *bytes*, not entry counts.

        With uniform values this is the classic middle; with skewed value
        sizes (one fat metadata record among small ones) a count-based
        middle can leave one half still over the page budget.  The index
        minimizing the larger half's byte size is chosen, so whenever any
        split can keep both halves within the budget, this one does —
        including the fat-entry-at-either-end cases where a "first half
        reaching 50%" heuristic degenerates to the count middle.
        """
        entries = len(leaf.keys)
        if self.node_byte_limit is None:
            return entries // 2
        sizes = [leaf.entry_size(i) for i in range(entries)]
        total = sum(sizes)
        best = entries // 2
        best_cost: Optional[int] = None
        running = 0
        for index in range(1, entries):
            running += sizes[index - 1]
            cost = max(running, total - running)
            if best_cost is None or cost < best_cost:
                best, best_cost = index, cost
        return best

    def _split_leaf(self, page_id: int, leaf: LeafNode):
        mid = self._leaf_split_point(leaf)
        right = LeafNode(
            keys=leaf.keys[mid:],
            values=leaf.values[mid:],
            next_leaf=leaf.next_leaf,
        )
        right_id = self.store.allocate()
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next_leaf = right_id
        self.store.write(right_id, right)
        self.store.write(page_id, leaf)
        return right.keys[0], right_id

    def _split_inner(self, page_id: int, node: InnerNode):
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = InnerNode(keys=node.keys[mid + 1:], children=node.children[mid + 1:])
        right_id = self.store.allocate()
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
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
        would split, or leave a non-root leaf under ``min_keys`` — is undone
        and goes through :meth:`put` / :meth:`delete` instead, so splits,
        borrows and merges keep their one implementation.
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
                        structural = page_id != self._root_id and len(keys) <= self.min_keys
                        if not structural:
                            del keys[index], values[index]
                            self._count -= 1
                    elif present:
                        values[index] = self._check_value(new)
                        structural = self._overfull(leaf)
                        if structural:
                            values[index] = old
                    else:
                        keys.insert(index, key)
                        values.insert(index, self._check_value(new))
                        structural = self._overfull(leaf)
                        if structural:
                            del keys[index], values[index]
                        else:
                            self._count += 1
                    dirty = dirty or not structural
                if dirty:
                    self.store.write(page_id, leaf)
                if structural and new is None:
                    self.delete(key)
                elif structural:
                    self.put(key, new)

    # ---------------------------------------------------------------- delete

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raise :class:`KeyNotFoundError` if absent."""
        key = self._check_key(key)
        with self._lock:
            root = self.store.read(self._root_id)
            self._delete(self._root_id, root, key)
            root = self.store.read(self._root_id)
            if not root.is_leaf and len(root.keys) == 0:
                # The root lost its last separator: promote its only child.
                old_root_id = self._root_id
                self._move_root(root.children[0])
                self.store.free(old_root_id)

    def destroy(self) -> int:
        """Free every page of the tree back to its store; returns the count.

        Used when a whole tree dies (object deletion): per-key deletes only
        release pages on merges, so dropping a tree without this leaks all
        its pages.  The tree is unusable afterwards.
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
            node.keys.pop(index)
            node.values.pop(index)
            self._count -= 1
            self.store.write(page_id, node)
            return
        index = bisect.bisect_right(node.keys, key)
        child_id = node.children[index]
        child = self.store.read(child_id)
        self._delete(child_id, child, key)
        if self._underflowing(child):
            self._rebalance(page_id, node, index)

    def _underflowing(self, node) -> bool:
        return len(node.keys) < self.min_keys

    def _borrow_fits(self, parent: InnerNode, index: int, donor, child,
                     from_left: bool) -> bool:
        """Whether moving one entry from ``donor`` keeps ``child`` in budget."""
        if self.node_byte_limit is None:
            return True
        if child.is_leaf:
            donor_index = len(donor.keys) - 1 if from_left else 0
            added = donor.entry_size(donor_index)
        else:
            separator = parent.keys[index - 1] if from_left else parent.keys[index]
            added = 12 + len(separator)  # length prefix + key + child pointer
        return child.encoded_size() + added <= self.node_byte_limit

    def _merge_fits(self, left, right) -> bool:
        """Whether merging two siblings respects the byte budget.

        ``encoded_size`` of both nodes slightly over-counts the merged node
        (one header survives, not two), so this is conservatively safe.
        """
        if self.node_byte_limit is None:
            return True
        return left.encoded_size() + right.encoded_size() <= self.node_byte_limit

    def _rebalance(self, parent_id: int, parent: InnerNode, index: int) -> None:
        """Fix an underflowing child ``parent.children[index]``.

        In a byte-limited tree a repair step that would overflow a page is
        skipped; if neither borrowing nor merging fits, the child simply
        stays count-underfull (occupancy is byte-driven there — classic
        lazy deletion).
        """
        child_id = parent.children[index]
        child = self.store.read(child_id)
        left_id = parent.children[index - 1] if index > 0 else None
        right_id = parent.children[index + 1] if index + 1 < len(parent.children) else None
        left = self.store.read(left_id) if left_id is not None else None
        right = self.store.read(right_id) if right_id is not None else None

        if (left is not None and len(left.keys) > self.min_keys
                and self._borrow_fits(parent, index, left, child, from_left=True)):
            self._borrow_from_left(parent, index, left, child)
            self.store.write(left_id, left)
            self.store.write(child_id, child)
            self.store.write(parent_id, parent)
            return
        if (right is not None and len(right.keys) > self.min_keys
                and self._borrow_fits(parent, index, right, child, from_left=False)):
            self._borrow_from_right(parent, index, child, right)
            self.store.write(right_id, right)
            self.store.write(child_id, child)
            self.store.write(parent_id, parent)
            return
        # Merge: prefer merging child into its left sibling.
        if left is not None and self._merge_fits(left, child):
            self._merge(parent, index - 1, left, child)
            self.store.write(left_id, left)
            self.store.write(parent_id, parent)
            self.store.free(child_id)
        elif right is not None and self._merge_fits(child, right):
            self._merge(parent, index, child, right)
            self.store.write(child_id, child)
            self.store.write(parent_id, parent)
            self.store.free(right_id)

    def _borrow_from_left(self, parent: InnerNode, index: int, left, child) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: InnerNode, index: int, child, right) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: InnerNode, left_index: int, left, right) -> None:
        """Merge ``right`` into ``left``; ``left_index`` is left's separator slot."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
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

    def _leaf_items_from(self, start: Optional[bytes]):
        """Yield ``(key, value)`` pairs starting at the first key >= start."""
        with self._lock:
            if start is None:
                page_id = self._root_id
                node = self.store.read(page_id)
                self.node_visits += 1
                while not node.is_leaf:
                    page_id = node.children[0]
                    node = self.store.read(page_id)
                    self.node_visits += 1
                leaf = node
                index = 0
            else:
                _page_id, leaf = self._find_leaf(start)
                index = bisect.bisect_left(leaf.keys, start)
        while True:
            while index < len(leaf.keys):
                yield leaf.keys[index], leaf.values[index]
                index += 1
            if leaf.next_leaf == NO_PAGE:
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
        minimum-occupancy rules (root exempt), child counts on inner nodes,
        the leaf chain visiting every key in order, and the element count.
        """
        leaf_depths: List[int] = []
        keys_by_walk: List[bytes] = []

        def walk(page_id: int, depth: int, low: Optional[bytes], high: Optional[bytes], is_root: bool):
            node = self.store.read(page_id)
            if node.is_leaf:
                assert node.keys == sorted(node.keys), "leaf keys unsorted"
                assert len(node.keys) == len(set(node.keys)), "duplicate keys in leaf"
                assert len(node.keys) == len(node.values), "key/value length mismatch"
                if not is_root and self.node_byte_limit is None:
                    # Byte-limited trees may legitimately keep count-underfull
                    # nodes (merges that would overflow a page are skipped).
                    assert len(node.keys) >= self.min_keys, "leaf underflow"
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
            if not is_root:
                if self.node_byte_limit is None:
                    assert len(node.keys) >= self.min_keys, "inner underflow"
            else:
                assert len(node.keys) >= 1, "non-leaf root must have a separator"
            bounds = [low] + list(node.keys) + [high]
            for i, child_id in enumerate(node.children):
                walk(child_id, depth + 1, bounds[i], bounds[i + 1], is_root=False)

        walk(self._root_id, 1, None, None, is_root=True)
        assert len(set(leaf_depths)) == 1, "leaves at different depths"
        assert keys_by_walk == sorted(keys_by_walk), "global key order violated"
        assert len(keys_by_walk) == self._count, "count does not match contents"
        chain = [key for key, _ in self._leaf_items_from(None)]
        assert chain == keys_by_walk, "leaf chain disagrees with tree walk"
