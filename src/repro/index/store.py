"""The index-store interface and the registry that routes tags to stores.

The registry answers the paper's first open question — "Should hFAD support
arbitrary types of indexing through, for example, a plug-in model?" — with a
concrete mechanism: any object implementing :class:`IndexStore` can be
registered for one or more tags, and naming operations are routed to the
store owning each tag.  The ID fast path (Table 1) is handled by the registry
itself: an ``ID`` lookup never consults an index at all.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import DuplicateIndexError, IndexStoreError, UnknownTagError
from repro.index.tags import TAG_ID, TagValue, normalize_tag
from repro.query.cursors import DocIdCursor, ListCursor


class IndexStore:
    """Interface every index store implements.

    An index store maps ``(tag, value)`` pairs to sets of object ids.  How it
    does so — btree, inverted index, feature vectors — is its own business;
    the registry only relies on this interface.
    """

    #: human-readable name, used in diagnostics and the Figure-1 trace bench.
    name = "abstract"

    def tags(self) -> Sequence[str]:
        """The tags this store serves."""
        raise NotImplementedError

    def insert(self, tag: str, value: str, oid: int) -> None:
        """Associate ``oid`` with ``(tag, value)``."""
        raise NotImplementedError

    def remove(self, tag: str, value: str, oid: int) -> bool:
        """Drop the association; returns True if it existed."""
        raise NotImplementedError

    def lookup(self, tag: str, value: str) -> List[int]:
        """Return the sorted object ids associated with ``(tag, value)``."""
        raise NotImplementedError

    def remove_object(self, oid: int) -> int:
        """Drop every association of ``oid``; returns how many were dropped."""
        raise NotImplementedError

    def values_for(self, oid: int) -> List[TagValue]:
        """The tag/value pairs currently naming ``oid`` in this store."""
        raise NotImplementedError

    def open_cursor(self, tag: str, value: str) -> DocIdCursor:
        """A streaming :class:`~repro.query.cursors.DocIdCursor` over the
        objects matching ``(tag, value)``.

        This default is the *materialized-fallback adapter*: it runs
        :meth:`lookup` once and wraps the sorted list, so every store
        satisfies the cursor protocol (sorted, seekable, estimable) even if
        it cannot stream natively.  Stores that can — the B+-tree-backed
        key/value index, the inverted index — override it to avoid
        materializing anything.
        """
        return ListCursor(self.lookup(tag, value))


@dataclass
class RegistryStats:
    """Work counters aggregated across naming operations."""

    lookups: int = 0
    fastpath_lookups: int = 0
    inserts: int = 0
    removals: int = 0


class IndexStoreRegistry:
    """The "extensible collection of indices" of Figure 1.

    Stores are registered per tag; at most one store owns a tag.  Lookups for
    the ``ID`` tag short-circuit (the FastPath row of Table 1).
    """

    def __init__(self) -> None:
        self._by_tag: Dict[str, IndexStore] = {}
        self._stores: List[IndexStore] = []
        self.stats = RegistryStats()
        # Per-tag mutation generations, consumed by the query-result cache
        # (repro.cache.query_cache): every mutation that can change a tag's
        # lookups bumps its counter, so cached results for that tag — and
        # only that tag — become stale.  touch() may be called from several
        # writer threads at once, so increments are locked: a lost update
        # would leave a stale cache entry validating as fresh forever.
        self._generations: Dict[str, int] = {}
        self._generation_lock = threading.Lock()

    # ----------------------------------------------------------- plug-ins

    def register(self, store: IndexStore, tags: Optional[Iterable[str]] = None) -> None:
        """Register ``store`` for ``tags`` (default: the tags it declares)."""
        tag_list = [normalize_tag(tag) for tag in (tags if tags is not None else store.tags())]
        if not tag_list:
            raise IndexStoreError(f"store {store.name!r} declares no tags")
        for tag in tag_list:
            if tag == TAG_ID:
                raise IndexStoreError("the ID tag is handled by the registry itself")
            if tag in self._by_tag:
                raise DuplicateIndexError(
                    f"tag {tag} already served by {self._by_tag[tag].name!r}"
                )
        for tag in tag_list:
            self._by_tag[tag] = store
        if store not in self._stores:
            self._stores.append(store)

    def unregister(self, store: IndexStore) -> None:
        """Remove ``store`` and every tag routed to it."""
        self._by_tag = {tag: s for tag, s in self._by_tag.items() if s is not store}
        self._stores = [s for s in self._stores if s is not store]

    def store_for(self, tag: str) -> IndexStore:
        """The store serving ``tag``; raises :class:`UnknownTagError`."""
        store = self._by_tag.get(normalize_tag(tag))
        if store is None:
            raise UnknownTagError(f"no index store registered for tag {tag!r}")
        return store

    def supports(self, tag: str) -> bool:
        tag = normalize_tag(tag)
        return tag == TAG_ID or tag in self._by_tag

    @property
    def stores(self) -> List[IndexStore]:
        return list(self._stores)

    @property
    def registered_tags(self) -> Set[str]:
        return set(self._by_tag) | {TAG_ID}

    # -------------------------------------------------------- generations

    def generation(self, tag: str) -> int:
        """Current mutation generation of ``tag`` (0 until first mutation)."""
        return self._generations.get(normalize_tag(tag), 0)

    def touch(self, tag: str) -> None:
        """Record that ``tag``'s lookups may have changed.

        Called automatically by :meth:`insert`/:meth:`remove`/
        :meth:`remove_object`; callers that mutate a store directly (e.g. the
        path index's rename, or content indexing feeding the FULLTEXT index)
        must call this themselves so query caches stay precise.
        """
        tag = normalize_tag(tag)
        with self._generation_lock:
            self._generations[tag] = self._generations.get(tag, 0) + 1

    def _tags_of(self, store: IndexStore) -> List[str]:
        return [tag for tag, owner in self._by_tag.items() if owner is store]

    # ------------------------------------------------------------- naming

    def insert(self, tag: str, value: str, oid: int) -> None:
        """Add one naming association."""
        self.stats.inserts += 1
        self.store_for(tag).insert(normalize_tag(tag), str(value), oid)
        self.touch(tag)

    def remove(self, tag: str, value: str, oid: int) -> bool:
        """Remove one naming association."""
        self.stats.removals += 1
        removed = self.store_for(tag).remove(normalize_tag(tag), str(value), oid)
        if removed:
            self.touch(tag)
        return removed

    def remove_object(self, oid: int) -> int:
        """Remove ``oid`` from every registered store (object deletion)."""
        removed = 0
        for store in self._stores:
            dropped = store.remove_object(oid)
            if dropped:
                # The store does not say which of its tags named the object,
                # so every tag it serves may have changed.
                for tag in self._tags_of(store):
                    self.touch(tag)
            removed += dropped
        return removed

    def lookup(self, tag: str, value: str) -> List[int]:
        """Object ids matching one ``(tag, value)`` pair, sorted."""
        tag = normalize_tag(tag)
        if tag == TAG_ID:
            # FastPath: "a special tag, ID, indicates that the value is
            # actually a unique object ID" — no index traversal at all.
            self.stats.fastpath_lookups += 1
            try:
                return [int(value)]
            except (TypeError, ValueError):
                raise IndexStoreError(f"ID lookups need an integer value, got {value!r}")
        self.stats.lookups += 1
        return self.store_for(tag).lookup(tag, str(value))

    def open_cursor(self, tag: str, value: str) -> DocIdCursor:
        """A streaming cursor over one ``(tag, value)`` pair's matches.

        The streaming twin of :meth:`lookup`: the same routing (including
        the ID fast path) but the store hands back a cursor instead of a
        materialized list, so conjunctions only pull what they consume.
        """
        tag = normalize_tag(tag)
        if tag == TAG_ID:
            self.stats.fastpath_lookups += 1
            try:
                return ListCursor([int(value)])
            except (TypeError, ValueError):
                raise IndexStoreError(f"ID lookups need an integer value, got {value!r}")
        self.stats.lookups += 1
        return self.store_for(tag).open_cursor(tag, str(value))

    def lookup_all(self, pairs: Sequence[TagValue]) -> List[int]:
        """Conjunction of every pair's matches (the paper's naming semantics).

        Pairs are evaluated smallest-result-first by the query planner in
        ``repro.core.query``; this method is the unplanned building block.
        """
        result: Optional[Set[int]] = None
        for pair in pairs:
            matches = set(self.lookup(pair.tag, pair.value))
            result = matches if result is None else (result & matches)
            if not result:
                return []
        return sorted(result or [])

    def names_for(self, oid: int) -> List[TagValue]:
        """Every tag/value pair naming ``oid`` across all stores."""
        names: List[TagValue] = []
        for store in self._stores:
            names.extend(store.values_for(oid))
        return sorted(names, key=lambda tv: (tv.tag, tv.value))
