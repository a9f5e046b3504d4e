"""Generation-checked memos: query results, ranked answers, estimates.

Repeated searches dominate real desktop-search traffic (the same saved
queries — "my photos", "mail from margo" — re-run constantly, which is also
why the semantic layer materialises them as virtual directories).  One class,
:class:`GenerationMemo`, memoises the answers those repeats need — boolean
result sets, ranked top-k lists and the planner's cardinality estimates — so
a warm repeat costs a dict probe instead of index traversals.

Two mechanisms keep it correct:

* **Canonical keys** — boolean queries are keyed by a canonical rendering in
  which the children of ``AND``/``OR`` are sorted, so ``A/1 AND B/2`` and
  ``B/2 AND A/1`` share one entry (:func:`canonical_key`).
* **Tag generations** — the :class:`~repro.index.store.IndexStoreRegistry`
  keeps a monotonically increasing generation per tag, bumped on every
  mutation that can change that tag's lookups.  An entry carries a token
  built from the generations of the tags its answer depends on
  (:func:`query_tags` for a boolean query); a lookup under a different
  token drops it, so invalidation is *precise* — an insert under ``USER``
  never invalidates a pure ``FULLTEXT`` query.

Each memo holds at most ``capacity`` entries, evicting least recently used.

Interplay with streamed ``limit=`` queries (see ``repro.core.naming``): only
*fully-consumed* streams are cached under a query's canonical key, so a
cached entry is always the complete answer and can serve any later limit as
a prefix.  A truncated top-k result is stored under a separate
``"<key> LIMIT <n>"`` key and only ever answers that exact limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.errors import CacheError


def _query_module():
    # Imported lazily: repro.core.query sits above this package in the layer
    # diagram (btree → cache would otherwise form an import cycle through it).
    from repro.core import query

    return query


def canonical_key(query) -> str:
    """Render ``query`` in a canonical textual form usable as a cache key.

    ``AND``/``OR`` children are sorted by their own canonical rendering, so
    order-insensitive rewritings of the same query map to the same key.
    Values are ``repr``-escaped: they are arbitrary strings, and an
    unescaped value containing ``" OR "`` would otherwise render identically
    to a different query's structure and serve it the wrong cached result.
    """
    q = _query_module()
    TagTerm, And, Or, Not, parse_query = q.TagTerm, q.And, q.Or, q.Not, q.parse_query
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, TagTerm):
        return f"{query.tag!r}/{query.value!r}"
    if isinstance(query, Not):
        return f"NOT {canonical_key(query.child)}"
    if isinstance(query, (And, Or)):
        if len(query.children) == 1:
            # And([t]) ≡ t ≡ Or([t]): share one cache entry.
            return canonical_key(query.children[0])
        keyword = " AND " if isinstance(query, And) else " OR "
        return "(" + keyword.join(sorted(canonical_key(c) for c in query.children)) + ")"
    raise CacheError(f"cannot canonicalize query node {query!r}")


def query_tags(query) -> Set[str]:
    """The set of tags a query's result depends on."""
    q = _query_module()
    TagTerm, And, Or, Not = q.TagTerm, q.And, q.Or, q.Not
    if isinstance(query, TagTerm):
        return {query.tag}
    if isinstance(query, Not):
        return query_tags(query.child)
    if isinstance(query, (And, Or)):
        tags: Set[str] = set()
        for child in query.children:
            tags |= query_tags(child)
        return tags
    raise CacheError(f"cannot extract tags from query node {query!r}")


class GenerationMemo:
    """A locked LRU map from a key to ``(value, token)``.

    An entry answers :meth:`lookup` only while the caller's current token
    equals the one it was stored with; otherwise it is dropped and the
    lookup misses.  Tokens are built from the registry's per-tag
    generations, which only ever grow, so a stale entry never turns valid
    again.  Callers take the token *before* they evaluate: a mutation that
    lands mid-evaluation then leaves the stored entry already stale, and
    the next lookup drops it instead of serving it.

    The facade keeps three instances with one stats shape (:meth:`snapshot`):
    ``fs.query_cache`` (canonical boolean query → result tuple, token = the
    generations of every tag the query touches), ``fs.ranked_cache``
    (``(text, limit)`` → ranked hits, token = the FULLTEXT generation) and
    the planner's estimate memo (``(tag, value)`` → cardinality, token = that
    tag's generation).  Values are kept as given; callers store immutable
    ones.  ``None`` is reserved for "no answer".
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CacheError("memo capacity must be at least 1 entry")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: entries dropped on lookup because their token had moved on.
        self.stale_drops = 0
        self.stores = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Tuple[object, Hashable]]" = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: Hashable, token: Hashable) -> Optional[object]:
        """The value stored under ``key`` if its token is ``token``, else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[1] == token:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry[0]
                del self._entries[key]
                self.stale_drops += 1
            self.misses += 1
            return None

    def store(self, key: Hashable, value: object, token: Hashable) -> None:
        """Keep ``value`` under ``key`` until ``token`` stops being current."""
        with self._lock:
            self._entries[key] = (value, token)
            self._entries.move_to_end(key)
            self.stores += 1
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            accesses = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stale_drops": self.stale_drops,
                "stores": self.stores,
                "evictions": self.evictions,
                "hit_ratio": round(self.hits / accesses, 4) if accesses else 0.0,
            }
