"""Query-result caching with generation-based invalidation.

Repeated searches dominate real desktop-search traffic (the same saved
queries — "my photos", "mail from margo" — re-run constantly, which is also
why the semantic layer materialises them as virtual directories).  The
:class:`QueryResultCache` memoises the *result sets* of boolean queries so a
warm repeat costs a dict probe instead of index traversals.

Two mechanisms keep it correct:

* **Canonical keys** — queries are keyed by a canonical rendering in which
  the children of ``AND``/``OR`` are sorted, so ``A/1 AND B/2`` and
  ``B/2 AND A/1`` share one entry (:func:`canonical_key`).
* **Tag generations** — the :class:`~repro.index.store.IndexStoreRegistry`
  keeps a monotonically increasing generation per tag, bumped on every
  mutation that can change that tag's lookups.  A cache entry records the
  generation of every tag its query touches; on lookup the snapshot is
  compared against the live generations and stale entries are dropped
  *precisely* — an insert under ``USER`` never invalidates a pure
  ``FULLTEXT`` query.

The cache holds at most ``capacity`` entries, evicting least recently used.

Interplay with streamed ``limit=`` queries (see ``repro.core.naming``): only
*fully-consumed* streams are cached under a query's canonical key, so a
cached entry is always the complete answer and can serve any later limit as
a prefix.  A truncated top-k result is stored under a separate
``"<key> LIMIT <n>"`` key and only ever answers that exact limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import CacheError

if False:  # pragma: no cover - import for type checkers only
    from repro.core.query import Query


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


@dataclass
class QueryCacheStats:
    """Counters surfaced by benchmarks and ``HFADFileSystem.stats``."""

    hits: int = 0
    misses: int = 0
    stale_drops: int = 0
    stores: int = 0
    evictions: int = 0
    #: stores skipped because a mutation raced the evaluation.
    racy_skips: int = 0
    #: admissions of complete (exhausted) result sets / of truncated top-k
    #: results stored under limit-qualified keys.
    admitted_full: int = 0
    admitted_limited: int = 0

    @property
    def hit_ratio(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale_drops": self.stale_drops,
            "stores": self.stores,
            "evictions": self.evictions,
            "racy_skips": self.racy_skips,
            "admitted_full": self.admitted_full,
            "admitted_limited": self.admitted_limited,
            "hit_ratio": round(self.hit_ratio, 4),
        }


class QueryResultCache:
    """Memoises query result sets against an index-store registry.

    :param registry: the registry whose tag generations gate entry validity.
    :param capacity: maximum number of cached result sets (LRU-bounded).
    """

    def __init__(self, registry, capacity: int = 256) -> None:
        if capacity < 1:
            raise CacheError("query cache capacity must be at least 1 entry")
        self.registry = registry
        self.capacity = capacity
        self.stats = QueryCacheStats()
        #: key -> (result tuple, {tag: generation at store time})
        self._entries: "OrderedDict[str, Tuple[Tuple[int, ...], Dict[str, int]]]" = OrderedDict()
        self._lock = threading.Lock()

    #: exposed on the instance so callers can precompute keys for
    #: lookup(..., key=...) / store(..., key=...) without a module import.
    canonical_key = staticmethod(canonical_key)

    # ------------------------------------------------------------ lookups

    def lookup(self, query, key: Optional[str] = None) -> Optional[List[int]]:
        """Return the cached result for ``query``, or None on miss/stale.

        ``key`` lets a caller that also stores on miss canonicalize once
        (:func:`canonical_key`) instead of twice.
        """
        if key is None:
            key = canonical_key(query)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            result, snapshot = entry
            for tag, generation in snapshot.items():
                if self.registry.generation(tag) != generation:
                    del self._entries[key]
                    self.stats.stale_drops += 1
                    self.stats.misses += 1
                    return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return list(result)

    def generations_for(self, query) -> Dict[str, int]:
        """Snapshot the current generation of every tag ``query`` touches.

        Callers take this *before* evaluating and pass it to :meth:`store`;
        a mutation that lands mid-evaluation then blocks the store instead
        of caching a stale result under a fresh generation.
        """
        return {tag: self.registry.generation(tag) for tag in query_tags(query)}

    def store(self, query, result: List[int],
              snapshot: Optional[Dict[str, int]] = None,
              key: Optional[str] = None,
              limited: bool = False) -> None:
        """Record ``result`` for ``query`` under the current generations.

        When ``snapshot`` (from :meth:`generations_for`, taken before the
        evaluation) is given and any tag has since moved on, the result may
        already be stale and is not cached.

        ``limited`` marks a truncated top-k result (stored under a
        limit-qualified key by the naming layer); it only picks which
        admission counter (``admitted_full`` / ``admitted_limited``) counts
        the store, never correctness.
        """
        if key is None:
            key = canonical_key(query)
        if snapshot is None:
            snapshot = self.generations_for(query)
        else:
            for tag, generation in snapshot.items():
                if self.registry.generation(tag) != generation:
                    self.stats.racy_skips += 1
                    return
        with self._lock:
            self._entries[key] = (tuple(result), snapshot)
            self._entries.move_to_end(key)
            self.stats.stores += 1
            if limited:
                self.stats.admitted_limited += 1
            else:
                self.stats.admitted_full += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # ------------------------------------------------------------ maintenance

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            **self.stats.snapshot(),
        }


class RankedResultCache:
    """Memoises ranked (WAND top-k) results against one tag's generation.

    Boolean results ride :class:`QueryResultCache`; ranked results
    deliberately bypassed it because scores depend on corpus-wide statistics
    (document frequencies, lengths) that no per-tag oid set captures.  But
    those statistics live entirely inside the FULLTEXT store, and every
    mutation of that store bumps the FULLTEXT generation — so one generation
    number *is* a precise validity token for a whole ranked answer.  A warm
    repeat of ``rank("...")`` then costs a dict probe instead of a full
    WAND evaluation, which is exactly the repeated-saved-search traffic the
    serving layer multiplies.

    Entries are keyed ``(text, limit)``: a top-10 answer is not a prefix
    oracle for top-100, and ``limit=None`` (exhaustive) is its own key.
    The stats object is shared with :class:`QueryCacheStats` — only the
    hit/miss/staleness/racy counters are meaningful here.
    """

    def __init__(self, registry, tag: str, capacity: int = 128) -> None:
        if capacity < 1:
            raise CacheError("ranked cache capacity must be at least 1 entry")
        self.registry = registry
        self.tag = tag
        self.capacity = capacity
        self.stats = QueryCacheStats()
        #: (text, limit) -> (hits tuple, generation at store time)
        self._entries: "OrderedDict[Tuple[str, Optional[int]], Tuple[tuple, int]]" = OrderedDict()
        self._lock = threading.Lock()

    def generation(self) -> int:
        """The live validity token; take *before* evaluating, pass to store."""
        return self.registry.generation(self.tag)

    def lookup(self, text: str, limit: Optional[int]) -> Optional[list]:
        key = (text, limit)
        live = self.registry.generation(self.tag)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            hits, generation = entry
            if generation != live:
                del self._entries[key]
                self.stats.stale_drops += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return list(hits)

    def store(self, text: str, limit: Optional[int], hits: list,
              generation: int) -> None:
        """Admit ``hits`` unless a mutation raced the evaluation.

        ``generation`` must be the :meth:`generation` snapshot taken before
        the WAND run; if the store has since moved on, the answer may be
        stale and is skipped (same racy-skip discipline as the boolean
        cache).
        """
        if self.registry.generation(self.tag) != generation:
            self.stats.racy_skips += 1
            return
        with self._lock:
            self._entries[(text, limit)] = (tuple(hits), generation)
            self._entries.move_to_end((text, limit))
            self.stats.stores += 1
            self.stats.admitted_full += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            **self.stats.snapshot(),
        }
