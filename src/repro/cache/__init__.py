"""The unified caching subsystem: buffer pool + generation-checked memos.

The paper's viability argument (Section 3) is that index lookups can match
hierarchical path traversal *given database-style buffer management*.  This
package supplies that memory hierarchy between the btrees and the simulated
block device:

* :class:`~repro.cache.buffer_pool.BufferPool` — a shared, fixed-budget page
  cache with LRU eviction, pin/unpin semantics, dirty-page write-back and
  per-consumer statistics.
  ``DevicePageStore`` (btree layer) and ``ObjectStore`` (OSD layer) are its
  main consumers.
* :class:`~repro.cache.query_cache.GenerationMemo` — one locked LRU map from
  a key to ``(value, token)`` that answers only while the caller's token is
  current.  Tokens are per-tag generation counters kept by the
  :class:`~repro.index.store.IndexStoreRegistry`.  Three instances use it:
  boolean results keyed by canonicalized query text (``fs.query_cache``),
  ranked answers keyed by ``(text, limit)`` (``fs.ranked_cache``) and the
  query planner's cardinality estimates.

Knobs (also exposed on :class:`~repro.core.filesystem.HFADFileSystem`):
``cache_pages`` — the pool's global page budget, at least 1 (no-steal keeps
uncommitted pages there); ``query_cache_entries=0`` disables both result memos so benchmarks (E1,
E7) can measure the index path itself.
"""

from repro.cache.buffer_pool import BufferPool, CacheStats, PoolConsumer
from repro.cache.query_cache import GenerationMemo, canonical_key, query_tags

__all__ = [
    "BufferPool",
    "CacheStats",
    "PoolConsumer",
    "GenerationMemo",
    "canonical_key",
    "query_tags",
]
