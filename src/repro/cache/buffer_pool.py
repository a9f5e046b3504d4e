"""A shared buffer pool with a fixed global page budget.

The paper's Section 3 argues that a search-first file system stands or falls
on database-style buffer management: index pages must be as cheap to revisit
as a warmed dentry cache.  The :class:`BufferPool` is that layer.  Several
*consumers* — btree page stores, the OSD, anything holding page-like values —
register with the pool and share one global budget of ``capacity`` pages.

Semantics follow classic DB engines:

* **Eviction** is least recently used, over one global recency order.
* **Pin/unpin** — a pinned page is never evicted; pins nest.  If every page
  is pinned when a victim is needed, the insert is admitted past capacity
  and counted in ``pin_overflows``: no-steal recovery pins every page an
  open transaction dirties, and a transaction larger than the budget must
  oversubscribe rather than dead-end.  The pool drains back below capacity
  as commits unpin.
* **Dirty pages** are written back through the owning consumer's ``writeback``
  callback *before* the frame is reused, and on :meth:`flush`.
* **Write-ahead logging** — frames carry the LSN of the log record covering
  their latest mutation (``put(..., lsn=...)``).  When a ``wal_hook`` is
  installed (by :class:`repro.recovery.RecoveryManager`), it is invoked with
  that LSN *before* any dirty frame reaches the device, enforcing the WAL
  rule at the single choke point every write-back flows through.
  :meth:`min_dirty_lsn` reports the recovery horizon for fuzzy checkpoints.
* **Statistics** are kept globally and per consumer (hits, misses, evictions,
  writebacks) so benchmarks can attribute traffic to layers.

**Locking** — one re-entrant lock guards the frame table, the LRU order, the
pin set and every counter, so per-consumer statistics are *exact* (the
attribution differential tests rely on that).  Dirty write-back runs under
it, on eviction and on :meth:`flush` alike.

Dropping dirty frames without write-back is an explicit, counted act:
``drop_all(write_back=False)`` and ``unregister`` refuse to discard dirty
data unless the caller passes ``discard=True``, and every discarded dirty frame shows up in ``stats.discards``.

The pool is deliberately value-agnostic: it maps ``(consumer, page_id)`` to
arbitrary Python objects and never touches a device itself — consumers decide
what write-back means.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.errors import CacheError
# Leaf-module import (stdlib-only) — safe from this low layer; the
# ``repro.telemetry`` package __init__ would pull in the query machinery.
from repro.opcontext import current_operation

_Key = Tuple[str, Hashable]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters (kept per consumer and pool-wide)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0
    #: dirty frames dropped without write-back (explicit ``discard=True``).
    discards: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "discards": self.discards,
            "hit_ratio": round(self.hit_ratio, 4),
        }


class _Frame:
    """One resident page: its value, dirty bit, pin count and page LSN.

    ``lsn`` is the log sequence number of the record covering the latest
    mutation of this page (``None`` for unlogged pages).  The WAL rule — the
    record must be durable before the page reaches its home location — is
    enforced against it at write-back time.
    """

    __slots__ = ("value", "dirty", "pins", "lsn")

    def __init__(self, value, dirty: bool, lsn: Optional[int] = None) -> None:
        self.value = value
        self.dirty = dirty
        self.pins = 0
        self.lsn = lsn


class PoolConsumer:
    """A registered client's handle onto the shared pool.

    All page operations go through the handle so the pool can attribute
    traffic (and route write-back) to the right consumer.
    """

    def __init__(self, pool: "BufferPool", name: str,
                 writeback: Optional[Callable[[Hashable, object], None]]) -> None:
        self.pool = pool
        self.name = name
        self.writeback = writeback
        #: this consumer's counters (bumped under the pool lock, so exact).
        self.stats = CacheStats()

    def get(self, page_id: Hashable):
        return self.pool._get(self, page_id)

    def put(self, page_id: Hashable, value, dirty: bool = False,
            lsn: Optional[int] = None) -> None:
        self.pool._put(self, page_id, value, dirty, lsn)

    def pin(self, page_id: Hashable) -> None:
        self.pool._pin(self, page_id, +1)

    def unpin(self, page_id: Hashable) -> None:
        self.pool._pin(self, page_id, -1)

    def invalidate(self, page_id: Hashable) -> None:
        self.pool._invalidate(self, page_id)

    def flush(self) -> int:
        return self.pool.flush(self)

    def page_lsn(self, page_id: Hashable) -> Optional[int]:
        """LSN stamped on a resident page (None if clean-tracked or absent)."""
        return self.pool._page_lsn(self, page_id)

    def drop_all(self, write_back: bool = True, discard: bool = False) -> None:
        self.pool._drop_consumer(self, write_back=write_back, discard=discard)

    def cached_pages(self) -> Dict[Hashable, object]:
        """Read-only view of this consumer's resident pages (diagnostics)."""
        return self.pool._pages_of(self)

    def peek(self, page_id: Hashable):
        """Resident value without touching eviction state or hit/miss stats.

        The scrubber probes the pool for repair sources; a probe must not
        perturb the replacement policy or the cache counters benchmarks
        assert on.  Returns ``None`` when the page is not resident.
        """
        return self.pool._peek(self, page_id)

    def is_dirty(self, page_id: Hashable) -> bool:
        """True when the page is resident with unwritten modifications."""
        return self.pool._is_dirty(self, page_id)


class BufferPool:
    """Fixed-budget page cache shared between consumers.

    :param capacity: global budget in pages (must be >= 1).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise CacheError("buffer pool capacity must be at least 1 page")
        self.capacity = capacity
        #: called with a frame's LSN before any dirty write-back reaches the
        #: device (the WAL rule); installed by the recovery manager.
        self.wal_hook: Optional[Callable[[int], None]] = None
        self._lock = threading.RLock()
        self._frames: Dict[_Key, _Frame] = {}
        #: resident keys, least recently used first.
        self._order: "OrderedDict[_Key, None]" = OrderedDict()
        # Keys with pins > 0, maintained incrementally: _make_room runs on
        # every miss once the pool is full, so it must not rescan frames.
        self._pinned: set = set()
        self._consumers: Dict[str, PoolConsumer] = {}
        #: pool-wide counters.
        self.stats = CacheStats()
        #: inserts admitted past capacity because every page was pinned.
        self.pin_overflows = 0

    # ------------------------------------------------------------ consumers

    def register(self, name: str,
                 writeback: Optional[Callable[[Hashable, object], None]] = None,
                 ) -> PoolConsumer:
        """Register a consumer; names are made unique automatically."""
        with self._lock:
            unique, serial = name, 1
            while unique in self._consumers:
                serial += 1
                unique = f"{name}#{serial}"
            consumer = PoolConsumer(self, unique, writeback)
            self._consumers[unique] = consumer
            return consumer

    def unregister(self, consumer: PoolConsumer, discard: bool = False) -> None:
        """Drop a consumer and its pages (without write-back: the caller
        flushes first if the pages still matter).

        Refuses to drop dirty frames unless ``discard=True`` — silently
        losing buffered writes is the classic write-back footgun.
        """
        with self._lock:
            self._drop_consumer(consumer, write_back=False, discard=discard)
            self._consumers.pop(consumer.name, None)

    @property
    def consumers(self) -> Dict[str, PoolConsumer]:
        with self._lock:
            return dict(self._consumers)

    # ------------------------------------------------------------ page ops

    def _get(self, consumer: PoolConsumer, page_id: Hashable):
        key = (consumer.name, page_id)
        # Attribution happens here (not in the page stores) so a single
        # source counts cache traffic for *every* consumer — which is what
        # makes the per-operation totals exactly equal the pool-stats deltas
        # (the differential the attribution tests pin).
        op = current_operation()
        with self._lock:
            frame = self._frames.get(key)
            if frame is None:
                consumer.stats.misses += 1
                self.stats.misses += 1
                if op is not None:
                    op.cache_misses += 1
                return None
            consumer.stats.hits += 1
            self.stats.hits += 1
            if op is not None:
                op.cache_hits += 1
            self._order.move_to_end(key)
            return frame.value

    def _put(self, consumer: PoolConsumer, page_id: Hashable, value,
             dirty: bool, lsn: Optional[int] = None) -> None:
        key = (consumer.name, page_id)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                frame.value = value
                frame.dirty = frame.dirty or dirty
                if lsn is not None:
                    frame.lsn = lsn
                self._order.move_to_end(key)
                return
            self._make_room()
            self._frames[key] = _Frame(value, dirty, lsn)
            self._order[key] = None
            consumer.stats.insertions += 1
            self.stats.insertions += 1

    def _pin(self, consumer: PoolConsumer, page_id: Hashable, delta: int) -> None:
        key = (consumer.name, page_id)
        with self._lock:
            frame = self._frames.get(key)
            if frame is None:
                raise CacheError(f"cannot (un)pin non-resident page {key!r}")
            frame.pins += delta
            if frame.pins < 0:
                frame.pins = 0
                raise CacheError(f"unbalanced unpin of page {key!r}")
            if frame.pins > 0:
                self._pinned.add(key)
            else:
                self._pinned.discard(key)

    def _invalidate(self, consumer: PoolConsumer, page_id: Hashable) -> None:
        """Drop a page without write-back (e.g. the page was freed)."""
        key = (consumer.name, page_id)
        with self._lock:
            if self._frames.pop(key, None) is not None:
                del self._order[key]
                self._pinned.discard(key)
                consumer.stats.invalidations += 1
                self.stats.invalidations += 1

    # ------------------------------------------------------------ eviction

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity:
            # The least recently used page no transaction has pinned.
            victim = next(
                (key for key in self._order if key not in self._pinned), None)
            if victim is None:
                self.pin_overflows += 1
                return
            self._evict(victim)

    def _evict(self, key: _Key) -> None:
        frame = self._frames.pop(key)
        self._pinned.discard(key)
        consumer = self._consumers[key[0]]
        if frame.dirty:
            self._write_back(consumer, key[1], frame)
        del self._order[key]
        consumer.stats.evictions += 1
        self.stats.evictions += 1

    def _write_back(self, consumer: PoolConsumer, page_id: Hashable,
                    frame: _Frame) -> None:
        if consumer.writeback is None:
            raise CacheError(
                f"dirty page {page_id!r} owned by {consumer.name!r}, "
                "which registered no writeback callback"
            )
        # WAL rule: the log record covering this page must be durable before
        # the page itself reaches its home location.
        if self.wal_hook is not None and frame.lsn is not None:
            self.wal_hook(frame.lsn)
        consumer.writeback(page_id, frame.value)
        consumer.stats.writebacks += 1
        self.stats.writebacks += 1

    # ------------------------------------------------------------ flushing

    def flush(self, consumer: Optional[PoolConsumer] = None) -> int:
        """Write back dirty pages (of one consumer, or all); returns count."""
        flushed = 0
        with self._lock:
            for (owner_name, page_id), frame in list(self._frames.items()):
                if consumer is not None and owner_name != consumer.name:
                    continue
                if not frame.dirty:
                    continue
                self._write_back(self._consumers[owner_name], page_id, frame)
                frame.dirty = False
                flushed += 1
        return flushed

    def flush_page(self, consumer: PoolConsumer, page_id: Hashable) -> bool:
        """Write back one dirty page (True if it was dirty and resident)."""
        with self._lock:
            frame = self._frames.get((consumer.name, page_id))
            if frame is None or not frame.dirty:
                return False
            self._write_back(consumer, page_id, frame)
            frame.dirty = False
            return True

    def min_dirty_lsn(self) -> Optional[int]:
        """Smallest LSN among dirty resident frames (the checkpoint horizon).

        Every log record older than this is already reflected at its home
        location, so a fuzzy checkpoint may truncate the log up to it.
        ``None`` means no dirty logged frames are resident.
        """
        with self._lock:
            return min((frame.lsn for frame in self._frames.values()
                        if frame.dirty and frame.lsn is not None), default=None)

    def _drop_consumer(self, consumer: PoolConsumer, write_back: bool,
                       discard: bool = False) -> None:
        with self._lock:
            if write_back:
                self.flush(consumer)
            keys = [key for key in self._frames if key[0] == consumer.name]
            dirty = sum(1 for key in keys if self._frames[key].dirty)
            if dirty and not discard:
                # Refuse before mutating anything: dropping must be all-or-
                # nothing with respect to the dirty-loss footgun check.
                raise CacheError(
                    f"dropping {consumer.name!r} would lose {dirty} "
                    "dirty page(s); flush first or pass discard=True"
                )
            consumer.stats.discards += dirty
            self.stats.discards += dirty
            for key in keys:
                del self._frames[key]
                self._pinned.discard(key)
                del self._order[key]
            consumer.stats.invalidations += len(keys)
            self.stats.invalidations += len(keys)

    # ------------------------------------------------------------ inspection

    def _page_lsn(self, consumer: PoolConsumer, page_id: Hashable) -> Optional[int]:
        with self._lock:
            frame = self._frames.get((consumer.name, page_id))
            return frame.lsn if frame is not None else None

    def _peek(self, consumer: PoolConsumer, page_id: Hashable):
        with self._lock:
            frame = self._frames.get((consumer.name, page_id))
            return frame.value if frame is not None else None

    def _is_dirty(self, consumer: PoolConsumer, page_id: Hashable) -> bool:
        with self._lock:
            frame = self._frames.get((consumer.name, page_id))
            return frame is not None and frame.dirty

    def _pages_of(self, consumer: PoolConsumer) -> Dict[Hashable, object]:
        with self._lock:
            return {page_id: frame.value
                    for (owner_name, page_id), frame in self._frames.items()
                    if owner_name == consumer.name}

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def dirty_pages(self) -> int:
        with self._lock:
            return sum(1 for frame in self._frames.values() if frame.dirty)

    @property
    def pinned_pages(self) -> int:
        return len(self._pinned)

    def snapshot(self) -> Dict[str, object]:
        """Pool-wide and per-consumer statistics (for ``HFADFileSystem.stats``).

        Read under the lock: a served ``stats`` request runs beside page
        traffic on other threads, which resizes the frame table.
        """
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._frames),
                "dirty": self.dirty_pages,
                "pinned": len(self._pinned),
                "pin_overflows": self.pin_overflows,
                "totals": self.stats.snapshot(),
                "consumers": {
                    name: consumer.stats.snapshot()
                    for name, consumer in self._consumers.items()
                    if consumer.stats.accesses or consumer.stats.insertions
                },
            }
