"""A shared buffer pool with a fixed global page budget.

The paper's Section 3 argues that a search-first file system stands or falls
on database-style buffer management: index pages must be as cheap to revisit
as a warmed dentry cache.  The :class:`BufferPool` is that layer.  Several
*consumers* — btree page stores, the OSD, anything holding page-like values —
register with the pool and share one global budget of ``capacity`` pages.

Semantics follow classic DB engines:

* **Eviction** is least recently used.
* **Pin/unpin** — a pinned page is never evicted; pins nest.  If every page
  is pinned when a victim is needed, :class:`~repro.errors.AllPagesPinnedError`
  is raised (the simulator's equivalent of a buffer-starvation deadlock).
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

**Striping** — the pool's lock is sharded: frames hash across N independent
stripes, each with its own mutex, LRU order and share of the
global budget, so concurrent clients touching different pages do not
serialize on one lock.  Counters are kept per stripe and summed on read,
which keeps per-consumer statistics *exact* (no cross-stripe races, no
sampled approximations) — the attribution differential tests rely on that.
Small pools (capacity < 64) default to a single stripe so the classic
global-LRU eviction semantics the unit tests pin are preserved; large pools
default to 8 stripes.  Pass ``stripes=1`` for a deliberately global lock.

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
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import AllPagesPinnedError, CacheError
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

    def reset(self) -> None:
        self.hits = self.misses = self.insertions = 0
        self.evictions = self.writebacks = self.invalidations = 0
        self.discards = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.evictions += other.evictions
        self.writebacks += other.writebacks
        self.invalidations += other.invalidations
        self.discards += other.discards

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


def _merge_stats(parts) -> CacheStats:
    total = CacheStats()
    for part in parts:
        total.merge(part)
    return total


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


class _Stripe:
    """One lock shard: a mutex, an LRU order and a slice of the budget.

    Each stripe also owns its slice of the counters (stripe totals, and a
    per-consumer :class:`CacheStats` list indexed by stripe on the consumer)
    so the hot path mutates only stripe-local state under the stripe lock —
    aggregation happens at read time.
    """

    __slots__ = ("index", "lock", "order", "capacity", "frames", "pinned",
                 "stats", "pin_overflows")

    def __init__(self, index: int, capacity: int) -> None:
        self.index = index
        self.lock = threading.RLock()
        self.capacity = capacity
        self.frames: Dict[_Key, _Frame] = {}
        #: resident keys, least recently used first.
        self.order: "OrderedDict[_Key, None]" = OrderedDict()
        # Keys with pins > 0, maintained incrementally: _make_room runs on
        # every miss once the stripe is full, so it must not rescan frames.
        self.pinned: set = set()
        self.stats = CacheStats()
        #: inserts admitted past capacity because every page was pinned.
        self.pin_overflows = 0


def _auto_stripes(capacity: int) -> int:
    """Default stripe count: global lock for small pools, 8-way for large.

    Small pools keep exact global eviction semantics (a 2-page pool split in
    two would turn "evict the LRU page" into "evict the LRU page *of the
    stripe the new page hashes to*"); large pools trade that for an 8-way
    lock split — with >= 32 pages per stripe the hash spreads load evenly
    enough that eviction behaviour is indistinguishable in practice.
    """
    if capacity < 64:
        return 1
    return min(8, capacity // 32)


class PoolConsumer:
    """A registered client's handle onto the shared pool.

    All page operations go through the handle so the pool can attribute
    traffic (and route write-back) to the right consumer.
    """

    def __init__(self, pool: "BufferPool", name: str,
                 writeback: Optional[Callable[[Hashable, object], None]],
                 serial: int) -> None:
        self.pool = pool
        self.name = name
        #: registration order within the pool; with the page id it picks the
        #: stripe, so stripe placement is the same in every process.
        self.serial = serial
        self.writeback = writeback
        # One CacheStats per stripe: the hot path bumps the stripe-local
        # slice under the stripe lock, keeping counters exact without any
        # cross-stripe synchronization.
        self._stripe_stats: List[CacheStats] = [
            CacheStats() for _ in range(pool.stripe_count)
        ]

    @property
    def stats(self) -> CacheStats:
        """This consumer's counters (exact; summed across stripes)."""
        if len(self._stripe_stats) == 1:
            return self._stripe_stats[0]
        return _merge_stats(self._stripe_stats)

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
    :param stripes: lock shard count; ``None`` picks automatically (1 for
        pools under 64 pages, up to 8 for larger ones).  ``stripes=1`` is
        the global-lock baseline.
    """

    def __init__(self, capacity: int = 256, stripes: Optional[int] = None) -> None:
        if capacity < 1:
            raise CacheError("buffer pool capacity must be at least 1 page")
        if stripes is None:
            stripes = _auto_stripes(capacity)
        if stripes < 1:
            raise CacheError("buffer pool needs at least one stripe")
        stripes = min(stripes, capacity)
        self.capacity = capacity
        #: called with a frame's LSN before any dirty write-back reaches the
        #: device (the WAL rule); installed by the recovery manager.
        self.wal_hook: Optional[Callable[[int], None]] = None
        #: when set (by the recovery manager), an all-pages-pinned stripe
        #: temporarily exceeds its budget instead of raising: no-steal
        #: pinning must not turn a large transaction into a dead end.  The
        #: pool drains back below capacity as commits unpin.
        self.allow_pinned_overflow = False
        # The global budget is split across stripes (earlier stripes absorb
        # the remainder) so the sum of stripe capacities == capacity and
        # ``len(pool) <= capacity`` stays a hard global bound.
        base, extra = divmod(capacity, stripes)
        self._stripes: List[_Stripe] = [
            _Stripe(i, base + (1 if i < extra else 0))
            for i in range(stripes)
        ]
        self._consumers: Dict[str, PoolConsumer] = {}
        self._name_serials: Dict[str, int] = {}
        self._next_serial = 0
        # Guards consumer registration only — never held with a stripe lock.
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------ striping

    @property
    def stripe_count(self) -> int:
        return len(self._stripes)

    def _stripe_of(self, consumer: PoolConsumer, page_id: Hashable) -> _Stripe:
        stripes = self._stripes
        if len(stripes) == 1:
            return stripes[0]
        # Not hash((name, page_id)): str hashes are randomized per process,
        # and which pages share an LRU list decides misses and evictions.
        return stripes[hash((consumer.serial, page_id)) % len(stripes)]

    @property
    def stats(self) -> CacheStats:
        """Pool-wide counters (exact; summed across stripes)."""
        if len(self._stripes) == 1:
            return self._stripes[0].stats
        return _merge_stats(stripe.stats for stripe in self._stripes)

    @property
    def pin_overflows(self) -> int:
        return sum(stripe.pin_overflows for stripe in self._stripes)

    def instrument_locks(self, wrap: Callable[[int, object], object]) -> None:
        """Replace each stripe lock with ``wrap(index, lock)``.

        The facade uses this to install :class:`TimedLock` wrappers that
        share one wait/hold histogram pair across all stripes, so the lock
        profile still reads as a single logical "buffer_pool" lock.
        """
        for stripe in self._stripes:
            stripe.lock = wrap(stripe.index, stripe.lock)

    # ------------------------------------------------------------ consumers

    def register(self, name: str,
                 writeback: Optional[Callable[[Hashable, object], None]] = None,
                 ) -> PoolConsumer:
        """Register a consumer; names are made unique automatically.

        The next free serial per base name is remembered so registering the
        N-th same-named consumer (one per on-device object tree) stays O(1).
        """
        with self._registry_lock:
            serial = self._name_serials.get(name, 1)
            unique = name if serial == 1 else f"{name}#{serial}"
            while unique in self._consumers:
                serial += 1
                unique = f"{name}#{serial}"
            self._name_serials[name] = serial + 1
            consumer = PoolConsumer(self, unique, writeback, self._next_serial)
            self._next_serial += 1
            self._consumers[unique] = consumer
            return consumer

    def unregister(self, consumer: PoolConsumer, discard: bool = False) -> None:
        """Drop a consumer and its pages (without write-back: the caller
        flushes first if the pages still matter).

        Refuses to drop dirty frames unless ``discard=True`` — silently
        losing buffered writes is the classic write-back footgun.
        """
        self._drop_consumer(consumer, write_back=False, discard=discard)
        with self._registry_lock:
            self._consumers.pop(consumer.name, None)

    @property
    def consumers(self) -> Dict[str, PoolConsumer]:
        return dict(self._consumers)

    # ------------------------------------------------------------ page ops

    def _get(self, consumer: PoolConsumer, page_id: Hashable):
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        # Attribution happens here (not in the page stores) so a single
        # source counts cache traffic for *every* consumer — which is what
        # makes the per-operation totals exactly equal the pool-stats deltas
        # (the differential the attribution tests pin).
        op = current_operation()
        with stripe.lock:
            frame = stripe.frames.get(key)
            if frame is None:
                consumer._stripe_stats[stripe.index].misses += 1
                stripe.stats.misses += 1
                if op is not None:
                    op.cache_misses += 1
                return None
            consumer._stripe_stats[stripe.index].hits += 1
            stripe.stats.hits += 1
            if op is not None:
                op.cache_hits += 1
            stripe.order.move_to_end(key)
            return frame.value

    def _put(self, consumer: PoolConsumer, page_id: Hashable, value,
             dirty: bool, lsn: Optional[int] = None) -> None:
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        with stripe.lock:
            frame = stripe.frames.get(key)
            if frame is not None:
                frame.value = value
                frame.dirty = frame.dirty or dirty
                if lsn is not None:
                    frame.lsn = lsn
                stripe.order.move_to_end(key)
                return
            self._make_room(stripe)
            stripe.frames[key] = _Frame(value, dirty, lsn)
            stripe.order[key] = None
            consumer._stripe_stats[stripe.index].insertions += 1
            stripe.stats.insertions += 1

    def _pin(self, consumer: PoolConsumer, page_id: Hashable, delta: int) -> None:
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        with stripe.lock:
            frame = stripe.frames.get(key)
            if frame is None:
                raise CacheError(f"cannot (un)pin non-resident page {key!r}")
            frame.pins += delta
            if frame.pins < 0:
                frame.pins = 0
                raise CacheError(f"unbalanced unpin of page {key!r}")
            if frame.pins > 0:
                stripe.pinned.add(key)
            else:
                stripe.pinned.discard(key)

    def _invalidate(self, consumer: PoolConsumer, page_id: Hashable) -> None:
        """Drop a page without write-back (e.g. the page was freed)."""
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        with stripe.lock:
            resident = stripe.frames.pop(key, None) is not None
            if resident:
                del stripe.order[key]
                stripe.pinned.discard(key)
                consumer._stripe_stats[stripe.index].invalidations += 1
                stripe.stats.invalidations += 1

    # ------------------------------------------------------------ eviction

    def _make_room(self, stripe: _Stripe) -> None:
        while len(stripe.frames) >= stripe.capacity:
            # The least recently used page no transaction has pinned.
            victim = next(
                (key for key in stripe.order if key not in stripe.pinned), None)
            if victim is None:
                if self.allow_pinned_overflow:
                    stripe.pin_overflows += 1
                    return
                raise AllPagesPinnedError(
                    f"buffer pool of {self.capacity} pages has no evictable page"
                )
            self._evict(stripe, victim)

    def _evict(self, stripe: _Stripe, key: _Key) -> None:
        frame = stripe.frames.pop(key)
        stripe.pinned.discard(key)
        consumer = self._consumers[key[0]]
        if frame.dirty:
            self._write_back(stripe, consumer, key[1], frame)
        del stripe.order[key]
        consumer._stripe_stats[stripe.index].evictions += 1
        stripe.stats.evictions += 1

    def _write_back(self, stripe: _Stripe, consumer: PoolConsumer,
                    page_id: Hashable, frame: _Frame) -> None:
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
        consumer._stripe_stats[stripe.index].writebacks += 1
        stripe.stats.writebacks += 1

    # ------------------------------------------------------------ flushing

    def flush(self, consumer: Optional[PoolConsumer] = None) -> int:
        """Write back dirty pages (of one consumer, or all); returns count."""
        flushed = 0
        for stripe in self._stripes:
            with stripe.lock:
                for (owner_name, page_id), frame in list(stripe.frames.items()):
                    if consumer is not None and owner_name != consumer.name:
                        continue
                    if not frame.dirty:
                        continue
                    self._write_back(
                        stripe, self._consumers[owner_name], page_id, frame)
                    frame.dirty = False
                    flushed += 1
        return flushed

    def flush_page(self, consumer: PoolConsumer, page_id: Hashable) -> bool:
        """Write back one dirty page (True if it was dirty and resident)."""
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        with stripe.lock:
            frame = stripe.frames.get(key)
            if frame is None or not frame.dirty:
                return False
            self._write_back(stripe, consumer, page_id, frame)
            frame.dirty = False
            return True

    def min_dirty_lsn(self) -> Optional[int]:
        """Smallest LSN among dirty resident frames (the checkpoint horizon).

        Every log record older than this is already reflected at its home
        location, so a fuzzy checkpoint may truncate the log up to it.
        ``None`` means no dirty logged frames are resident.
        """
        lsns = []
        for stripe in self._stripes:
            with stripe.lock:
                lsns.extend(
                    frame.lsn
                    for frame in stripe.frames.values()
                    if frame.dirty and frame.lsn is not None
                )
        return min(lsns) if lsns else None

    def _drop_consumer(self, consumer: PoolConsumer, write_back: bool,
                       discard: bool = False) -> None:
        if write_back:
            self.flush(consumer)
        if not discard:
            # Refuse before mutating anything: dropping must be all-or-
            # nothing with respect to the dirty-loss footgun check.
            dirty = 0
            for stripe in self._stripes:
                with stripe.lock:
                    dirty += sum(
                        1 for key, frame in stripe.frames.items()
                        if key[0] == consumer.name and frame.dirty
                    )
            if dirty:
                raise CacheError(
                    f"dropping {consumer.name!r} would lose {dirty} "
                    "dirty page(s); flush first or pass discard=True"
                )
        for stripe in self._stripes:
            with stripe.lock:
                keys = [k for k in stripe.frames if k[0] == consumer.name]
                for key in keys:
                    if stripe.frames[key].dirty:
                        consumer._stripe_stats[stripe.index].discards += 1
                        stripe.stats.discards += 1
                    del stripe.frames[key]
                    stripe.pinned.discard(key)
                    del stripe.order[key]
                    consumer._stripe_stats[stripe.index].invalidations += 1
                    stripe.stats.invalidations += 1

    # ------------------------------------------------------------ inspection

    def _page_lsn(self, consumer: PoolConsumer, page_id: Hashable) -> Optional[int]:
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        with stripe.lock:
            frame = stripe.frames.get(key)
            return frame.lsn if frame is not None else None

    def _peek(self, consumer: PoolConsumer, page_id: Hashable):
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        with stripe.lock:
            frame = stripe.frames.get(key)
            return frame.value if frame is not None else None

    def _is_dirty(self, consumer: PoolConsumer, page_id: Hashable) -> bool:
        key = (consumer.name, page_id)
        stripe = self._stripe_of(consumer, page_id)
        with stripe.lock:
            frame = stripe.frames.get(key)
            return frame is not None and frame.dirty

    def _pages_of(self, consumer: PoolConsumer) -> Dict[Hashable, object]:
        pages: Dict[Hashable, object] = {}
        for stripe in self._stripes:
            with stripe.lock:
                pages.update(
                    (page_id, frame.value)
                    for (owner_name, page_id), frame in stripe.frames.items()
                    if owner_name == consumer.name
                )
        return pages

    def __len__(self) -> int:
        return sum(len(stripe.frames) for stripe in self._stripes)

    @property
    def dirty_pages(self) -> int:
        return sum(
            1
            for stripe in self._stripes
            for frame in stripe.frames.values()
            if frame.dirty
        )

    @property
    def pinned_pages(self) -> int:
        return sum(len(stripe.pinned) for stripe in self._stripes)

    def snapshot(self) -> Dict[str, object]:
        """Pool-wide and per-consumer statistics (for ``HFADFileSystem.stats``)."""
        return {
            "capacity": self.capacity,
            "stripes": self.stripe_count,
            "resident": len(self),
            "dirty": self.dirty_pages,
            "pinned": self.pinned_pages,
            "pin_overflows": self.pin_overflows,
            "totals": self.stats.snapshot(),
            "consumers": {
                name: consumer.stats.snapshot()
                for name, consumer in self._consumers.items()
                if consumer.stats.accesses or consumer.stats.insertions
            },
        }
