"""Lazy (background) full-text indexing.

Paper Section 3.4: "we use background threads to perform lazy full-text
indexing."  The :class:`LazyIndexer` wraps the inverted index with a
bounded work queue drained by worker threads, so object writes return before
their content is searchable.  The trade-off — ingest latency versus query
visibility lag — is what experiment E6 measures.

The indexer can also run in ``synchronous=True`` mode, where enqueue indexes
inline; the benchmarks use that as the ablation baseline.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import FullTextError
from repro.fulltext.persistent_index import PersistentInvertedIndex

_STOP = object()


@dataclass
class IndexerStats:
    """Counters exposed for tests and the E6 benchmark."""

    enqueued: int = 0
    indexed: int = 0
    removed: int = 0
    #: worker applies that raised (the op is dropped, the worker survives).
    failed: int = 0
    max_queue_depth: int = 0


class LazyIndexer:
    """Queue-and-worker wrapper around a :class:`PersistentInvertedIndex`.

    :param index: the inverted index to feed (a fresh one if omitted).
    :param workers: number of background threads.
    :param max_queue: bound on outstanding work items; enqueue blocks when full.
    :param synchronous: index inline instead of in the background.
    :param on_apply: called (with no arguments) after each add/remove has
        actually been applied to the index — i.e. at visibility time, not at
        enqueue time.  The query cache uses this to invalidate FULLTEXT
        results exactly when the index really changes, even in lazy mode.
    """

    def __init__(
        self,
        index: Optional[PersistentInvertedIndex] = None,
        workers: int = 1,
        max_queue: int = 1024,
        synchronous: bool = False,
        on_apply=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.index = index if index is not None else PersistentInvertedIndex()
        self.synchronous = synchronous
        self.on_apply = on_apply
        self.stats = IndexerStats()
        self.max_queue = max_queue
        #: when set (by the facade), every background apply runs inside
        #: ``operation_factory(kind, detail)`` — a context manager — so
        #: worker-thread index work shows up in the attribution ledger as
        #: its own operation instead of vanishing unattributed.  Synchronous
        #: applies need no wrapping: they run inside the foreground
        #: operation that submitted them and are absorbed by it.
        self.operation_factory: Optional[Callable] = None
        #: the most recent worker-apply exception (None if none ever failed).
        self.last_error: Optional[BaseException] = None
        self._lock = threading.Lock()
        #: guards every IndexerStats counter.  ``enqueued`` is bumped by any
        #: number of foreground threads while workers bump the outcome
        #: counters; unserialized ``+=`` loses updates, and a single lost
        #: outcome makes ``pending`` never reach zero — flush() would hang.
        #: Workers notify after each outcome so flush() can wait instead of
        #: polling.  Lock order: ``_lock`` may be held when taking this
        #: condition, never the reverse.
        self._stats_cond = threading.Condition()
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue)
        self._threads = []
        self._started = False
        self._closed = False
        self._workers = workers

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the worker threads (no-op in synchronous mode)."""
        if self.synchronous or self._started:
            return
        self._started = True
        for number in range(self._workers):
            thread = threading.Thread(
                target=self._worker, name=f"hfad-indexer-{number}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def close(self, drain: bool = True) -> None:
        """Stop the workers; by default wait for queued work to finish."""
        if self.synchronous or not self._started or self._closed:
            self._closed = True
            return
        if drain:
            self._queue.join()
        for _ in self._threads:
            self._queue.put((_STOP, None, None))
        for thread in self._threads:
            thread.join(timeout=5)
        self._closed = True

    def __enter__(self) -> "LazyIndexer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ enqueueing

    def submit(self, doc_id: int, text) -> None:
        """Queue ``text`` for indexing under ``doc_id``."""
        if self._closed:
            raise FullTextError("indexer is closed")
        self._count("enqueued")
        if self.synchronous:
            with self._lock:
                self.index.add_document(doc_id, text)
            self._count("indexed")
            self._applied()
            return
        if not self._started:
            self.start()
        self._queue.put(("add", doc_id, text))
        self._note_depth()

    def submit_removal(self, doc_id: int) -> None:
        """Queue removal of ``doc_id`` from the index."""
        if self._closed:
            raise FullTextError("indexer is closed")
        self._count("enqueued")
        if self.synchronous:
            with self._lock:
                self.index.remove_document(doc_id)
            self._count("removed")
            self._applied()
            return
        if not self._started:
            self.start()
        self._queue.put(("remove", doc_id, None))

    def submit_apply(self, fn) -> None:
        """Queue an arbitrary index mutation (applied under the worker lock).

        Used for mutations that must stay *ordered* with queued content —
        e.g. a manual FULLTEXT tag on an object whose content add is still
        in flight: applying it inline would read the index before the
        content lands and the two would interleave arbitrarily.  Counted in
        the enqueued/indexed stats so :meth:`flush` waits for it.
        """
        if self._closed:
            raise FullTextError("indexer is closed")
        self._count("enqueued")
        if self.synchronous:
            with self._lock:
                fn()
            self._count("indexed")
            self._applied()
            return
        if not self._started:
            self.start()
        self._queue.put(("apply", None, fn))
        self._note_depth()

    def _count(self, field: str) -> None:
        with self._stats_cond:
            setattr(self.stats, field, getattr(self.stats, field) + 1)
            self._stats_cond.notify_all()

    def _note_depth(self) -> None:
        with self._stats_cond:
            self.stats.max_queue_depth = max(
                self.stats.max_queue_depth, self._queue.qsize())

    def _applied(self) -> None:
        if self.on_apply is not None:
            self.on_apply()

    # ------------------------------------------------------------ visibility

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued document has been indexed.

        Returns ``False`` if ``timeout`` (seconds) elapsed first.
        """
        if self.synchronous:
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._stats_cond:
            while self.pending > 0:
                if deadline is None:
                    self._stats_cond.wait(1.0)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._stats_cond.wait(remaining)
        return True

    @property
    def pending(self) -> int:
        """Number of submitted items not yet applied (or dropped as failed).

        Every submission path counts into ``enqueued``; every worker outcome
        counts into exactly one of ``indexed``/``removed``/``failed`` — so
        flush() now waits for removals too, and a failed apply can never
        drive the balance negative.
        """
        if self.synchronous:
            return 0
        return (self.stats.enqueued - self.stats.indexed
                - self.stats.removed - self.stats.failed)

    def is_visible(self, doc_id: int) -> bool:
        """True once ``doc_id`` has actually been indexed."""
        with self._lock:
            return doc_id in self.index

    def backlog(self) -> dict:
        """A point-in-time view of the queue for the telemetry gauges.

        Derived from the existing counters plus ``qsize`` — the worker loop
        is untouched.  ``in_flight`` is what has been dequeued but not yet
        counted as an outcome; both components are zero at quiescence, which
        is what the drain test pins.
        """
        if self.synchronous:
            return {"queued": 0, "in_flight": 0,
                    "completed": self.stats.indexed + self.stats.removed,
                    "failed": self.stats.failed}
        pending = self.pending
        queued = min(self._queue.qsize(), pending)
        return {
            "queued": queued,
            "in_flight": max(0, pending - queued),
            "completed": self.stats.indexed + self.stats.removed,
            "failed": self.stats.failed,
        }

    # ------------------------------------------------------------ worker loop

    def _worker(self) -> None:
        while True:
            operation, doc_id, text = self._queue.get()
            if operation is _STOP:
                self._queue.task_done()
                return
            factory = self.operation_factory
            scope = (factory("lazy-index", f"{operation} doc={doc_id}")
                     if factory is not None else nullcontext())
            try:
                with scope:
                    self._apply_one(operation, doc_id, text)
            finally:
                self._queue.task_done()

    def _apply_one(self, operation, doc_id, text) -> None:
        try:
            with self._lock:
                if operation == "add":
                    self.index.add_document(doc_id, text)
                    self._count("indexed")
                elif operation == "remove":
                    self.index.remove_document(doc_id)
                    self._count("removed")
                elif operation == "apply":
                    text()  # the queued mutation closure
                    self._count("indexed")
        except Exception as error:  # noqa: BLE001 — the worker must
            # survive a failed apply (a device-backed engine can raise
            # journal/space errors): record it and keep draining, or
            # every later flush() would block forever on a queue
            # nobody services.
            self.last_error = error
            self._count("failed")
        else:
            self._applied()

    # ------------------------------------------------------------ searching

    def search(self, query):
        """Conjunctive search against whatever has been indexed so far."""
        with self._lock:
            return self.index.search(query)

    def rank(self, query, limit: Optional[int] = 10, span=None):
        """Ranked search against whatever has been indexed so far."""
        with self._lock:
            return self.index.rank(query, limit=limit, span=span)

    def rank_exhaustive(self, query, limit: Optional[int] = None):
        """Unpruned ranked search (the differential-test reference)."""
        with self._lock:
            return self.index.rank_exhaustive(query, limit=limit)

    def document_frequency(self, term: str) -> int:
        """Document frequency under the worker lock (safe vs live applies)."""
        with self._lock:
            return self.index.document_frequency(term)

    def terms_for(self, doc_id: int):
        """A document's terms under the worker lock (safe vs live applies)."""
        with self._lock:
            return self.index.terms_for(doc_id)

    def mutation_lock(self):
        """The worker lock, for foreground mutations of an engine that has
        no serialization of its own (no WAL)."""
        return self._lock

    @property
    def document_count(self) -> int:
        """Indexed document count under the worker lock."""
        with self._lock:
            return self.index.document_count
