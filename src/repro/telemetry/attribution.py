"""Per-operation resource attribution, lock timing and workload history.

PR 6 gave the system a metric *namespace* (global counters, latency
histograms); this module gives it *attribution*: which operation spent the
pages, missed the cache, wrote the WAL bytes, waited on the lock.  Four
pieces:

* :class:`OperationContext` — a per-operation accumulator threaded through
  the engine via a :mod:`contextvars` variable.  The facade opens one
  context around every user-facing operation (``create``, ``query``,
  ``rank``, ``scrub``, a backlog ``settle``, ``checkpoint``); the low layers
  (buffer pool, device page stores, journal, retry ladder) report into
  whatever context is active with one C-level ``ContextVar.get`` and an
  integer add — no parameter plumbing, no cost when no context is open.
  Contexts do not nest: an inner facade call (``create`` → ``tag``-style
  composition) is absorbed into the already-open outer operation, because
  attribution is *per user-facing operation* by definition.

* :class:`TimedLock` — an RLock wrapper that times contended waits and
  outermost hold durations into per-lock log2 histograms
  (``lock.<name>.wait_us`` / ``lock.<name>.hold_us``) and charges waits to
  the active operation.  The fast path is a non-blocking ``acquire`` —
  an uncontended lock costs one extra C call and two attribute writes.

* :class:`SlowQueryLog` — a bounded ring of queries/ranks that exceeded a
  threshold, each entry carrying the operation's attribution record and
  (for boolean queries) a captured EXPLAIN ANALYZE report.

* :class:`MetricsHistory` — a sliding window of registry snapshots with
  windowed counter deltas and histogram quantiles, the data source for the
  CLI's ``top`` view.

The contextvar and :class:`OperationContext` themselves live in the
top-level leaf :mod:`repro.opcontext` (re-exported here): the lowest layers
(``repro.cache``, ``repro.btree``, ``repro.storage``, ``repro.integrity``)
import that leaf, because importing any ``repro.telemetry`` submodule first
executes the package ``__init__`` — which pulls in the explain/query
machinery and, through ``repro.core``, those very layers.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import count
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.opcontext import (  # noqa: F401 — re-exported public API
    _ACTIVE,
    _TOTAL_FIELDS,
    OperationContext,
    current_operation,
)
from repro.telemetry.exporters import _bucket_bound


class AttributionLedger:
    """Completed-operation records: a bounded recent ring + per-kind totals."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("ledger capacity must be at least 1")
        self.capacity = capacity
        self._recent: "deque[OperationContext]" = deque(maxlen=capacity)
        self._totals: Dict[str, Dict[str, float]] = {}
        self._pending: "deque[OperationContext]" = deque()
        self._lock = threading.Lock()
        self._seq = count(1)  # next() is atomic under the GIL — no lock

    def operation(self, kind: str, detail: str = "") -> OperationContext:
        """A context manager attributing everything inside to one operation.

        The returned :class:`OperationContext` is its own scope: entering
        installs it (``__enter__`` returns None when an outer operation
        absorbs it), exiting records it here.  Sequence numbers come from an
        ``itertools.count`` — ``next()`` is atomic under the GIL, so opening
        an operation takes no lock.
        """
        return OperationContext(kind, detail, seq=next(self._seq), ledger=self)

    def _close(self, op: OperationContext) -> None:
        # Hot path: two deque appends (atomic under the GIL — no lock).  The
        # per-kind totals fold is deferred to :meth:`_fold`, run in batches
        # here and always before a read, so totals stay exact while a
        # completed operation costs no dict arithmetic inline — the
        # difference between passing and failing the telemetry-overhead gate.
        self._recent.append(op)
        self._pending.append(op)
        if len(self._pending) >= 32:
            self._fold()

    def _fold(self) -> None:
        with self._lock:
            pending = self._pending
            get_totals = self._totals.get
            while True:
                try:
                    op = pending.popleft()
                except IndexError:
                    break
                totals = get_totals(op.kind)
                if totals is None:
                    totals = self._totals[op.kind] = {
                        "count": 0, "failed": 0, "elapsed_us": 0.0,
                        "lock_wait_us": 0.0,
                    }
                    for fld in _TOTAL_FIELDS:
                        totals[fld] = 0
                totals["count"] += 1
                if op.failed:
                    totals["failed"] += 1
                totals["elapsed_us"] += op.elapsed * 1e6
                totals["lock_wait_us"] += op.lock_wait_us
                for fld in _TOTAL_FIELDS:
                    totals[fld] += getattr(op, fld)

    def recent(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recently completed operations, newest first."""
        with self._lock:
            records = list(self._recent)
        records.reverse()
        if n is not None:
            records = records[:n]
        return [record.snapshot() for record in records]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-kind aggregate totals (counts, resources, elapsed µs)."""
        self._fold()  # flush deferred closes so the totals are exact
        with self._lock:
            return {
                kind: {key: (round(value, 3) if isinstance(value, float) else value)
                       for key, value in totals.items()}
                for kind, totals in self._totals.items()
            }

    def __len__(self) -> int:
        return len(self._recent)


class TimedLock:
    """An RLock wrapper timing contended waits and outermost holds.

    Drop-in for the ``threading.RLock`` use sites in this codebase (plain
    ``acquire``/``release``/``with``): re-entrant, same ordering semantics,
    because it *delegates* to a real RLock rather than re-implementing one.
    The fast path tries a non-blocking acquire first; only a contended
    acquisition pays two ``perf_counter`` calls and a histogram observe.

    ``_depth``/``_acquired_at`` are only touched while the inner lock is
    held, so they need no synchronization of their own.
    """

    __slots__ = ("name", "wait_us", "hold_us", "acquisitions", "contended",
                 "_inner", "_depth", "_acquired_at")

    def __init__(self, name: str, registry=None, inner=None,
                 wait_hist=None, hold_hist=None) -> None:
        self.name = name
        if registry is not None:
            wait_hist = registry.histogram(
                f"lock.{name}.wait_us",
                f"microseconds spent waiting for the {name} lock (contended "
                f"acquisitions only)")
            hold_hist = registry.histogram(
                f"lock.{name}.hold_us",
                f"microseconds the {name} lock was held (outermost "
                f"acquire to final release)")
        self.wait_us = wait_hist
        self.hold_us = hold_hist
        self.acquisitions = 0
        self.contended = 0
        self._inner = inner if inner is not None else threading.RLock()
        self._depth = 0
        self._acquired_at = 0.0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        inner = self._inner
        if not inner.acquire(False):
            if not blocking:
                return False
            started = perf_counter()
            if not inner.acquire(True, timeout):
                return False
            waited_us = (perf_counter() - started) * 1e6
            self.contended += 1
            if self.wait_us is not None:
                self.wait_us.observe(waited_us)
            op = _ACTIVE.get()
            if op is not None:
                op.add_lock_wait(self.name, waited_us)
        # holding the inner lock from here on
        self.acquisitions += 1
        if self._depth == 0:
            self._acquired_at = perf_counter()
        self._depth += 1
        return True

    def release(self) -> None:
        held_us = None
        if self._depth == 1:
            held_us = (perf_counter() - self._acquired_at) * 1e6
        self._depth -= 1
        self._inner.release()
        # Observe *after* releasing so waiters are not serialized behind the
        # histogram's own lock; held_us was computed while still holding.
        if held_us is not None and self.hold_us is not None:
            self.hold_us.observe(held_us)

    def __enter__(self) -> "TimedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class SlowQueryLog:
    """A bounded ring of queries/ranks that exceeded the latency threshold."""

    def __init__(self, threshold_ms: Optional[float] = 100.0,
                 capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("slow-query log capacity must be at least 1")
        self.capacity = capacity
        #: latency threshold in milliseconds; None disables capture.
        self.threshold_ms = threshold_ms
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    def record(self, kind: str, text: str, elapsed_s: float,
               attribution: Optional[Dict[str, object]] = None,
               report: Optional[Dict[str, object]] = None,
               reexecuted: bool = False) -> Dict[str, object]:
        with self._lock:
            self._seq += 1
            entry: Dict[str, object] = {
                "seq": self._seq,
                "kind": kind,
                "query": text,
                "elapsed_ms": round(elapsed_s * 1e3, 4),
                "threshold_ms": self.threshold_ms,
            }
            if attribution is not None:
                entry["attribution"] = attribution
            if report is not None:
                entry["report"] = report
                if reexecuted:
                    # Boolean reports come from a separate EXPLAIN ANALYZE
                    # run of the same query — flag that the actuals are from
                    # the re-execution, not the slow run itself.
                    entry["report_reexecuted"] = True
            self._entries.append(entry)
            return entry

    def last(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent slow entries, newest first."""
        with self._lock:
            entries = list(self._entries)
        entries.reverse()
        return entries if n is None else entries[:n]

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# windowed history (the ``top`` data source)
# ---------------------------------------------------------------------------


def histogram_quantiles(snapshot: Dict[str, object],
                        qs=(0.5, 0.95, 0.99)) -> Dict[str, Optional[float]]:
    """Quantile estimates from a log2-bucketed histogram snapshot.

    Each estimate is the upper bound of the bucket the quantile lands in
    (clamped to the observed max) — coarse by construction, which is fine
    for the ``top`` view the buckets exist to serve.  Returns
    ``{"p50": ..., "p95": ...}`` with None values when the histogram is
    empty.
    """
    count = int(snapshot.get("count") or 0)
    out: Dict[str, Optional[float]] = {}
    if count <= 0:
        for q in qs:
            out[f"p{int(q * 100)}"] = None
        return out
    pairs = sorted(
        ((_bucket_bound(label), n) for label, n in snapshot["buckets"].items()),
        key=lambda item: item[0],
    )
    maximum = snapshot.get("max")
    for q in qs:
        target = q * count
        cumulative = 0
        estimate: Optional[float] = None
        for bound, n in pairs:
            cumulative += n
            if cumulative >= target:
                estimate = bound
                break
        if estimate is not None and isinstance(maximum, (int, float)):
            estimate = min(estimate, float(maximum))
        out[f"p{int(q * 100)}"] = estimate
    return out


def _subtract_histograms(new: Dict[str, object],
                         old: Optional[Dict[str, object]]) -> Dict[str, object]:
    if old is None:
        return dict(new, buckets=dict(new["buckets"]))
    buckets = {
        label: n - old.get("buckets", {}).get(label, 0)
        for label, n in new["buckets"].items()
    }
    return {
        "count": new["count"] - old["count"],
        "sum": new["sum"] - old["sum"],
        "min": new.get("min"),
        "max": new.get("max"),
        "buckets": buckets,
    }


class MetricsHistory:
    """A sliding window of registry snapshots with windowed deltas.

    ``sample()`` appends one ``registry.snapshot()`` (the native
    instruments); ``window()`` compares the two
    most recent samples and reports counter deltas/rates, per-window
    histogram count deltas with quantile estimates, and current gauges.
    """

    def __init__(self, registry, capacity: int = 64,
                 clock: Callable[[], float] = perf_counter) -> None:
        if capacity < 2:
            raise ValueError("history needs at least 2 samples")
        self._registry = registry
        self._clock = clock
        self._samples: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def sample(self) -> None:
        snap = self._registry.snapshot()
        with self._lock:
            self._samples.append((self._clock(), snap))

    def window(self) -> Optional[Dict[str, object]]:
        """Deltas between the two most recent samples (None until 2 exist)."""
        with self._lock:
            if len(self._samples) < 2:
                return None
            (t0, old), (t1, new) = self._samples[-2], self._samples[-1]
        seconds = max(t1 - t0, 1e-9)
        counters: Dict[str, Dict[str, float]] = {}
        for name, value in new["counters"].items():
            delta = value - old["counters"].get(name, 0)
            counters[name] = {"delta": delta,
                              "rate": round(delta / seconds, 3)}
        histograms: Dict[str, Dict[str, object]] = {}
        for name, snap in new["histograms"].items():
            diff = _subtract_histograms(snap, old["histograms"].get(name))
            entry: Dict[str, object] = {
                "count": diff["count"],
                "rate": round(diff["count"] / seconds, 3),
                "sum": diff["sum"],
            }
            entry.update(histogram_quantiles(diff))
            histograms[name] = entry
        return {
            "seconds": round(seconds, 6),
            "counters": counters,
            "gauges": dict(new["gauges"]),
            "histograms": histograms,
        }

    def __len__(self) -> int:
        return len(self._samples)
