"""The per-operation attribution context — the system's lowest-level leaf.

This module holds *only* the :mod:`contextvars` plumbing that lets the
lowest layers (buffer pool, device page stores, journal, retry ladder)
report what they do to "whoever is asking": one ``current_operation()``
call, a None-check, and plain integer adds on the result.  Everything else
about attribution — the ledger of completed operations, lock timing, the
slow-query log — lives in :mod:`repro.telemetry.attribution`, which
re-exports these names.

It is a *top-level* stdlib-only module deliberately: the hot layers cannot
import anything under ``repro.telemetry`` at module scope, because loading
any ``repro.telemetry`` submodule first executes the package ``__init__``,
which pulls in the explain/query machinery and — through ``repro.core`` —
the very layers doing the importing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Dict, List, Optional

#: the active operation of the current thread/context (None = unattributed).
_ACTIVE: "ContextVar[Optional[OperationContext]]" = ContextVar(
    "hfad_operation", default=None
)
# bound methods, hoisted once — scope enter/exit is a measured hot path.
_active_get = _ACTIVE.get
_active_set = _ACTIVE.set
_active_reset = _ACTIVE.reset


def current_operation() -> "Optional[OperationContext]":
    """The operation the current thread is attributed to, or None.

    This is *the* hot-path hook: report sites call it once, check for None
    and bump plain integer slots on the result.
    """
    return _ACTIVE.get()


@contextmanager
def detached():
    """Suspend the active operation for the block: background work a
    foreground operation happens to trigger (a backlog settle tripped by a
    create's commit) opens its own operation inside instead of being absorbed.
    """
    token = _active_set(None)
    try:
        yield
    finally:
        _active_reset(token)


class OperationContext:
    """One user-facing operation's resource ledger (plain integer slots).

    Also its own context manager: entering installs it as the active
    operation (unless one is already active — nested facade calls are
    absorbed into the outer operation, and ``__enter__`` returns None) and
    exiting stamps ``elapsed``/``failed`` and hands the record to the
    owning ledger.  Folding the scope into the context keeps the per-
    operation cost to a single allocation, which the telemetry-overhead
    gate measures.
    """

    __slots__ = (
        "kind", "detail", "seq", "started", "elapsed", "failed",
        "pages_read", "pages_written", "cache_hits", "cache_misses",
        "wal_bytes", "wal_records", "wal_syncs", "integrity_retries",
        "lock_wait_us", "lock_waits", "_ledger", "_token",
    )

    def __init__(self, kind: str, detail: str = "", seq: int = 0,
                 ledger=None) -> None:
        self.kind = kind
        self.detail = detail
        self.seq = seq
        self.started = perf_counter()
        self.elapsed = 0.0          # seconds; set when the scope closes
        self.failed = False
        self.pages_read = 0         # device page-ins (cache misses that hit the device)
        self.pages_written = 0      # device page writes (write-back + write-through)
        self.cache_hits = 0
        self.cache_misses = 0
        self.wal_bytes = 0          # journal bytes appended (header + payload)
        self.wal_records = 0
        self.wal_syncs = 0
        self.integrity_retries = 0
        self.lock_wait_us = 0.0
        #: per-lock contended-wait breakdown: name -> [count, total µs];
        #: allocated lazily — most operations never wait.
        self.lock_waits: Optional[Dict[str, List[float]]] = None
        self._ledger = ledger
        self._token = None

    def __enter__(self) -> "Optional[OperationContext]":
        if _active_get() is not None:
            return None  # nested: absorb into the outer operation
        self._token = _active_set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        token = self._token
        if token is None:
            return  # absorbed — the outer operation owns the record
        _active_reset(token)
        self.elapsed = perf_counter() - self.started
        if exc_type is not None:
            self.failed = True
        self._ledger._close(self)

    def add_lock_wait(self, name: str, wait_us: float) -> None:
        self.lock_wait_us += wait_us
        waits = self.lock_waits
        if waits is None:
            waits = self.lock_waits = {}
        entry = waits.get(name)
        if entry is None:
            waits[name] = [1, wait_us]
        else:
            entry[0] += 1
            entry[1] += wait_us

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "detail": self.detail,
            "elapsed_us": round(self.elapsed * 1e6, 3),
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wal_bytes": self.wal_bytes,
            "wal_records": self.wal_records,
            "wal_syncs": self.wal_syncs,
            "integrity_retries": self.integrity_retries,
            "lock_wait_us": round(self.lock_wait_us, 3),
        }
        if self.failed:
            out["failed"] = True
        if self.lock_waits:
            out["lock_waits"] = {
                name: {"count": entry[0], "wait_us": round(entry[1], 3)}
                for name, entry in self.lock_waits.items()
            }
        return out

    def __repr__(self) -> str:
        return (f"OperationContext({self.kind!r}, {self.detail!r}, "
                f"pages_read={self.pages_read}, wal_bytes={self.wal_bytes})")


#: the per-operation counter fields aggregated by kind in the ledger.
_TOTAL_FIELDS = (
    "pages_read", "pages_written", "cache_hits", "cache_misses",
    "wal_bytes", "wal_records", "wal_syncs", "integrity_retries",
)
