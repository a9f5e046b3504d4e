"""A reader/writer lock manager with contention accounting.

Resources are identified by strings (paths, object ids, index names).  Locks
are *write-preferring*: once a writer is queued on a resource, new readers
wait behind it — under a read-heavy workload a writer would otherwise starve
indefinitely (readers overlap, so the resource never drains).  The manager
records how often an acquisition had to wait and on which resource, so
integration tests can observe where the hotspots are with real threads — the
simulated (deterministic) counterpart lives in ``repro.hierarchical.locking``.

Locks are **not** re-entrant and there is no owner tracking: a thread that
re-acquires a resource it already holds deadlocks against its own queued
writer.  Callers that need re-entrancy layer it on top with thread-local
state — the recovery manager counts each thread's holds on the engine lock
beside its transaction depth.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Optional


class LockMode:
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class LockStats:
    """Counters kept per manager."""

    acquisitions: int = 0
    waits: int = 0
    #: total time spent blocked in ``acquire`` (µs), timeouts included —
    #: waits are *timed*, not just counted, so a few long stalls are
    #: distinguishable from many short ones.
    wait_time_us: float = 0.0
    wait_resources: Dict[str, int] = field(default_factory=dict)
    #: cold entries dropped to keep ``wait_resources`` bounded.
    wait_resources_evicted: int = 0

    def hottest(self, limit: int = 5):
        ranked = sorted(self.wait_resources.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:limit]


class _ResourceLock:
    """State of one resource: reader count, a writer, and queued writers."""

    __slots__ = ("readers", "writer", "waiting_writers")

    def __init__(self) -> None:
        self.readers = 0
        self.writer = False
        self.waiting_writers = 0


class LockManager:
    """Named reader/writer locks with wait accounting.

    ``max_tracked_resources`` bounds the per-resource wait table: a
    pathological workload touching millions of distinct resources must not
    grow ``stats()`` without limit.  When the table is full and a *new*
    resource waits, the coldest tracked entry is evicted (and counted in
    ``wait_resources_evicted``) — ``hottest()`` keeps its semantics because
    the hot set, by definition, keeps re-earning its entries.

    ``wait_observer``, when set, is called as ``observer(resource, mode,
    waited_us)`` after every contended acquisition (timeouts included) —
    *outside* the manager's condition lock, so an observer feeding telemetry
    histograms never serializes other waiters behind the histogram's lock.
    """

    def __init__(self, max_tracked_resources: int = 64) -> None:
        if max_tracked_resources < 1:
            raise ValueError("max_tracked_resources must be at least 1")
        self._condition = threading.Condition()
        self._resources: Dict[str, _ResourceLock] = {}
        self.max_tracked_resources = max_tracked_resources
        self.stats = LockStats()
        self.wait_observer: Optional[Callable[[str, str, float], None]] = None

    def _state(self, resource: str) -> _ResourceLock:
        state = self._resources.get(resource)
        if state is None:
            state = _ResourceLock()
            self._resources[resource] = state
        return state

    def _count_wait(self, resource: str) -> None:
        table = self.stats.wait_resources
        if resource in table:
            table[resource] += 1
            return
        if len(table) >= self.max_tracked_resources:
            coldest = min(table.items(), key=lambda item: (item[1], item[0]))
            del table[coldest[0]]
            self.stats.wait_resources_evicted += 1
        table[resource] = 1

    def acquire(self, resource: str, mode: str = LockMode.SHARED,
                timeout: Optional[float] = None) -> bool:
        """Acquire ``resource`` in ``mode``; returns False on timeout.

        The timeout is a deadline over the whole acquisition: wakeups that
        find the resource still busy re-wait only for the *remaining* time
        (a lost race must not restart the clock).
        """
        waited_us = 0.0
        granted = False
        deadline = None if timeout is None else perf_counter() + timeout
        with self._condition:
            self.stats.acquisitions += 1
            waited = False
            wait_started = 0.0
            queued_writer = False
            try:
                while True:
                    state = self._state(resource)
                    if mode == LockMode.SHARED:
                        # Write preference: queued writers bar new readers.
                        if not state.writer and not state.waiting_writers:
                            state.readers += 1
                            granted = True
                            break
                    else:
                        if not state.writer and state.readers == 0:
                            if queued_writer:
                                state.waiting_writers -= 1
                                queued_writer = False
                            state.writer = True
                            granted = True
                            break
                        if not queued_writer:
                            state.waiting_writers += 1
                            queued_writer = True
                    if not waited:
                        waited = True
                        wait_started = perf_counter()
                        self.stats.waits += 1
                        self._count_wait(resource)
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - perf_counter()
                        if remaining <= 0:
                            break  # timed out
                    self._condition.wait(timeout=remaining)
            finally:
                if queued_writer:
                    # Timed out (or died) while queued: stop barring readers,
                    # and wake them — they may have queued behind us.
                    state = self._resources.get(resource)
                    if state is not None:
                        state.waiting_writers -= 1
                        self._drop_if_idle(resource, state)
                    self._condition.notify_all()
                if waited:
                    waited_us = (perf_counter() - wait_started) * 1e6
                    self.stats.wait_time_us += waited_us
        if waited and self.wait_observer is not None:
            self.wait_observer(resource, mode, waited_us)
        return granted

    def _drop_if_idle(self, resource: str, state: _ResourceLock) -> None:
        # Drop idle entries so the table does not grow without bound; a
        # queued writer keeps the entry alive (its waiting_writers count is
        # what bars new readers).
        if state.readers == 0 and not state.writer and not state.waiting_writers:
            self._resources.pop(resource, None)

    def release(self, resource: str, mode: str = LockMode.SHARED) -> None:
        with self._condition:
            state = self._resources.get(resource)
            if state is None:
                return
            if mode == LockMode.SHARED:
                state.readers = max(0, state.readers - 1)
            else:
                state.writer = False
            self._drop_if_idle(resource, state)
            self._condition.notify_all()

    def locked(self, resource: str) -> bool:
        with self._condition:
            state = self._resources.get(resource)
            return bool(state and (state.readers or state.writer))

    def shared(self, resource: str):
        """Context manager acquiring a shared lock."""
        return _Held(self, resource, LockMode.SHARED)

    def exclusive(self, resource: str):
        """Context manager acquiring an exclusive lock."""
        return _Held(self, resource, LockMode.EXCLUSIVE)


class _Held:
    def __init__(self, manager: LockManager, resource: str, mode: str) -> None:
        self._manager = manager
        self._resource = resource
        self._mode = mode

    def __enter__(self):
        self._manager.acquire(self._resource, self._mode)
        return self

    def __exit__(self, *exc_info) -> None:
        self._manager.release(self._resource, self._mode)
