"""Ack-after-durable write batching for the serving layer.

Group commit (``group_commit > 1``) buffers committed frames so one journal
sync covers many transactions — but a server must not *acknowledge* a write
whose frame is still buffered: the ack is a durability promise, and a
crash between ack and sync would break it.  :class:`WriteBatcher` closes
that gap without giving the throughput back:

* the engine call runs on the worker pool and its covering LSN is captured
  (``journal.sealed_lsn`` right after the call returns — an upper bound on
  the transaction's frame, so waiting on it is always safe);
* if the journal is already durable past that LSN the ack goes out
  immediately (a concurrent writer's sync, or ``group_commit=1``);
* otherwise the response is parked on an asyncio future keyed by LSN and
  resolved from the recovery manager's durable listener — which fires on
  *any* durability advance: a batch-filling commit by another session, the
  ``sync_interval_ms`` idle flush, an eviction sync, a checkpoint.

So N concurrent writers naturally share one WAL sync (their futures all
resolve from the same advance, handed to the loop as one batch through the
server's :class:`~repro.serve.completions.Completions`: one wake-up, not one
per ack), while a lone writer's ack is bounded by the idle flusher.  A
belt-and-braces fallback forces ``flush_commits()`` if no advance lands
within ``ack_timeout_s`` — e.g. the flusher was explicitly disabled — so an
ack can be late, but never stranded.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Tuple

from repro.serve.completions import Completions


class WriteBatcher:
    """Resolves "is my write durable yet?" futures off the WAL sync path."""

    def __init__(self, recovery, completions: Completions,
                 executor, ack_timeout_s: float = 1.0) -> None:
        self.recovery = recovery
        self.completions = completions
        self.loop = completions.loop
        self.executor = executor
        self.ack_timeout_s = ack_timeout_s
        self._waiters: List[Tuple[int, int, asyncio.Future]] = []
        self._waiter_seq = 0
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "acks_immediate": 0,
            "acks_batched": 0,
            "forced_flushes": 0,
            "ack_timeouts": 0,
        }
        recovery.add_durable_listener(self._on_durable)

    def close(self) -> None:
        self.recovery.remove_durable_listener(self._on_durable)
        with self._lock:
            waiters, self._waiters = self._waiters, []
        # Unconfirmed: a parked write is answered ack_timeout, never ok.
        self.completions.resolve((future for _lsn, _seq, future in waiters), False)

    # -- durability listener (any thread) -------------------------------------

    def _on_durable(self, durable: int) -> None:
        # Called from whichever thread performed the sync, potentially with
        # the journal mutex held — hand off to the loop immediately.
        with self._lock:
            if not self._waiters or self._waiters[0][0] > durable:
                # Fast path: nothing to wake (binary order: list kept sorted).
                ready = []
            else:
                ready = [w for w in self._waiters if w[0] <= durable]
                self._waiters = [w for w in self._waiters if w[0] > durable]
        self.completions.resolve((future for _lsn, _seq, future in ready), True)

    # -- the awaitable ack ----------------------------------------------------

    async def wait_durable(self, lsn: int) -> bool:
        """Await durability of everything up to ``lsn``; True on success."""
        recovery = self.recovery
        if lsn <= 0 or recovery.journal.durable_lsn >= lsn:
            self.stats["acks_immediate"] += 1
            return True
        future = self.loop.create_future()
        with self._lock:
            self._waiter_seq += 1
            self._waiters.append((lsn, self._waiter_seq, future))
            self._waiters.sort()
        # Re-check after registering: a sync may have raced the registration
        # (listener fired before the waiter existed).
        if recovery.journal.durable_lsn >= lsn:
            self._on_durable(recovery.journal.durable_lsn)
        try:
            return await self._settle(future, lsn)
        finally:
            if not future.done():
                # Unsettled: timed out, or this wait was cancelled (its
                # client went away).  Nothing will answer it any more, so
                # it must stop counting as a pending ack.
                with self._lock:
                    self._waiters = [w for w in self._waiters if w[2] is not future]

    async def _settle(self, future: asyncio.Future, lsn: int) -> bool:
        """Wait for ``future``; past ``ack_timeout_s``, force a flush and
        wait once more."""
        recovery = self.recovery
        try:
            return self._acked(await asyncio.wait_for(
                asyncio.shield(future), self.ack_timeout_s))
        except asyncio.TimeoutError:
            # No advance landed (idle flusher disabled or wedged): force the
            # tail sync ourselves and give the listener one more chance.
            self.stats["forced_flushes"] += 1
            try:
                await self.completions.submit(self.executor, recovery.flush_commits)
            except Exception:
                pass  # a dead device fails the durability re-check below
            if recovery.journal.durable_lsn >= lsn:
                self._on_durable(recovery.journal.durable_lsn)
            try:
                return self._acked(await asyncio.wait_for(
                    asyncio.shield(future), self.ack_timeout_s))
            except asyncio.TimeoutError:
                self.stats["ack_timeouts"] += 1
                return False

    def _acked(self, durable: bool) -> bool:
        """Book a settled wait: True from a durable advance, False when
        :meth:`close` gave up on it."""
        self.stats["acks_batched" if durable else "ack_timeouts"] += 1
        return durable

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            pending = len(self._waiters)
        return {**self.stats, "pending_acks": pending}
