"""The worker → event-loop hand-off of the serving layer, one wake-up per batch.

``loop.run_in_executor`` wakes the event loop once per completed call: each
completion is a ``call_soon_threadsafe``, a write to the loop's self-pipe
that drops the GIL and waits to take it back — on a busy server that wait
costs more than the JSON work around the call.  :class:`Completions` hands
results back through one locked list instead: a worker (or the durability
listener) appends what it finished and wakes the loop only when the list
was empty; the loop then settles every ready future in one callback.  So a
burst of completions, or the N acks one journal sync makes ready, share one
wake-up.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Iterable, List, Optional, Tuple

#: one settled outcome: ``(future, value, error)``; ``error`` wins if set.
_Outcome = Tuple[asyncio.Future, object, Optional[BaseException]]


class Completions:
    """Settles asyncio futures of one loop from any thread, batched."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._lock = threading.Lock()
        self._ready: List[_Outcome] = []
        #: loop wake-ups requested (each settles every outcome posted
        #: before it runs).
        self.wakeups = 0

    def submit(self, executor, fn: Callable[[], object]) -> asyncio.Future:
        """Run ``fn`` on ``executor``; the returned loop future settles with
        its result or its exception (call from the loop thread)."""
        future = self.loop.create_future()

        def run() -> None:
            try:
                result = fn()
            except BaseException as exc:
                # Settle the awaiter whatever fn raised, as run_in_executor
                # does; the executor's own future keeps the re-raise.
                self._post([(future, None, exc)])
                raise
            self._post([(future, result, None)])

        executor.submit(run)
        return future

    def resolve(self, futures: Iterable[asyncio.Future], value: object) -> None:
        """Settle every future in ``futures`` with ``value`` (any thread)."""
        outcomes = [(future, value, None) for future in futures]
        if outcomes:
            self._post(outcomes)

    def _post(self, outcomes: List[_Outcome]) -> None:
        with self._lock:
            wake = not self._ready
            self._ready.extend(outcomes)
            if wake:
                self.wakeups += 1
        if wake:
            try:
                self.loop.call_soon_threadsafe(self._drain)
            except RuntimeError:
                pass  # the loop is closed: nothing is left awaiting these

    def _drain(self) -> None:
        with self._lock:
            ready, self._ready = self._ready, []
        for future, value, error in ready:
            if future.done():
                continue  # its awaiter was cancelled
            if error is None:
                future.set_result(value)
            else:
                future.set_exception(error)
