"""Load generators for the served workloads: one thread, one asyncio loop.

Both take pipelining clients (anything with ``send_request`` and
``read_response`` coroutines, so tests can pass fakes) whose request ids
count up by one from a known first id — that makes the id of every request
known before it is sent, so a reply can never overtake its own bookkeeping.

* :func:`closed_loop` keeps ``window`` requests in flight per connection and
  sends the next one when a reply arrives: a slow server receives less load.
* :func:`open_loop` sends on a fixed schedule whatever the server does and
  times every request from the moment it was *due*, so a stall — of the
  server or of this generator — is charged to the requests it delayed.  Like
  a client with a bounded connection pool it never has more than ``inflight``
  requests outstanding per connection: a stall long enough to fill that
  shows as latency (and generator lateness), not as requests the server's
  admission control sheds.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: a request is (op name, fields) ready for ``send_request``.
Wire = Tuple[str, dict]


@dataclass
class Load:
    """What one measured phase produced, per connection then per request."""
    latency: List[List[Optional[float]]]      # seconds; None = never answered
    responses: List[List[Optional[dict]]]
    wall: float = 0.0
    #: open loop: how late each request was sent, seconds after it was due.
    late: List[float] = field(default_factory=list)
    #: CPU seconds the generating thread spent (its share of the GIL).
    cpu: float = 0.0
    #: requests sent while another on the same key was still in flight.
    key_conflicts: int = 0


def _blank(wires: Sequence[Sequence[Wire]]) -> Load:
    return Load([[None] * len(w) for w in wires], [[None] * len(w) for w in wires])


def _key(wire: Wire):
    """What two requests must not share while both are in flight."""
    name, fields = wire
    return (fields["oid"], fields["value"]) if name in ("tag", "untag") else None


async def closed_loop(clients, wires: Sequence[Sequence[Wire]], window: int,
                      timeout: float, first_id: int = 1) -> Load:
    """``first_id`` is the id the clients will give their next request: 1 on
    fresh connections, more when an earlier call already used them."""
    load = _blank(wires)
    clock = time.perf_counter

    async def drive(conn: int) -> None:
        client, todo = clients[conn], wires[conn]
        latency, responses = load.latency[conn], load.responses[conn]
        sent_at = {}
        busy = set()
        sent = done = 0
        while done < len(todo):
            while sent < len(todo) and sent - done < window:
                key = _key(todo[sent])
                if key is not None:
                    load.key_conflicts += key in busy
                    busy.add(key)
                sent_at[sent] = clock()
                rid = await client.send_request(todo[sent][0], **todo[sent][1])
                assert rid == first_id + sent, "client ids must count up from first_id"
                sent += 1
            try:
                response = await asyncio.wait_for(client.read_response(), timeout)
            except asyncio.TimeoutError:
                return  # everything still pending stays unanswered
            if response is None:
                return
            index = response["id"] - first_id
            latency[index] = clock() - sent_at.pop(index)
            responses[index] = response
            busy.discard(_key(todo[index]))
            done += 1

    cpu = time.thread_time()
    start = clock()
    await asyncio.gather(*(drive(conn) for conn in range(len(clients))))
    load.wall = clock() - start
    load.cpu = time.thread_time() - cpu
    return load


async def open_loop(clients, wires: Sequence[Sequence[Wire]],
                    schedule: Sequence[float], timeout: float,
                    inflight: int, first_id: int = 1) -> Load:
    """Request ``i`` is ``wires[i % n][i // n]``, due ``schedule[i]`` seconds
    after the start; ``first_id`` as for :func:`closed_loop`."""
    load = _blank(wires)
    count = len(clients)
    clock = time.perf_counter
    busy = set()
    slots = [asyncio.Semaphore(inflight) for _ in clients]

    async def send(start: float) -> None:
        for i, due in enumerate(schedule):
            delay = start + due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            conn, index = i % count, i // count
            try:
                await asyncio.wait_for(slots[conn].acquire(), timeout)
            except asyncio.TimeoutError:
                return  # the connection is dead: the rest stays unanswered
            load.late.append(max(0.0, clock() - start - due))
            wire = wires[conn][index]
            key = _key(wire)
            if key is not None:
                load.key_conflicts += key in busy
                busy.add(key)
            rid = await clients[conn].send_request(wire[0], **wire[1])
            assert rid == first_id + index, "client ids must count up from first_id"

    async def receive(conn: int, start: float) -> None:
        latency, responses = load.latency[conn], load.responses[conn]
        for _ in range(len(wires[conn])):
            response = await clients[conn].read_response()
            if response is None:
                return
            index = response["id"] - first_id
            latency[index] = clock() - start - schedule[index * count + conn]
            responses[index] = response
            busy.discard(_key(wires[conn][index]))
            slots[conn].release()

    cpu = time.thread_time()
    start = clock()
    receivers = [asyncio.ensure_future(receive(conn, start)) for conn in range(count)]
    await send(start)
    # Replies still missing ``timeout`` after the last request went out are
    # failures; stop waiting for them.
    _done, late = await asyncio.wait(receivers, timeout=timeout)
    for task in late:
        task.cancel()
    for outcome in await asyncio.gather(*receivers, return_exceptions=True):
        if isinstance(outcome, Exception):
            raise outcome
    load.wall = clock() - start
    load.cpu = time.thread_time() - cpu
    return load
