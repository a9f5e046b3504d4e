"""The write batcher: ack-after-durable, forced flushes, batched wake-ups.

Unit cases drive :class:`WriteBatcher` over a stand-in recovery manager on
a private loop; the end-to-end cases run a real server over an engine whose
idle flusher is off, so every ack waits on the batcher's own paths.
"""

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import HFADFileSystem
from repro.errors import RequestError
from repro.serve import AsyncClient, Client, ServeConfig, WriteBatcher, serve_in_thread
from repro.serve.completions import Completions
from repro.storage.block_device import FaultPlan


class _Journal:
    durable_lsn = 0


class _Recovery:
    """Just what the batcher touches: a journal, listeners, a flush."""

    def __init__(self) -> None:
        self.journal = _Journal()
        self.listeners = []

    def add_durable_listener(self, listener) -> None:
        self.listeners.append(listener)

    def remove_durable_listener(self, listener) -> None:
        self.listeners.remove(listener)

    def flush_commits(self) -> None:
        pass

    def advance(self, lsn: int) -> None:
        self.journal.durable_lsn = lsn
        for listener in list(self.listeners):
            listener(lsn)


def test_one_durable_advance_wakes_the_loop_once_for_every_ready_ack():
    recovery = _Recovery()

    async def scenario():
        loop = asyncio.get_running_loop()
        completions = Completions(loop)
        with ThreadPoolExecutor(1) as executor:
            batcher = WriteBatcher(recovery, completions, executor, ack_timeout_s=30)
            waits = [loop.create_task(batcher.wait_durable(lsn)) for lsn in (3, 5, 7, 9)]
            await asyncio.sleep(0)
            assert batcher.snapshot()["pending_acks"] == 4
            wakeups = completions.wakeups
            syncer = threading.Thread(target=recovery.advance, args=(7,))
            syncer.start()
            syncer.join()
            assert await asyncio.gather(*waits[:3]) == [True, True, True]
            assert completions.wakeups == wakeups + 1
            assert batcher.snapshot()["pending_acks"] == 1
            batcher.close()
            assert await waits[3] is False  # given up on, never acked ok
        return batcher.snapshot()

    snapshot = asyncio.run(scenario())
    assert snapshot["acks_batched"] == 3
    assert snapshot["ack_timeouts"] == 1
    assert snapshot["pending_acks"] == 0
    assert recovery.listeners == []


def test_close_after_the_loop_is_gone_resolves_parked_acks_without_raising():
    recovery = _Recovery()
    loop = asyncio.new_event_loop()
    batcher = WriteBatcher(recovery, Completions(loop), None, ack_timeout_s=30)
    wait = loop.create_task(batcher.wait_durable(11))
    loop.run_until_complete(asyncio.sleep(0))
    wait.cancel()
    loop.run_until_complete(asyncio.gather(wait, return_exceptions=True))
    # A cancelled wait is nobody's pending ack any more.
    assert batcher.snapshot()["pending_acks"] == 0
    loop.close()
    batcher.close()
    assert batcher.snapshot()["pending_acks"] == 0


def test_completions_settle_every_future_once_under_contention():
    """Eight posting threads and eight workers against one draining loop,
    with thread switches forced often: no outcome may be lost to a race
    between a post that skips the wake-up and the drain that takes the list."""

    async def scenario():
        loop = asyncio.get_running_loop()
        completions = Completions(loop)
        resolved = [loop.create_future() for _ in range(8 * 400)]

        def post(chunk):
            for future in chunk:
                completions.resolve([future], True)

        def work(index):
            if index % 3 == 0:
                raise ValueError(index)
            return index

        posters = [threading.Thread(target=post, args=(resolved[i::8],))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as executor:
                submitted = [completions.submit(executor, lambda i=i: work(i))
                             for i in range(2000)]
                for poster in posters:
                    poster.start()
                done = await asyncio.wait_for(asyncio.gather(
                    asyncio.gather(*resolved),
                    asyncio.gather(*submitted, return_exceptions=True)), timeout=60)
        finally:
            sys.setswitchinterval(interval)
            for poster in posters:
                poster.join(10)
        assert not any(poster.is_alive() for poster in posters)
        return done, completions.wakeups

    (flags, outcomes), wakeups = asyncio.run(scenario())
    assert flags == [True] * len(flags)
    for index, outcome in enumerate(outcomes):
        if index % 3 == 0:
            assert isinstance(outcome, ValueError) and outcome.args == (index,)
        else:
            assert outcome == index
    assert 1 <= wakeups <= len(flags) + len(outcomes)


@pytest.fixture()
def lone_writer(tmp_path):
    """A server over a group-committed engine with no idle flush: a lone
    write's frame sits unsynced until the batcher forces it."""
    fs = HFADFileSystem(journal_blocks=511, num_blocks=1 << 14,
                        group_commit=4, sync_interval_ms=0)
    handle = serve_in_thread(fs, ServeConfig(
        unix_path=str(tmp_path / "lone.sock"), ack_timeout_s=0.2))
    yield fs, handle
    handle.stop()
    if fs.device.fault_plan is None:
        fs.close()


def test_a_lone_writer_is_acked_through_the_forced_flush(lone_writer):
    fs, handle = lone_writer
    with Client(handle.address) as client:
        oid = client.create(b"alone in its batch")
        assert client.read(oid) == b"alone in its batch"
    journal = fs.recovery.journal
    assert journal.durable_lsn >= journal.last_lsn
    snapshot = handle.server.batcher.snapshot()
    assert snapshot["forced_flushes"] == 1
    assert snapshot["acks_batched"] == 1
    assert snapshot["pending_acks"] == 0


def test_a_failing_sync_answers_ack_timeout_and_strands_nothing(lone_writer):
    fs, handle = lone_writer
    fs.device.fault_plan = FaultPlan(fail_after_writes=0)
    with Client(handle.address) as client:
        with pytest.raises(RequestError) as excinfo:
            client.create(b"never confirmed")
        assert excinfo.value.code == "ack_timeout"
        snapshot = handle.server.batcher.snapshot()
        assert snapshot["forced_flushes"] == 1
        assert snapshot["ack_timeouts"] == 1
        assert snapshot["pending_acks"] == 0
        assert client.ping()["pong"] is True


def test_a_client_that_leaves_mid_pipeline_strands_no_parked_ack(tmp_path):
    """Writes parked on the batcher when their client disconnects: the
    server cancels their waits, and none of them stays a pending ack."""
    fs = HFADFileSystem(journal_blocks=511, num_blocks=1 << 14,
                        group_commit=4, sync_interval_ms=0)
    handle = serve_in_thread(fs, ServeConfig(
        unix_path=str(tmp_path / "leaver.sock"), ack_timeout_s=30))
    batcher = handle.server.batcher

    def pending() -> int:
        return batcher.snapshot()["pending_acks"]

    def settle(want: int) -> int:
        deadline = time.monotonic() + 10
        while pending() != want and time.monotonic() < deadline:
            time.sleep(0.01)
        return pending()

    async def scenario():
        client = await AsyncClient.connect(handle.address)
        for i in range(3):  # under the group of 4: no commit syncs
            await client.send_request("create", text=f"parked {i}")
        assert await asyncio.get_running_loop().run_in_executor(None, settle, 3) == 3
        await client.close()

    try:
        asyncio.run(scenario())
        assert settle(0) == 0
        snapshot = batcher.snapshot()
        assert snapshot["acks_batched"] == snapshot["forced_flushes"] == 0
    finally:
        handle.stop()
        fs.close()
