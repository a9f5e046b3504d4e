"""Object reads answered from the content memo on the server's event loop.

A ``read`` of an object whose memoised content is current (no content
mutation since it was read whole) is answered on the loop, without a worker
thread, the engine lock or a tree read; anything else falls through to the
worker pool.  These tests pin what that may and may not change: a read
returns the committed bytes, a poisoned engine still refuses, access times
are still recorded and persisted, only objects of at most a page are kept,
and memo counts stay one per request.
"""

import asyncio
import base64
import threading

import pytest

from repro.btree import PAGE_BYTES
from repro.core import HFADFileSystem
from repro.errors import RequestError
from repro.serve import AsyncClient, Client, ServeConfig, serve_in_thread
from repro.storage import BlockDevice


@pytest.fixture()
def fs():
    fs = HFADFileSystem(
        journal_blocks=511,
        num_blocks=1 << 14, group_commit=4, sync_interval_ms=5.0,
    )
    yield fs
    if not fs.recovery.poisoned:
        fs.close()


@pytest.fixture()
def server(fs, tmp_path):
    handle = serve_in_thread(fs, ServeConfig(unix_path=str(tmp_path / "content.sock")))
    yield handle
    handle.stop()


def on_loop(handle) -> int:
    return handle.server.counters["answered_on_loop"]


def served(handle, client, oid, **range_):
    """One served read: its bytes and whether the loop answered it."""
    answered = on_loop(handle)
    data = client.read(oid, **range_)
    return data, on_loop(handle) - answered


def test_a_current_read_is_answered_while_the_only_worker_is_busy(fs, tmp_path):
    handle = serve_in_thread(
        fs, ServeConfig(unix_path=str(tmp_path / "busy.sock"), max_workers=1))
    release = threading.Event()
    original_search = fs.search_text

    def slow_search(text, limit=None):
        release.wait(10)
        return original_search(text, limit=limit)

    try:
        with Client(handle.address) as client:
            oid = client.create(b"warm content")
            assert client.read(oid) == b"warm content"  # fills the memo
        fs.search_text = slow_search

        async def scenario():
            client = await AsyncClient.connect(handle.address)
            try:
                await client.send_request("search", text="never searched")
                answered = on_loop(handle)
                response = await asyncio.wait_for(client.call("read", oid=oid), timeout=5)
                assert base64.b64decode(response["data_b64"]) == b"warm content"
                assert on_loop(handle) == answered + 1
                release.set()
                blocked = await asyncio.wait_for(client.read_response(), timeout=10)
                assert blocked["ok"] and blocked["results"] == []
            finally:
                release.set()
                await client.close()

        asyncio.run(scenario())
    finally:
        fs.search_text = original_search
        release.set()
        handle.stop()


MUTATIONS = [
    # (name, mutation through the client or the engine, expected bytes)
    ("write", lambda fs, client, oid: client.write(oid, 2, b"XY"), b"abXYefgh"),
    ("append", lambda fs, client, oid: client.append(oid, b"ij"), b"abcdefghij"),
    ("insert", lambda fs, client, oid: fs.insert(oid, 4, b"--"), b"abcd--efgh"),
    ("truncate", lambda fs, client, oid: fs.truncate(oid, 1, 3), b"aefgh"),
    ("resize-shrink", lambda fs, client, oid: fs.resize(oid, 3), b"abc"),
    ("resize-grow", lambda fs, client, oid: fs.resize(oid, 10), b"abcdefgh\0\0"),
    ("delete", lambda fs, client, oid: client.delete(oid), None),
]


@pytest.mark.parametrize("name, mutate, expected", MUTATIONS,
                         ids=[name for name, _, _ in MUTATIONS])
def test_every_content_mutation_retires_the_memoised_bytes(fs, server, name, mutate, expected):
    with Client(server.address) as client:
        oid = client.create(b"abcdefgh")
        assert served(server, client, oid) == (b"abcdefgh", 0)
        assert served(server, client, oid) == (b"abcdefgh", 1)
        mutate(fs, client, oid)
        if expected is None:
            with pytest.raises(RequestError) as excinfo:
                client.read(oid)
            assert excinfo.value.code == "NoSuchObjectError"
            return
        assert served(server, client, oid) == (expected, 0)
        assert served(server, client, oid) == (expected, 1)


def test_sub_ranges_answered_on_the_loop_equal_the_engine_read(fs, server):
    content = bytes(range(256)) * 4
    with Client(server.address) as client:
        oid = client.create(content, index=False)
        client.read(oid)
        ranges = [dict(offset=offset, length=length)
                  for offset in (0, 1, 511, 1023, 1024, 5000)
                  for length in (0, 1, 100, 1024, None)]
        for range_ in ranges:
            data, answered = served(server, client, oid, **range_)
            assert answered == 1, range_
            assert data == fs.read(oid, **range_), range_


def test_a_writers_read_of_its_own_transaction_never_reaches_other_sessions(fs, server):
    with Client(server.address) as client:
        oid = client.create(b"committed bytes")
        assert client.read(oid) == b"committed bytes"
    held, release, seen = threading.Event(), threading.Event(), {}

    def writer():
        with fs.recovery.transaction():
            fs.write(oid, 0, b"UNCOMMITTED")
            # A read of its own uncommitted state: it must leave no memo
            # entry another session could be answered from.
            seen["read"] = fs.read(oid)
            held.set()
            release.wait(10)

    thread = threading.Thread(target=writer)
    thread.start()

    async def scenario():
        client = await AsyncClient.connect(server.address)
        try:
            answered = on_loop(server)
            response = asyncio.ensure_future(client.call("read", oid=oid))
            done, _ = await asyncio.wait({response}, timeout=0.3)
            assert not done  # waits for the engine lock: no memo answer
            release.set()
            data = base64.b64decode((await asyncio.wait_for(response, timeout=10))["data_b64"])
            assert on_loop(server) == answered
            return data
        finally:
            release.set()
            await client.close()

    try:
        assert held.wait(10)
        data = asyncio.run(scenario())
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert seen["read"] == data == b"UNCOMMITTEDytes"


def test_a_poisoned_engine_never_answers_from_the_memo(fs, server):
    with Client(server.address, timeout=5.0) as client:
        oid = client.create(b"soon untrusted")
        assert served(server, client, oid)[0] == b"soon untrusted"
        with pytest.raises(RuntimeError):
            with fs.recovery.transaction():
                fs.tag(oid, "UDEF", "torn")
                raise RuntimeError("abort after logging")
        assert fs.recovery.poisoned
        answered = on_loop(server)
        with pytest.raises(RequestError) as excinfo:
            client.read(oid)
        assert excinfo.value.code == "RecoveryError"
        assert on_loop(server) == answered


def test_a_read_on_the_loop_advances_the_access_time_through_a_remount(fs, server):
    with Client(server.address) as client:
        oid = client.create(b"read often")
        client.read(oid)
        before = fs.stat(oid).accessed_at
        assert served(server, client, oid) == (b"read often", 1)
    after = fs.stat(oid).accessed_at
    assert after > before
    fs.checkpoint()
    image = BlockDevice(num_blocks=fs.device.num_blocks)
    image.load(fs.device.dump())
    mounted = HFADFileSystem.mount(image)
    try:
        assert mounted.stat(oid).accessed_at == after
    finally:
        mounted.close()


def test_only_objects_of_at_most_a_page_are_memoised(fs, server):
    memo = fs.content_cache
    with Client(server.address) as client:
        page = client.create(b"p" * PAGE_BYTES, index=False)
        larger = client.create(b"L" * (PAGE_BYTES + 1), index=False)
        stores = memo.stores
        for _ in range(3):
            assert served(server, client, larger) == (b"L" * (PAGE_BYTES + 1), 0)
        assert memo.stores == stores
        client.read(larger, length=PAGE_BYTES)  # a part is no whole object
        assert memo.stores == stores
        assert served(server, client, page) == (b"p" * PAGE_BYTES, 0)
        assert served(server, client, page) == (b"p" * PAGE_BYTES, 1)
        assert memo.stores == stores + 1


def test_memo_counts_grow_by_one_per_served_read(fs, server):
    memo = fs.content_cache

    def lookups():
        return memo.hits + memo.misses

    with Client(server.address) as client:
        oid = client.create(b"counted", index=False)
        other = client.create(b"other", index=False)
        larger = client.create(b"x" * (PAGE_BYTES + 1), index=False)
        steps = [
            # (read, answered on the loop?)
            (lambda: client.read(oid), False),
            (lambda: client.read(oid), True),
            (lambda: client.read(oid, offset=2, length=3), True),
            (lambda: client.read(oid, offset=99), True),
            (lambda: client.read(larger), False),
            (lambda: client.read(larger), False),
            (lambda: client.append(other, b"!"), None),
            # Stale on the loop (dropped, uncounted), then a miss on a worker.
            (lambda: client.read(oid), False),
            (lambda: client.read(oid), True),
        ]
        for index, (request, loop_answer) in enumerate(steps):
            before, answered = lookups(), on_loop(server)
            request()
            if loop_answer is None:
                continue
            assert lookups() - before == 1, index
            assert on_loop(server) - answered == loop_answer, index
        # The server's stats (``hfad client -c stats``) carry the memo too.
        assert client.stats()["content_cache"] == memo.snapshot()
    assert fs.stats()["content_cache"] == memo.snapshot()


def test_closing_the_filesystem_releases_the_memoised_bytes():
    fs = HFADFileSystem(num_blocks=1 << 14)
    oid = fs.create(b"held until close")
    assert fs.read(oid) == b"held until close"
    assert len(fs.content_cache) == 1
    fs.close()
    assert len(fs.content_cache) == 0


def test_no_result_memo_means_no_content_memo():
    with HFADFileSystem(num_blocks=1 << 14, query_cache_entries=0) as fs:
        oid = fs.create(b"never memoised")
        assert fs.read(oid) == b"never memoised"
        assert fs.content_cache is None and fs.stats()["content_cache"] is None
        assert fs.objects.probe_read(oid) is None
