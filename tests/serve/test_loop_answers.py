"""Reads answered from the memo on the server's event loop.

A ``find``, ``query``, ``search`` or ``rank`` whose memo entry is current is
answered on the loop, without a worker thread or the engine lock; a stale
or missing entry falls through to the worker pool.  These tests pin what
that may and may not change: answers stay the committed state, a poisoned
engine still refuses, memo counts and attribution records stay one per
request.
"""

import asyncio
import threading

import pytest

from repro.core import HFADFileSystem
from repro.errors import RequestError
from repro.serve import AsyncClient, Client, ServeConfig, serve_in_thread


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
    handle = serve_in_thread(fs, ServeConfig(unix_path=str(tmp_path / "loop.sock")))
    yield handle
    handle.stop()


def on_loop(handle) -> int:
    return handle.server.counters["answered_on_loop"]


def test_a_current_memo_entry_is_answered_while_the_only_worker_is_busy(fs, tmp_path):
    handle = serve_in_thread(
        fs, ServeConfig(unix_path=str(tmp_path / "busy.sock"), max_workers=1))
    release = threading.Event()
    original_search = fs.search_text

    def slow_search(text, limit=None):
        release.wait(10)
        return original_search(text, limit=limit)

    try:
        with Client(handle.address) as client:
            oid = client.create(b"warm document", owner="warm")
            assert client.find("USER/warm") == [oid]  # stores the memo entry
        fs.search_text = slow_search

        async def scenario():
            client = await AsyncClient.connect(handle.address)
            try:
                await client.send_request("search", text="never searched")
                answered = on_loop(handle)
                response = await asyncio.wait_for(
                    client.call("find", pairs=["USER/warm"]), timeout=5)
                assert response["results"] == [oid]
                assert on_loop(handle) == answered + 1
                assert handle.server.stats()["answered_on_loop"] == answered + 1
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


def test_reads_beside_an_open_transaction_answer_the_committed_state(fs, server):
    with Client(server.address, timeout=5.0) as client:
        first = client.create(b"alpha bravo", owner="alice", tags=["UDEF/keep"])
        second = client.create(b"charlie delta", owner="bob")
        # Warm every entry the reads below use, "UDEF/late" while it is empty.
        assert client.find("USER/alice") == [first]
        assert client.search("alpha") == [first]
        assert [hit["oid"] for hit in client.rank("alpha")] == [first]
        assert client.find("UDEF/late") == []

        held, release, failures = threading.Event(), threading.Event(), []

        def writer():
            try:
                with fs.recovery.transaction():
                    fs.tag(second, "UDEF", "late")
                    held.set()
                    release.wait(10)
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert held.wait(10)
            answered = on_loop(server)
            assert client.find("USER/alice") == [first]
            assert client.search("alpha") == [first]
            assert [hit["oid"] for hit in client.rank("alpha")] == [first]
            assert on_loop(server) == answered + 3
        finally:
            release.set()
            thread.join(10)
        assert failures == []

        client.tag(first, "UDEF", "late")  # acked: durable and visible
        answered = on_loop(server)
        # The writer's commit and the served tag moved UDEF's generation, so
        # the stored [] is stale and the worker evaluates the new answer.
        assert client.find("UDEF/late") == [first, second]
        assert on_loop(server) == answered
        assert client.find("UDEF/late") == [first, second]
        assert on_loop(server) == answered + 1


def test_a_writers_reads_of_its_own_transaction_never_reach_other_sessions(fs, server):
    with Client(server.address) as client:
        oid = client.create(b"older words", owner="writer")
        assert client.find("UDEF/late") == []
    held, release, seen = threading.Event(), threading.Event(), {}

    def writer():
        with fs.recovery.transaction():
            fs.tag(oid, "UDEF", "late")
            seen["fresh"] = fs.create(b"fresher words")
            # Reads of its own uncommitted state: they must leave no memo
            # entry another session could be answered from.
            seen["find"] = fs.find("UDEF/late")
            seen["rank"] = [hit.doc_id for hit in fs.rank("fresher")]
            held.set()
            release.wait(10)

    thread = threading.Thread(target=writer)
    thread.start()

    async def scenario():
        client = await AsyncClient.connect(server.address)
        try:
            answered = on_loop(server)
            await client.send_request("find", pairs=["UDEF/late"])
            await client.send_request("rank", text="fresher")

            async def both():
                return [await client.read_response(), await client.read_response()]

            responses = asyncio.ensure_future(both())
            done, _ = await asyncio.wait({responses}, timeout=0.3)
            assert not done  # both wait for the engine lock: no memo answer
            release.set()
            answers = await asyncio.wait_for(responses, timeout=10)
            assert on_loop(server) == answered
            return {("find" if "results" in a else "rank"): a for a in answers}
        finally:
            release.set()
            await client.close()

    try:
        assert held.wait(10)
        answers = asyncio.run(scenario())
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert seen["find"] == answers["find"]["results"] == [oid]
    assert seen["rank"] == [hit["oid"] for hit in answers["rank"]["hits"]] == [seen["fresh"]]


def test_a_poisoned_engine_never_answers_from_the_memo(fs, server):
    with Client(server.address, timeout=5.0) as client:
        oid = client.create(b"soon untrusted", owner="doomed")
        assert client.find("USER/doomed") == [oid]
        with pytest.raises(RuntimeError):
            with fs.recovery.transaction():
                fs.tag(oid, "UDEF", "torn")
                raise RuntimeError("abort after logging")
        assert fs.recovery.poisoned
        answered = on_loop(server)
        with pytest.raises(RequestError) as excinfo:
            client.find("USER/doomed")
        assert excinfo.value.code == "RecoveryError"
        assert on_loop(server) == answered


def test_memo_counts_grow_by_one_per_served_read(fs, server):
    query_cache, ranked_cache = fs.query_cache, fs.ranked_cache

    def lookups(memo):
        return memo.hits + memo.misses

    with Client(server.address) as client:
        for i in range(3):
            client.create(b"counted document %d" % i, owner="counted")
        steps = [
            # (request, memo it consults, answered on the loop?)
            (lambda: client.find("USER/counted", limit=2), query_cache, False),
            # A truncated top-k answer lives under a limit-qualified key: the
            # repeat probes two keys but counts one hit.
            (lambda: client.find("USER/counted", limit=2), query_cache, True),
            (lambda: client.find("USER/counted"), query_cache, False),
            (lambda: client.find("USER/counted"), query_cache, True),
            (lambda: client.create(b"another owner", owner="other"), None, False),
            # Stale on the loop (dropped, uncounted), then one miss on a worker.
            (lambda: client.find("USER/counted"), query_cache, False),
            (lambda: client.search("counted"), query_cache, False),
            (lambda: client.search("counted"), query_cache, True),
            (lambda: client.rank("counted"), ranked_cache, False),
            (lambda: client.rank("counted"), ranked_cache, True),
        ]
        for index, (request, memo, loop_answer) in enumerate(steps):
            before = {id(m): lookups(m) for m in (query_cache, ranked_cache)}
            answered = on_loop(server)
            request()
            for m in (query_cache, ranked_cache):
                grew = lookups(m) - before[id(m)]
                assert grew == (1 if m is memo else 0), (index, grew)
            assert on_loop(server) == answered + loop_answer, index


def test_every_served_read_leaves_one_attribution_record(fs, server):
    with Client(server.address) as client:
        client.create(b"recorded words", owner="recorded")
        for _ in range(3):
            client.find("USER/recorded")
            client.search("recorded")
            client.rank("recorded")
            client.query("USER/recorded OR UDEF/none")
        assert on_loop(server) == 8  # every repeat
    kinds = [op["kind"] for op in fs.operations()]
    for kind in ("serve.find", "serve.search", "serve.rank", "serve.query"):
        assert kinds.count(kind) == 3, kind
    # The nested facade scopes are absorbed into the served record.
    assert "find" not in kinds and "rank" not in kinds
