"""End-to-end tests of the serving front end.

A real server over a real engine on a unix socket: operations, session
scope navigation, result paging, pipelining, admission control, ack
semantics and per-session attribution.
"""

import asyncio
import os
import threading

import pytest

from repro.core import HFADFileSystem
from repro.errors import RequestError
from repro.serve import AsyncClient, Client, ServeConfig, serve_in_thread
from repro.serve.session import MAX_PENDING_RESULTS, Session


@pytest.fixture()
def fs():
    fs = HFADFileSystem(
        btree_on_device=True, journal_blocks=511,
        num_blocks=1 << 14, group_commit=4, sync_interval_ms=5.0,
    )
    yield fs
    fs.close()


@pytest.fixture()
def server(fs, tmp_path):
    handle = serve_in_thread(
        fs, ServeConfig(unix_path=str(tmp_path / "hfad.sock"), slow_ms=10_000.0))
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with Client(server.address) as client:
        yield client


def test_full_operation_surface(client):
    assert client.ping()["pong"] is True
    oid = client.create(b"the quick brown fox", owner="margo",
                        annotations=["doc"])
    assert client.read(oid) == b"the quick brown fox"
    assert client.read(oid, offset=4, length=5) == b"quick"
    assert client.write(oid, 0, b"THE") == 3
    assert client.append(oid, b"!") > 0
    assert client.read(oid) == b"THE quick brown fox!"
    client.tag(oid, "UDEF", "keep")
    assert oid in client.find("UDEF/keep")
    assert client.untag(oid, "UDEF", "keep") is True
    assert client.find("UDEF/keep") == []
    assert client.search("quick fox") == [oid]
    assert client.query("USER/margo AND FULLTEXT/fox")["results"] == [oid]
    hits = client.rank("fox")
    assert hits and hits[0]["oid"] == oid
    assert client.health()["status"] == "ok"
    client.delete(oid)
    assert client.find("USER/margo") == []


def test_session_scope_navigation(client):
    margo = client.create(b"beach day", owner="margo")
    client.create(b"beach day", owner="sam")
    assert client.cd("USER/margo") == ["USER/margo"]
    assert client.pwd() == ["USER/margo"]
    # Scope narrows every flavour of lookup to margo's world.
    assert client.search("beach") == [margo]
    assert client.find("FULLTEXT/beach") == [margo]
    assert client.query("FULLTEXT/beach")["results"] == [margo]
    assert client.cd("UDEF/nope") == ["USER/margo", "UDEF/nope"]
    assert client.search("beach") == []
    assert client.up() == ["USER/margo"]
    assert client.cd("/") == []
    assert len(client.search("beach")) == 2
    with pytest.raises(RequestError):
        client.cd("USER/margo AND USER/sam")  # scope is one pair at a time


def test_scope_is_per_session(server):
    with Client(server.address) as first, Client(server.address) as second:
        first.create(b"solo doc", owner="margo")
        first.cd("USER/margo")
        assert first.pwd() == ["USER/margo"]
        assert second.pwd() == []
        assert second.search("solo") == first.search("solo")


def test_result_paging_fetch_and_eviction(client):
    oids = [client.create(b"page doc %d" % i, owner="pager")
            for i in range(10)]
    response = client.query("USER/pager", page=3)
    assert response["results"] == oids[:3]
    assert response["total"] == 10
    rid = response["rid"]
    page = client.fetch(rid, offset=3, count=4)
    assert page["results"] == oids[3:7]
    assert page["total"] == 10
    assert client.fetch(rid, offset=7)["results"] == oids[7:]
    with pytest.raises(RequestError):
        client.fetch(rid + 999)
    # The pending ring is bounded: old rids evict.
    rids = [client.query("USER/pager", page=1)["rid"]
            for _ in range(MAX_PENDING_RESULTS + 2)]
    with pytest.raises(RequestError):
        client.fetch(rid)
    assert client.fetch(rids[-1])["total"] == 10


def test_set_and_session_stats(client):
    out = client.set(slow_ms=0.0, max_inflight=7)
    assert out["slow_ms"] == 0.0 and out["max_inflight"] == 7
    client.search("anything")  # slow_ms=0: everything is slow
    stats = client.session_stats()
    assert stats["slow_queries"] >= 1
    assert stats["max_inflight"] == 7 or stats["slow_ms"] == 0.0


def test_server_stats_sections(client):
    client.ping()
    stats = client.stats("server")
    assert stats["sessions"] == 1
    assert stats["requests"] >= 2
    assert "batcher" in stats
    assert "acks_batched" in stats["batcher"]
    assert client.stats("session")["sid"] == 1
    assert "journal" in client.stats("fs") or "recovery" in client.stats("fs")
    with pytest.raises(RequestError):
        client.stats("nonsense")


def test_unknown_op_and_bad_requests(client):
    with pytest.raises(RequestError) as excinfo:
        client.call("frobnicate")
    assert excinfo.value.code == "unknown_op"
    with pytest.raises(RequestError) as excinfo:
        client.call("read")  # missing oid
    assert excinfo.value.code == "bad_request"
    with pytest.raises(RequestError) as excinfo:
        client.call("write", oid=1, data_b64="!!! not base64 !!!")
    assert excinfo.value.code == "bad_request"
    with pytest.raises(RequestError):
        client.call("find", pairs=[])
    # Engine errors come back typed, and the connection stays usable.
    with pytest.raises(RequestError):
        client.read(999_999)
    assert client.ping()["pong"] is True


def test_mutation_acks_are_durability_promises(fs, client):
    oid = client.create(b"acked means durable", owner="promise")
    journal = fs.recovery.journal
    # The ack implies the WAL already covers the commit marker.
    assert journal.durable_lsn >= journal.last_lsn
    assert oid in client.find("USER/promise")


def test_batched_acks_share_journal_syncs(tmp_path):
    """Four concurrent writers: with ``group_commit=8`` the write batcher
    acknowledges the same durable writes with fewer journal syncs per ack
    than sync-every-commit, which pays at least one each."""
    writers, creates = 4, 10
    syncs_per_ack = {}
    for label, group_commit in (("every-commit", 1), ("batched", 8)):
        fs = HFADFileSystem(
            btree_on_device=True, journal_blocks=511, num_blocks=1 << 15,
            query_cache_entries=0, group_commit=group_commit,
        )
        handle = serve_in_thread(
            fs, ServeConfig(unix_path=str(tmp_path / f"{label}.sock"), max_workers=4))
        acked = [0] * writers
        barrier = threading.Barrier(writers)

        def write(cid):
            with Client(handle.address) as client:
                barrier.wait(timeout=30)
                for index in range(creates):
                    client.create(f"writer {cid} document {index}".encode())
                    acked[cid] += 1

        try:
            threads = [threading.Thread(target=write, args=(cid,))
                       for cid in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert sum(acked) == writers * creates
            syncs_per_ack[label] = fs.recovery.journal.syncs / sum(acked)
        finally:
            handle.stop()
            fs.close()
    assert syncs_per_ack["every-commit"] >= 1.0
    assert syncs_per_ack["batched"] < syncs_per_ack["every-commit"], syncs_per_ack


def test_per_session_attribution(fs, client):
    client.create(b"attributed doc", owner="ledger")
    client.search("attributed")
    kinds = {op["kind"] for op in fs.operations()}
    assert "serve.create" in kinds
    assert "serve.search" in kinds
    record = next(op for op in fs.operations() if op["kind"] == "serve.create")
    assert "session=1" in record["detail"]


def test_pipelined_out_of_order_responses(server):
    async def scenario():
        client = await AsyncClient.connect(server.address)
        try:
            ids = [await client.send_request("ping") for _ in range(8)]
            seen = set()
            for _ in ids:
                response = await client.read_response()
                assert response["ok"]
                seen.add(response["id"])
            assert seen == set(ids)
        finally:
            await client.close()

    asyncio.run(scenario())


def test_admission_control_sheds_overload(fs, tmp_path):
    handle = serve_in_thread(
        fs, ServeConfig(unix_path=str(tmp_path / "shed.sock"),
                        max_inflight=2, max_workers=1))
    release = threading.Event()
    original_search = fs.search_text

    def slow_search(text, limit=None):
        release.wait(10)
        return original_search(text, limit=limit)

    fs.search_text = slow_search
    try:
        async def scenario():
            client = await AsyncClient.connect(handle.address)
            try:
                # Two slow requests fill the in-flight bound; the rest of
                # the burst must be shed immediately, not queued.
                for _ in range(6):
                    await client.send_request("search", text="anything")
                shed = 0
                responses = []
                for _ in range(4):
                    response = await asyncio.wait_for(
                        client.read_response(), timeout=5)
                    responses.append(response)
                    if not response["ok"]:
                        assert response["code"] == "overloaded"
                        shed += 1
                assert shed == 4, responses
                release.set()
                for _ in range(2):
                    response = await asyncio.wait_for(
                        client.read_response(), timeout=10)
                    assert response["ok"], response
            finally:
                release.set()
                await client.close()

        asyncio.run(scenario())
        assert handle.server.counters["sheds_overload"] == 4
    finally:
        fs.search_text = original_search
        release.set()
        handle.stop()


def test_tcp_transport(fs):
    handle = serve_in_thread(fs, ServeConfig(host="127.0.0.1", port=0))
    try:
        host, port = handle.address
        assert port > 0
        with Client((host, port)) as client:
            oid = client.create(b"over tcp", owner="tcp")
            assert client.read(oid) == b"over tcp"
    finally:
        handle.stop()


def test_session_object_directly():
    session = Session(1, peer="test")
    session.enter_scope("USER/margo")
    session.enter_scope("UDEF/beach")
    assert session.scope_strings() == ["USER/margo", "UDEF/beach"]
    assert session.scope_pairs(["APP/mail"]) == \
        ["APP/mail", "USER/margo", "UDEF/beach"]
    with pytest.raises(ValueError):
        session.enter_scope("USER/a OR USER/b")
    rid = session.stash_results(list(range(100)))
    page, total = session.fetch(rid, 10, 5)
    assert page == [10, 11, 12, 13, 14] and total == 100
    assert session.release(rid) is True
    assert session.release(rid) is False
    snapshot = session.snapshot()
    assert snapshot["scope"] == ["USER/margo", "UDEF/beach"]


def test_unix_socket_path_cleanup(fs, tmp_path):
    path = str(tmp_path / "gone.sock")
    handle = serve_in_thread(fs, ServeConfig(unix_path=path))
    assert os.path.exists(path)
    handle.stop()
