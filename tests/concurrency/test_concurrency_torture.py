"""Concurrency torture: crash injection composed with real threads.

Writer threads and a query thread hammer one
WAL filesystem whose device is armed to crash after a sampled number of
writes.  Whichever thread issues the fatal write sees ``CrashError``; the
others fail shut behind the poisoned recovery manager.  The audit then
re-mounts the surviving image and checks crash invariants:

* the mount replays to a usable filesystem (no wedged locks, no partial
  transaction visible),
* a full scrub finds nothing torn or quarantined,
* every surviving object is readable and its names resolve back to it,
* operations that *returned* to a writer before the crash are durable
  (commits sync — group_commit=1 — so a returned create is a promise).

Seeds are pinned via ``CONCURRENCY_TORTURE_SEEDS``; each seed samples
several crash points inside the threaded run's write window.  The threaded
schedule is nondeterministic between runs — the point of the exercise is
that the *invariants* hold on every interleaving the scheduler produces.
"""

import os
import random
import threading

import pytest

from repro.core import HFADFileSystem
from repro.errors import RecoveryError
from repro.recovery import CrashError, CrashingBlockDevice

SEEDS = [int(s) for s in
         os.environ.get("CONCURRENCY_TORTURE_SEEDS", "1,2").split(",")]
POINTS_PER_SEED = int(os.environ.get("CONCURRENCY_TORTURE_POINTS", "4"))

WRITERS = 3
DOCS_PER_WRITER = 14

WORDS = (
    "arc bolt crest drift eddy flume gale heath isle knoll ledge moor "
    "notch outcrop pass quarry rill scree tor vale wash yonder"
).split()


def build_fs(device):
    return HFADFileSystem(
        device=device,
        journal_blocks=511, cache_pages=48, query_cache_entries=0,
    )


def make_device():
    return CrashingBlockDevice(num_blocks=1 << 14, block_size=512)


def run_threads(fs, seed, completed):
    """Writers + a querier; returns the errors each thread died with."""
    barrier = threading.Barrier(WRITERS + 1)
    done = threading.Event()
    errors = []

    def writer(writer_id):
        rng = random.Random(seed * 433 + writer_id)
        mine = completed[writer_id]
        barrier.wait()
        try:
            for index in range(DOCS_PER_WRITER):
                words = " ".join(rng.choice(WORDS)
                                 for _ in range(rng.randint(3, 8)))
                content = f"w{writer_id} doc {index} {words}"
                oid = fs.create(
                    content=content.encode(), owner=f"tw{writer_id}",
                    path=f"/tw{writer_id}/doc{index}.txt",
                )
                # The create returned: from here on it must survive a crash.
                mine.append((oid, content))
                if rng.random() < 0.4:
                    fs.tag(oid, "APP", f"topic-{rng.randrange(3)}")
        except Exception as error:  # noqa: BLE001 — audited below
            errors.append(error)

    def querier():
        rng = random.Random(seed * 977)
        barrier.wait()
        try:
            while not done.is_set():
                with fs.read_view():
                    fs.find(("USER", f"tw{rng.randrange(WRITERS)}"))
                    fs.search_text(rng.choice(WORDS))
        except Exception as error:  # noqa: BLE001 — audited below
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(w,))
               for w in range(WRITERS)]
    query_thread = threading.Thread(target=querier)
    for thread in threads:
        thread.start()
    query_thread.start()
    for thread in threads:
        thread.join(timeout=60)
    done.set()
    query_thread.join(timeout=60)
    hung = [t for t in threads + [query_thread] if t.is_alive()]
    assert not hung, f"threads hung after crash: {hung}"
    return errors


def audit_recovery(device, completed):
    mounted = HFADFileSystem.mount(device.surviving_image())
    scrub = mounted.scrub()
    assert scrub.complete, "post-crash scrub did not finish"
    assert scrub.quarantined == 0, f"unrepairable pages: {scrub.errors}"
    assert not scrub.errors, f"scrub errors: {scrub.errors}"
    # Everything that survived is coherent: readable, and its names
    # resolve back to the object.
    for oid in mounted.list_objects():
        content = mounted.read(oid)
        for pair in mounted.names_for(oid):
            if pair.tag == "USER":
                assert oid in mounted.find((pair.tag, pair.value))
        del content
    # Returned operations are durable promises (group_commit=1).
    for writer_id, docs in completed.items():
        live = set(mounted.find(("USER", f"tw{writer_id}")))
        for oid, content in docs:
            assert oid in live, (
                f"committed create of oid {oid} (writer {writer_id}) lost")
            assert mounted.read(oid).decode() == content
    mounted.close()


def measure_writes(seed):
    device = make_device()
    fs = build_fs(device)
    completed = {w: [] for w in range(WRITERS)}
    before = device.stats.writes
    errors = run_threads(fs, seed, completed)
    assert not errors, errors
    fs.close()
    return device.stats.writes - before


@pytest.mark.parametrize("seed", SEEDS)
def test_threaded_crash_points(seed):
    total_writes = measure_writes(seed)
    assert total_writes > 20, "threaded workload too small to sample"
    rng = random.Random(seed * 6007)
    # Sample inside the middle of the write window: the threaded schedule
    # varies run to run, so early/late points might fall outside it.
    low, high = int(total_writes * 0.2), int(total_writes * 0.8)
    points = sorted(rng.sample(range(low, high),
                               min(POINTS_PER_SEED, high - low)))
    crashed = 0
    for point in points:
        device = make_device()
        fs = build_fs(device)
        completed = {w: [] for w in range(WRITERS)}
        device.plan_crash(point,
                          torn_rng=random.Random(point * 31 + seed))
        errors = run_threads(fs, seed, completed)
        if not errors:
            device.disarm()
            continue  # schedule finished before the sampled point
        # Every thread death must be the crash or the fail-shut manager —
        # never a deadlock, never an internal invariant error.
        for error in errors:
            assert isinstance(error, (CrashError, RecoveryError)), error
        crashed += 1
        audit_recovery(device, completed)
    assert crashed > 0, "no sampled point crashed a threaded run"


# ---------------------------------------------------------------------------
# Serving lane: a real asyncio server over a crashing device.
#
# M client coroutines hammer one served filesystem configured with
# group_commit > 1 and the sync_interval_ms idle flush — the configuration
# where an ack is only honest because the write batcher aligns it with WAL
# durability.  The device is armed to crash mid-batch; afterwards the audit
# re-mounts the surviving image and checks the serving-layer invariant:
# every write the server ACKED (ok=true came back over the wire) is durable
# with its exact content.  Errors and shed/unacked requests may be lost —
# the client was told so — but an ack is a promise.
# ---------------------------------------------------------------------------

import asyncio

from repro.errors import ProtocolError, RequestError
from repro.serve import AsyncClient, ServeConfig, serve_in_thread

SERVE_SEEDS = [int(s) for s in
               os.environ.get("SERVING_TORTURE_SEEDS", "11,12").split(",")]
SERVE_POINTS_PER_SEED = int(os.environ.get("SERVING_TORTURE_POINTS", "3"))

SERVE_CLIENTS = 4
DOCS_PER_CLIENT = 20


def build_served_fs(device):
    return HFADFileSystem(
        device=device,
        journal_blocks=511, cache_pages=48, query_cache_entries=0,
        group_commit=4, sync_interval_ms=15.0,
    )


def run_serving_clients(address, seed, acked):
    """M pipeline-free client coroutines; records acked writes per client."""

    async def one_client(cid):
        rng = random.Random(seed * 733 + cid)
        try:
            client = await AsyncClient.connect(address)
        except OSError:
            return
        try:
            for index in range(DOCS_PER_CLIENT):
                words = " ".join(rng.choice(WORDS)
                                 for _ in range(rng.randint(3, 8)))
                content = f"c{cid} doc {index} {words}"
                try:
                    response = await asyncio.wait_for(
                        client.create(content.encode(), owner=f"sc{cid}"),
                        timeout=30)
                except (RequestError, ProtocolError, ConnectionError,
                        OSError, asyncio.TimeoutError):
                    return  # error/shed/dead server: not acked, stop client
                # The server said ok — from here on this write must
                # survive any crash.
                acked[cid].append((response["oid"], content))
                if rng.random() < 0.3:
                    try:
                        await asyncio.wait_for(
                            client.search(rng.choice(WORDS)), timeout=30)
                    except (RequestError, ProtocolError, ConnectionError,
                            OSError, asyncio.TimeoutError):
                        return
        finally:
            await client.close()

    async def scenario():
        await asyncio.gather(*(one_client(cid)
                               for cid in range(SERVE_CLIENTS)))

    asyncio.run(scenario())


def run_served_workload(device, seed, sock_path):
    fs = build_served_fs(device)
    acked = {cid: [] for cid in range(SERVE_CLIENTS)}
    handle = serve_in_thread(
        fs, ServeConfig(unix_path=sock_path, max_workers=4,
                        ack_timeout_s=2.0))
    try:
        run_serving_clients(handle.address, seed, acked)
    finally:
        handle.stop()
        fs.recovery.stop_flusher()
    return fs, acked


def audit_served_recovery(device, acked):
    mounted = HFADFileSystem.mount(device.surviving_image())
    scrub = mounted.scrub()
    assert scrub.complete, "post-crash scrub did not finish"
    assert scrub.quarantined == 0, f"unrepairable pages: {scrub.errors}"
    for cid, docs in acked.items():
        live = set(mounted.find(("USER", f"sc{cid}")))
        for oid, content in docs:
            assert oid in live, (
                f"ACKED create of oid {oid} (client {cid}) lost — the "
                f"serving ack promised durability")
            assert mounted.read(oid).decode() == content
    mounted.close()


@pytest.mark.parametrize("seed", SERVE_SEEDS)
def test_served_crash_points(seed, tmp_path):
    # Measure the uncrashed run's write window first.
    device = make_device()
    before = device.stats.writes
    fs, acked = run_served_workload(device, seed, str(tmp_path / "m.sock"))
    total_writes = device.stats.writes - before
    fs.close()
    assert total_writes > 20, "served workload too small to sample"
    assert sum(len(docs) for docs in acked.values()) == \
        SERVE_CLIENTS * DOCS_PER_CLIENT, "uncrashed run failed writes"

    # Sample inside the served workload: past the writes mkfs makes, which
    # a run with few checkpoints would otherwise let 20 % of the total reach.
    device = make_device()
    before = device.stats.writes
    fs = build_served_fs(device)
    mkfs_writes = device.stats.writes - before
    fs.close()
    served = total_writes - mkfs_writes
    rng = random.Random(seed * 9103)
    low, high = mkfs_writes + int(served * 0.2), mkfs_writes + int(served * 0.8)
    points = sorted(rng.sample(range(low, high),
                               min(SERVE_POINTS_PER_SEED, high - low)))
    crashed = 0
    for point in points:
        device = make_device()
        device.plan_crash(point, torn_rng=random.Random(point * 53 + seed))
        fs, acked = run_served_workload(
            device, seed, str(tmp_path / f"p{point}.sock"))
        if not device.dead:
            device.disarm()
            fs.close()
            continue  # schedule finished before the sampled point
        crashed += 1
        audit_served_recovery(device, acked)
    assert crashed > 0, "no sampled point crashed a served run"
