"""E15 — the serving front end: concurrency vs throughput, and what
group-commit alignment buys.

Two questions, answered over a real server on a unix socket:

* **Closed-loop scaling** — M synchronous clients (one thread each, one
  request in flight per client) run a create/search mix against one served
  engine.  Reported per client count: throughput, p50/p95 request latency,
  WAL syncs.  The session layer's job is to keep aggregate throughput
  growing (or flat) as clients pile on — not to collapse under its own
  queueing.

* **Group-commit ablation** — the same concurrent write workload against
  ``group_commit=1`` (sync every commit) and ``group_commit=8`` with the
  ``sync_interval_ms`` idle flush (acks aligned by the write batcher).
  Reported: WAL syncs per acknowledged write.  The claim under test: with
  ≥4 concurrent writers the batched server acknowledges the same durable
  writes with measurably fewer journal syncs — concurrency is what fills
  the batches, and the idle flush is what keeps a straggler's ack bounded
  instead of stranded.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

from repro.core import HFADFileSystem
from repro.serve import Client, ServeConfig, serve_in_thread

from conftest import emit_table, record_metric, scaled

CLIENT_COUNTS = scaled((1, 2, 4, 8), (1, 2, 4))
OPS_PER_CLIENT = scaled(60, 10)
ABLATION_CLIENTS = 4
ABLATION_OPS = scaled(40, 10)

WORDS = ("serve batch ack durable flush session scope shard "
         "pipeline latency").split()


def _make_served_fs(group_commit, sync_interval_ms):
    fs = HFADFileSystem(
        num_blocks=1 << 16, btree_on_device=True,
        journal_blocks=511, query_cache_entries=0,
        group_commit=group_commit, sync_interval_ms=sync_interval_ms,
    )
    sock_dir = tempfile.mkdtemp(prefix="hfad-bench-")
    handle = serve_in_thread(
        fs, ServeConfig(unix_path=os.path.join(sock_dir, "bench.sock"),
                        max_workers=4))
    return fs, handle


def _closed_loop(address, clients, ops_per_client, write_ratio=0.5):
    """Threads of synchronous clients; returns (latencies_s, elapsed_s, acked)."""
    latencies = [[] for _ in range(clients)]
    acked = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def run_client(cid):
        with Client(address) as client:
            barrier.wait()
            for index in range(ops_per_client):
                word = WORDS[(cid + index) % len(WORDS)]
                started = time.perf_counter()
                if index % 2 < 2 * write_ratio:
                    client.create(
                        f"c{cid} op {index} {word} payload".encode(),
                        owner=f"bench{cid}")
                    acked[cid] += 1
                else:
                    client.search(word, limit=10)
                latencies[cid].append(time.perf_counter() - started)

    threads = [threading.Thread(target=run_client, args=(cid,))
               for cid in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    flat = sorted(lat for per_client in latencies for lat in per_client)
    return flat, elapsed, sum(acked)


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


def test_closed_loop_scaling():
    rows = []
    for clients in CLIENT_COUNTS:
        fs, handle = _make_served_fs(group_commit=8, sync_interval_ms=None)
        try:
            latencies, elapsed, acked = _closed_loop(
                handle.address, clients, OPS_PER_CLIENT)
            total_ops = clients * OPS_PER_CLIENT
            syncs = fs.recovery.journal.syncs
            throughput = total_ops / elapsed if elapsed else 0.0
            rows.append((
                clients, total_ops, f"{throughput:.0f}",
                f"{_percentile(latencies, 0.5) * 1e3:.2f}",
                f"{_percentile(latencies, 0.95) * 1e3:.2f}",
                syncs,
            ))
            record_metric(f"clients_{clients}", {
                "ops": total_ops,
                "throughput_ops_s": round(throughput, 1),
                "p50_ms": round(_percentile(latencies, 0.5) * 1e3, 3),
                "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
                "wal_syncs": syncs,
                "acked_writes": acked,
            })
            assert acked == sum(
                1 for index in range(OPS_PER_CLIENT) if index % 2 < 1
            ) * clients
        finally:
            handle.stop()
            fs.close()
    emit_table(
        "E15a — closed-loop clients vs served throughput (group_commit=8)",
        ("clients", "ops", "ops/s", "p50 ms", "p95 ms", "wal syncs"),
        rows,
    )


def test_group_commit_ablation():
    rows = []
    syncs_per_ack = {}
    for label, group_commit in (("sync-every-commit", 1), ("batched", 8)):
        fs, handle = _make_served_fs(
            group_commit=group_commit, sync_interval_ms=None)
        try:
            latencies, elapsed, acked = _closed_loop(
                handle.address, ABLATION_CLIENTS, ABLATION_OPS,
                write_ratio=1.0)
            syncs = fs.recovery.journal.syncs
            per_ack = syncs / acked if acked else float("inf")
            syncs_per_ack[label] = per_ack
            rows.append((
                label, group_commit, acked, syncs, f"{per_ack:.3f}",
                f"{_percentile(latencies, 0.95) * 1e3:.2f}",
            ))
            record_metric(f"ablation_{label}", {
                "group_commit": group_commit,
                "acked_writes": acked,
                "wal_syncs": syncs,
                "syncs_per_ack": round(per_ack, 4),
                "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
            })
        finally:
            handle.stop()
            fs.close()
    emit_table(
        f"E15b — WAL syncs per acked write ({ABLATION_CLIENTS} writers)",
        ("mode", "group_commit", "acked", "wal syncs", "syncs/ack", "p95 ms"),
        rows,
    )
    # The acceptance claim: concurrent batched serving shares WAL syncs.
    assert syncs_per_ack["batched"] < syncs_per_ack["sync-every-commit"], (
        f"batched serving did not reduce syncs per acked write: "
        f"{syncs_per_ack}")
