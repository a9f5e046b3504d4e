"""Self-tests of the benchmark (``python -m pytest perfbench/tests -q``).

Not collected by the repository's tier-1 run, which only looks in ``tests/``.
"""

import asyncio
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import time

import pytest

from perfbench import gen, harness, loadgen
from perfbench.oracle import WRITE_KINDS
from perfbench.stats import ROOT, contract, percentile, tail

RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args):
    done = subprocess.run(RUN + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_small_scale_runs_everything_without_a_failed_op():
    began = time.monotonic()
    subprocess.run(RUN + ["--seconds", "1", "--seed", "3"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    assert time.monotonic() - began < 40
    with open(os.path.join(ROOT, "perfbench", "out", "result.json")) as handle:
        results = json.load(handle)["workloads"]
    spec = contract()
    assert list(results) == [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    expected = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in expected + list(results))
    for workload, result in results.items():
        assert result["failed"] == 0 and result["correct"], workload
        assert list(result["metrics"]) == expected
        for name, metric in result["metrics"].items():
            assert metric["unit"], name
        for metric in spec["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, (workload, metric)
        assert os.path.exists(os.path.join(ROOT, "perfbench", "out",
                                           f"trace_{workload}.json"))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_op_lists_depend_on_the_seed_and_nothing_else(workload):
    first, again, other = (gen.plan(workload, seed, 1) for seed in (1, 1, 2))
    assert pickle.dumps(first) == pickle.dumps(again)
    assert first.ops != other.ops


@pytest.mark.parametrize("workload", ["ingest", "query_cold"])
def test_counter_metrics_repeat_exactly_on_engine_direct_workloads(workload):
    first, second = (run("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", "1")["metrics"] for _ in range(2))
    for name in harness.COUNTER_METRICS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["trace.overhead_ratio"]["value"] > 0
    first, second = (run("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", "0")["metrics"] for _ in range(2))
    for name in ("wal_bytes_per_user_byte", "device_blocks_written_per_op",
                 "stored_bytes_per_user_byte"):
        assert first[name]["value"] == second[name]["value"], name


def test_contract_run_length_supports_every_reported_percentile():
    seconds = contract()["run_seconds"]
    for workload in gen.WORKLOADS:
        ops = [op for conn in gen.plan(workload, 1, seconds).ops for op in conn]
        writes = sum(op[0] in WRITE_KINDS for op in ops)
        # p95 with at least ten samples beyond it
        assert min(writes, len(ops) - writes) >= 200, workload


def test_percentile_refuses_a_tail_of_fewer_than_ten_samples():
    samples = sorted(range(199))
    with pytest.raises(ValueError):
        percentile(samples, 95)
    assert percentile(sorted(range(200)), 95) == 189
    assert percentile(samples, 50) == 99
    assert tail(samples, 95) == 188          # the highest with ten beyond
    assert tail(sorted(range(15)), 95) == 7  # too short for any tail: the median


def test_more_than_400_distinct_reads_between_checkpoints_is_refused():
    reads = [("read", doc) for doc in range(401)]
    direct = gen.Plan("query_cold", 1, [], [reads])
    harness.check_envelope(direct)                      # a checkpoint after 400 ops
    with pytest.raises(harness.HazardError):
        harness.check_envelope(direct, checkpoint_every=1000)
    with pytest.raises(harness.HazardError):            # no checkpoint until close()
        harness.check_envelope(gen.Plan("serve_closed", 1, [], [reads[:200], reads[200:]]))
    harness.check_envelope(gen.Plan("serve_closed", 1, [], [reads[:200], reads[:200]],
                                    warmup=reads[:400]))


class StallingClient:
    """A pipelining client whose server answers at once, except that it
    answers nothing between ``stall`` and ``resume`` (loop time)."""

    def __init__(self, stall, resume):
        self.stall, self.resume = stall, resume
        self.ids = itertools.count(1)
        self.sent = asyncio.Queue()

    async def send_request(self, op, **fields):
        rid = next(self.ids)
        self.sent.put_nowait(rid)
        return rid

    async def read_response(self):
        rid = await self.sent.get()
        now = asyncio.get_running_loop().time()
        if self.stall <= now < self.resume:
            await asyncio.sleep(self.resume - now)
        return {"id": rid, "ok": True}


def test_open_loop_charges_a_stall_to_the_requests_due_during_it():
    schedule = [0.01 * i for i in range(100)]   # one request every 10 ms
    # Margins of 0.1 s: the box this runs on stalls for that long now and then.

    async def scenario():
        start = asyncio.get_running_loop().time()
        clients = [StallingClient(start + 0.2, start + 0.7) for _ in range(2)]
        wires = [[("read", {"oid": 1})] * 50 for _ in range(2)]
        return await loadgen.open_loop(clients, wires, schedule, timeout=2.0, inflight=32)

    load = asyncio.run(scenario())
    for i, due in enumerate(schedule):
        latency = load.latency[i % 2][i // 2]
        if 0.21 <= due < 0.55:
            # due while the server was silent: waited until it resumed
            assert latency >= 0.7 - due - 0.02, (due, latency)
        elif due < 0.15 or due > 0.8:
            assert latency < 0.1, (due, latency)
    assert len(load.late) == len(schedule) and max(load.late) < 0.1


def test_closed_loop_keeps_the_window_full_and_matches_replies_by_id():
    async def scenario():
        clients = [StallingClient(0, 0)]
        wires = [[("tag", {"oid": n, "tag": "UDEF", "value": "v"}) for n in range(50)]]
        return await loadgen.closed_loop(clients, wires, window=8, timeout=1.0)

    load = asyncio.run(scenario())
    assert all(response["id"] == n + 1 for n, response in enumerate(load.responses[0]))
    assert load.key_conflicts == 0


def test_closed_loop_carries_on_where_an_earlier_segment_stopped():
    async def scenario():
        clients = [StallingClient(0, 0)]
        wires = [[("read", {"oid": n}) for n in range(20)]]
        await loadgen.closed_loop(clients, wires, window=4, timeout=1.0)
        return await loadgen.closed_loop(clients, wires, window=4, timeout=1.0, first_id=21)

    load = asyncio.run(scenario())
    assert [response["id"] for response in load.responses[0]] == list(range(21, 41))
    assert all(latency is not None for latency in load.latency[0])


def test_open_loop_percentiles_are_the_median_over_slices_of_the_run():
    # 1,000 reads of 1 ms and 1,000 writes of 5 ms, except that one stall
    # makes a tenth of the run (inside one slice of five) take 100 ms.
    samples = [(100.0 if 400 <= n < 600 else 5.0 if n % 2 else 1.0, bool(n % 2))
               for n in range(2000)]
    verdict = harness.Verdict(2000, 0, 2000, [], 0, samples, [], [])
    pooled = harness.latency_percentiles(verdict, 1)
    sliced = harness.latency_percentiles(verdict, 5)
    assert pooled["read_p95_ms"] == pooled["write_p95_ms"] == 100.0
    assert sliced == {"read_p50_ms": 1.0, "read_p95_ms": 1.0,
                      "write_p50_ms": 5.0, "write_p95_ms": 5.0}
