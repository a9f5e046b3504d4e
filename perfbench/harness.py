"""Runs one workload and turns what happened into the contract's metrics.

One process runs one workload (``run.py`` is that process), so peak RSS, heap
and GC state belong to it alone.  The base image B that three of the four
workloads start from is built by a child process for the same reason.

An untraced run (:func:`run_untraced`) goes: set-up, repeated
``SETUP_REPEATS`` times and timed → ``gc.collect()`` → measured phase, a
fixed op list → peak RSS and counter deltas → crash-image audit → clean
``close()`` → space and mount metrics.  A traced run (:func:`run_traced`)
makes one untraced pass for the counters, then installs ``perfbench.trace``
and replays the first quarter of the op list for the time split.

Times are *scaled* by a yardstick loop interleaved with the measured work
(``perfbench.yardstick`` says why).
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import gc
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import HFADFileSystem
from repro.index import KeyValueIndexStore
from repro.serve import AsyncClient, ServeConfig, serve_in_thread
from repro.storage import BlockDevice
from repro.telemetry import to_jsonable

from perfbench import gen, loadgen, yardstick
from perfbench.oracle import LABEL_TAG, WRITE_KINDS, Oracle, audit, user_bytes
from perfbench.stats import ROOT, percentile, tail

DEVICE_BLOCKS = 1 << 18
#: engine-direct workloads call ``fs.checkpoint()`` this often, inside the
#: measured wall: ``flush_access_times`` logs one page image per distinct
#: object read since the last facade checkpoint, in one transaction, and
#: overflows the journal somewhere between 400 and 1,000 (README, "known
#: engine issues found while sizing").
CHECKPOINT_EVERY = 400
MAX_DISTINCT_READS = 400
SERVED_GROUP_COMMIT = 8
WINDOW = 8                 # closed loop: requests in flight per connection
REPLY_TIMEOUT_S = 2.0
READ_LIMIT_MS, WRITE_LIMIT_MS = 5.0, 25.0
SETUP_REPEATS = 3
MOUNT_REPEATS = 9
#: a closed-loop measured phase pauses for a yardstick spin this often (the
#: served one, which must drain its connections first, every SEGMENT_OPS
#: requests per connection).
SEGMENT_S = 0.1
SEGMENT_OPS = 250
#: the open loop runs its schedule in this many slices, each paced by the
#: mean of OPEN_LOOP_SPINS yardstick spins before it, and its percentiles are
#: the median over the slices: one stall of the host spoils one slice, not
#: the run.
OPEN_LOOP_SLICES = 5
OPEN_LOOP_SPINS = 5
#: ... but never paced slower than this many times the reference: a host at a
#: fifth of its speed must not turn a 21 s schedule into 105 s of the driver's
#: time (the numbers of such a run are lost either way).
MAX_STRETCH = 2.5
OUT_DIR = os.path.join("perfbench", "out")  # relative: unix socket paths are short


#: per-layer metrics that are pure counter arithmetic: on the engine-direct
#: workloads (one caller, no timers) two runs of one seed give identical values.
COUNTER_METRICS = frozenset((
    "serve.batcher.acks_batched_frac", "serve.wal_syncs_per_ack", "serve.shed_frac",
    "core.planner.memo_hit_ratio", "cache.query_cache.hit_ratio",
    "cache.ranked_cache.hit_ratio", "cache.pool.hit_ratio", "cache.pool.misses_per_op",
    "cache.pool.evictions_per_op", "cache.pool.writebacks_per_op",
    "query.postings_scanned_per_query", "query.kv_entries_scanned_per_find",
    "query.docs_scored_per_rank", "query.wand_scored_frac",
    "query.blocks_skipped_per_rank", "btree.page_accesses_per_op",
    "recovery.pages_logged_per_write", "recovery.wal_bytes_per_write",
    "recovery.checkpoints", "recovery.mount_blocks_read",
    "storage.journal.syncs_per_write", "storage.device.blocks_read_per_op",
    "storage.device.write_requests_per_op", "integrity.verifications_per_op",
))


class HazardError(RuntimeError):
    """The harness left the envelope the engine is known to survive."""


# ---------------------------------------------------------------- engine

def mkfs() -> HFADFileSystem:
    fs = HFADFileSystem(num_blocks=DEVICE_BLOCKS, btree_on_device=True)
    fs.registry.register(KeyValueIndexStore(tags=list(gen.KV_TAGS)))
    return fs


def clone(image: Dict[int, bytes]) -> BlockDevice:
    device = BlockDevice(num_blocks=DEVICE_BLOCKS)
    device.load(image)
    return device


def call(fs: HFADFileSystem, op: tuple, oids: Dict[int, int]):
    """One op against the engine; returns what the oracle will check."""
    kind = op[0]
    if kind == "read":
        return fs.read(oids[op[1]])
    if kind == "find":
        return fs.find(*op[1], limit=op[2])
    if kind == "create":
        oid = oids[op[1]] = fs.create(op[2], path=op[3], owner=op[4], tags=op[5])
        return oid
    if kind == "tag":
        return fs.tag(oids[op[1]], LABEL_TAG, op[2])
    if kind == "untag":
        return fs.untag(oids[op[1]], LABEL_TAG, op[2])
    if kind == "query":
        return fs.query(op[1], limit=op[2])
    if kind == "search":
        return fs.search_text(op[1], limit=op[2])
    if kind == "rank":
        return [(hit.doc_id, hit.score) for hit in fs.rank(op[1], limit=op[2])]
    if kind == "append":
        return fs.append(oids[op[1]], op[2])
    if kind == "delete":
        return fs.delete(oids[op[1]])
    raise ValueError(f"unknown op {kind!r}")


@dataclass
class Outcome:
    """A measured phase: ops in the order the oracle replays them."""
    ops: List[tuple]
    results: list                       # engine answers; an Exception = failed
    latency: List[Optional[float]]      # seconds, scaled; None = never answered
    wall: float                         # scaled (see perfbench.yardstick)
    raw_wall: float                     # as the clock saw it, spins excluded
    spins: List[float]                  # every yardstick spin taken, seconds
    quarter_wall: float = 0.0           # wall when a quarter of the ops were done
    late: Optional[List[float]] = None  # open loop: generator lateness, seconds
    loadgen_cpu: float = 0.0
    key_conflicts: int = 0


def run_direct(fs: HFADFileSystem, ops: List[tuple], oids: Dict[int, int],
               tracer=None) -> Outcome:
    """The engine-direct loop: one caller, facade checkpoints included in the
    wall but not in any latency sample.  Every ``SEGMENT_S`` (and at the
    quarter mark) the loop stops its clock for a yardstick spin and scales
    the segment just finished by the spins on either side of it."""
    results: list = [None] * len(ops)
    latency: List[Optional[float]] = [None] * len(ops)
    quarter = max(1, len(ops) // 4)
    wall = raw_wall = quarter_wall = 0.0
    clock = time.perf_counter
    spins = [yardstick.spin()]
    first, opened = 0, clock()
    for n, op in enumerate(ops):
        if tracer is not None:
            tracer.request = n
        began = clock()
        try:
            results[n] = call(fs, op, oids)
        except Exception as error:  # noqa: BLE001 — a failed op is a result
            results[n] = error
        latency[n] = clock() - began
        if (n + 1) % CHECKPOINT_EVERY == 0:
            fs.checkpoint()
        elapsed = clock() - opened
        if elapsed >= SEGMENT_S or n + 1 == quarter or n + 1 == len(ops):
            spins.append(yardstick.spin())
            scale = yardstick.factor(*spins[-2:])
            for index in range(first, n + 1):
                latency[index] *= scale
            raw_wall += elapsed
            wall += elapsed * scale
            if n + 1 == quarter:
                quarter_wall = wall
            first, opened = n + 1, clock()
    return Outcome(ops, results, latency, wall, raw_wall, spins, quarter_wall)


def check_envelope(plan: gen.Plan, checkpoint_every: int = CHECKPOINT_EVERY) -> None:
    """Refuse an op list that reads more than ``MAX_DISTINCT_READS`` distinct
    objects between two facade checkpoints (served workloads make none until
    ``close()``, so all their reads, warm-up included, count together)."""
    if plan.served:
        spans = [plan.warmup + [op for conn in plan.ops for op in conn]]
    else:
        ops = plan.ops[0]
        spans = [ops[at:at + checkpoint_every] for at in range(0, len(ops), checkpoint_every)]
    for span in spans:
        distinct = len({op[1] for op in span if op[0] == "read"})
        if distinct > MAX_DISTINCT_READS:
            raise HazardError(
                f"{distinct} distinct objects read between checkpoints: the "
                "next flush_access_times would overflow the journal")


def build_base(seed: int, seconds: float) -> Tuple[Dict[int, bytes], Dict[int, int]]:
    """The base image B: the device ``ingest``'s mutations leave after a clean
    ``close()``, and the object id of every document in it."""
    fs = mkfs()
    oids: Dict[int, int] = {}
    mutations = (op for op in gen.plan("ingest", seed, seconds).base_ops
                 if op[0] in WRITE_KINDS)
    for done, op in enumerate(mutations, 1):
        call(fs, op, oids)
        if done % CHECKPOINT_EVERY == 0:
            fs.checkpoint()
    fs.close()
    return fs.device.dump(), oids


_BUILD_BASE = ("import pickle, sys; from perfbench.harness import build_base; "
               "pickle.dump(build_base(int(sys.argv[1]), float(sys.argv[2])), sys.stdout.buffer)")


def base_image(workload: str, seed: int, seconds: float):
    """B from a child process (``None`` for ``ingest``, which starts from mkfs).

    A plain ``subprocess.run``, which has waited for the child when it
    returns; a ``multiprocessing`` spawn context also starts a resource
    tracker that outlives the process that started it."""
    if workload == "ingest":
        return None
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), ROOT])}
    done = subprocess.run([sys.executable, "-c", _BUILD_BASE, str(seed), repr(seconds)],
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return pickle.loads(done.stdout)


#: An idle-priority busy loop: it yields to anything else that can run, and
#: ends when the process that started it is gone.
_IDLER = """
import os, sys
parent = int(sys.argv[1])
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
sys.stdout.write(".")
sys.stdout.flush()
while os.getppid() == parent:
    for _ in range(1000000):
        pass
"""


@contextlib.contextmanager
def vcpus_awake():
    """Keep every vCPU of the box from halting while a served phase runs.

    A served request crosses threads five times, each time waking a thread
    that sleeps on a socket, a lock or a timer; a vCPU with nothing to run
    halts, and how long the host takes to bring a halted vCPU back depends on
    how busy this guest was in the minutes before: the same ``serve_open``
    seed read 1.15-1.2 ms at the median after a quiet minute and 1.5-1.8 ms
    after a busy one, 1.9-2.1 against 2.6-3.7 ms at p95.  With one
    idle-priority busy loop per vCPU nothing halts, and the same runs read
    1.2-1.4 and 2.2-3.1 ms whatever came before (README, "Why the served
    workloads keep the vCPUs awake")."""
    idlers = [subprocess.Popen([sys.executable, "-c", _IDLER, str(os.getpid())],
                               stdout=subprocess.PIPE)
              for _ in os.sched_getaffinity(0)]
    try:
        for idler in idlers:
            idler.stdout.read(1)  # it has lowered its priority, or died trying
        yield
    finally:
        for idler in idlers:
            idler.kill()
        for idler in idlers:
            idler.wait()
            idler.stdout.close()


# ---------------------------------------------------------------- set-up

class Env:
    """Everything a measured phase needs, built by one set-up."""

    def __init__(self, workload: str, seed: int, seconds: float, base,
                 quarter: bool = False, tracer=None) -> None:
        self.plan = gen.plan(workload, seed, seconds)
        if quarter:
            self.plan = self.plan.quarter()
        check_envelope(self.plan)
        self.tracer = tracer
        self.oracle = Oracle()
        self.handle = self.loop = None
        self.clients: List[AsyncClient] = []
        if base is None:
            self.fs, self.oids = mkfs(), {}
        else:
            image, oids = base
            self.oids = dict(oids)
            for op in self.plan.base_ops:
                if op[0] in WRITE_KINDS:
                    self.oracle.apply(op, self.oids[op[1]] if op[0] == "create" else None)
            group_commit = SERVED_GROUP_COMMIT if self.plan.served else 1
            self.fs = HFADFileSystem.mount(clone(image), group_commit=group_commit)
        if self.plan.served:
            self._serve()

    def _serve(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.socket = os.path.join(OUT_DIR, f"serve-{os.getpid()}.sock")
        self.handle = serve_in_thread(self.fs, ServeConfig(unix_path=self.socket))
        if self.tracer is not None:
            self.tracer.server_thread = self.handle.thread.ident
        self.loop = asyncio.new_event_loop()
        self.wires = [[self._wire(op) for op in conn] for conn in self.plan.ops]
        # Warm-up goes through the server on a connection of its own, so the
        # measured connections are fresh (request ids from 1) and exactly two.
        self.loop.run_until_complete(self._warm_up())
        self.clients = [self.loop.run_until_complete(AsyncClient.connect(self.handle.address))
                        for _ in range(gen.CONNECTIONS)]

    def _wire(self, op: tuple) -> loadgen.Wire:
        kind = op[0]
        if kind == "read":
            return "read", {"oid": self.oids[op[1]]}
        if kind == "find":
            return "find", {"pairs": list(op[1]), "limit": op[2]}
        if kind in ("search", "rank"):
            return kind, {"text": op[1], "limit": op[2]}
        if kind in ("tag", "untag"):
            return kind, {"oid": self.oids[op[1]], "tag": LABEL_TAG, "value": op[2]}
        raise ValueError(f"no wire form for {kind!r}")

    async def _warm_up(self) -> None:
        client = await AsyncClient.connect(self.handle.address)
        try:
            for op in self.plan.warmup:
                name, fields = self._wire(op)
                await client.call(name, **fields)
        finally:
            await client.close()

    # -- measured phase -------------------------------------------------------

    def measure(self, window: Optional[int] = None) -> Outcome:
        """Run the op list the workload's own way; with ``window`` given, a
        served workload runs closed-loop with that many requests in flight
        per connection instead (the traced pass uses 1)."""
        if not self.plan.served:
            return run_direct(self.fs, self.plan.ops[0], self.oids, self.tracer)
        with vcpus_awake():
            return self._served(window)

    def _served(self, window: Optional[int]) -> Outcome:
        """A served measured phase, a segment at a time: ``SEGMENT_OPS``
        requests per connection of a closed loop, an ``OPEN_LOOP_SLICES``-th
        of an open loop's schedule.  Between two segments nothing is in
        flight, the yardstick spins, and the segment is scaled like an
        engine-direct one.  The open loop's schedule is in reference seconds:
        each slice is stretched by the spin before it."""
        schedule = self.plan.schedule if window is None else []
        conns, per_conn = len(self.wires), len(self.wires[0])
        size = -(-per_conn // OPEN_LOOP_SLICES) if schedule else SEGMENT_OPS
        pause = OPEN_LOOP_SPINS if schedule else 1
        total = loadgen.Load([[] for _ in self.wires], [[] for _ in self.wires])
        wall = 0.0
        spins = [yardstick.spin(pause)]
        for at in range(0, per_conn, size):
            wires = [wires[at:at + size] for wires in self.wires]
            if schedule:
                origin = schedule[at * conns - 1] if at else 0.0
                stretch = min(spins[-1] / yardstick.REFERENCE_S, MAX_STRETCH)
                run = loadgen.open_loop(
                    self.clients, wires,
                    [(due - origin) * stretch
                     for due in schedule[at * conns:(at + size) * conns]],
                    REPLY_TIMEOUT_S, ServeConfig().max_inflight, first_id=at + 1)
            else:
                run = loadgen.closed_loop(self.clients, wires, window or WINDOW,
                                          REPLY_TIMEOUT_S, first_id=at + 1)
            load = self.loop.run_until_complete(run)
            spins.append(yardstick.spin(pause))
            # At an open loop's low utilisation a request mostly waits for
            # threads to wake up and timers to fire, which takes what it takes
            # whatever the interpreter's speed: its latencies are not scaled.
            scale = 1.0 if schedule else yardstick.factor(*spins[-2:])
            for conn, latencies in enumerate(load.latency):
                total.latency[conn] += [value and value * scale for value in latencies]
                total.responses[conn] += load.responses[conn]
            total.late += [value * scale for value in load.late]
            total.wall += load.wall
            total.cpu += load.cpu
            total.key_conflicts += load.key_conflicts
            # An open-loop slice lasts what its pacing made it last:
            # completions per reference second fall short of the offered
            # rate only with backlog or failures.
            wall += load.wall / stretch if schedule else load.wall * scale
        return self._outcome(total, wall, spins)

    def _outcome(self, load: loadgen.Load, wall: float, spins: List[float]) -> Outcome:
        """Requests in the order they were due: the i-th is number ``i // n``
        on connection ``i % n``.  (Connections write disjoint labels, so the
        oracle may replay them in any interleaving.)"""
        order = [(number, conn) for number in range(len(self.plan.ops[0]))
                 for conn in range(len(self.plan.ops))]
        ops = [self.plan.ops[conn][number] for number, conn in order]
        latency = [load.latency[conn][number] for number, conn in order]
        results = [_answer(op, load.responses[conn][number], seconds)
                   for op, seconds, (number, conn) in zip(ops, latency, order)]
        return Outcome(ops, results, latency, wall, load.wall, spins,
                       late=load.late or None, loadgen_cpu=load.cpu,
                       key_conflicts=load.key_conflicts)

    # -- teardown -------------------------------------------------------------

    def stop_serving(self) -> None:
        if self.handle is None:
            return
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.loop.close()
        # Let the server finish closing its side of the connections first;
        # stopping it mid-close makes asyncio log a cancelled handler task.
        deadline = time.monotonic() + 1.0
        while self.handle.server.stats()["sessions"] and time.monotonic() < deadline:
            time.sleep(0.005)
        asyncio.run_coroutine_threadsafe(asyncio.sleep(0.05), self.handle.loop).result()
        self.handle.stop()
        self.handle = None
        if os.path.exists(self.socket):
            os.remove(self.socket)

    def close(self) -> None:
        """Clean shutdown.  ``fs.close()`` swallows device and recovery
        errors by design; a journal that fills during it does not, and must
        fail the benchmark rather than be skipped."""
        self.stop_serving()
        self.fs.close()
        if self.fs.recovery.poisoned:
            raise RuntimeError("close() left the recovery manager poisoned")


def _answer(op: tuple, response: Optional[dict], latency: Optional[float]):
    """A served reply in the shape ``call`` returns, or the failure it was."""
    if response is None or latency is None:
        return TimeoutError("no reply")
    if latency > REPLY_TIMEOUT_S:
        return TimeoutError(f"reply after {latency:.2f}s")
    if not response.get("ok"):
        return RuntimeError(f"{response.get('code')}: {response.get('error')}")
    kind = op[0]
    if kind == "read":
        return base64.b64decode(response["data_b64"])
    if kind in ("find", "search"):
        return response["results"]
    if kind == "rank":
        return [(hit["oid"], hit["score"]) for hit in response["hits"]]
    if kind == "untag":
        return response["removed"]
    return None


# ---------------------------------------------------------------- counters

def counters(env: Env) -> Dict[str, float]:
    """A flat snapshot of every counter the per-layer ledger reads."""
    stats = to_jsonable(env.fs.stats())
    flat: Dict[str, float] = {}
    # stats() reports a result cache that is merely *empty* as None (its
    # collector tests the cache's truth value), so those two are read direct.
    stats["query_cache"] = env.fs.query_cache.snapshot()
    stats["ranked_cache"] = env.fs.ranked_cache.snapshot()
    for section in ("device", "naming", "planner", "ranked", "query_cache",
                    "ranked_cache", "recovery", "integrity"):
        for key, value in stats[section].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{section}.{key}"] = value
    for key, value in stats["buffer_pool"]["totals"].items():
        flat[f"pool.{key}"] = value
    flat["kv_scanned"] = stats["keyvalue_entries_scanned"]
    flat["postings_scanned"] = stats["fulltext_postings_scanned"]
    flat["lock_wait_us"] = sum(
        kind["lock_wait_us"] for kind in stats["telemetry"]["attribution"].values())
    flat["cpu_s"] = time.process_time()
    flat["gc_collections"] = sum(g["collections"] for g in gc.get_stats())
    if env.handle is not None:
        server = env.handle.server.stats()
        for key in ("requests", "sheds_overload", "sheds_unhealthy"):
            flat[f"serve.{key}"] = server[key]
        for key, value in server["batcher"].items():
            flat[f"batcher.{key}"] = value
    return flat


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# ---------------------------------------------------------------- checking

@dataclass
class Verdict:
    ops: int              # measured ops attempted
    failed_ops: int       # ... of which failed, timed out or answered wrongly
    attempted: int        # ops + audit checks
    failures: List[str]   # one line per failure of either kind
    user_bytes: int       # content + names of acknowledged mutations
    #: every op answered correctly, in op order: (latency in ms, mutation?).
    samples: List[Tuple[float, bool]]
    reads_ms: List[float]    # the same latencies pooled and sorted
    writes_ms: List[float]


def verify(env: Env, outcome: Outcome) -> Verdict:
    """Replay the ops into the oracle; every mismatch is a failed op."""
    failures: List[str] = []
    acknowledged = 0
    samples: List[Tuple[float, bool]] = []
    for op, result, latency in zip(outcome.ops, outcome.results, outcome.latency):
        write = op[0] in WRITE_KINDS
        if isinstance(result, Exception):
            failures.append(f"{op[0]}: {result!r}")
            continue
        if write:
            if op[0] == "untag" and result is not True:
                failures.append(f"untag {op[1:]} removed nothing")
                continue
            env.oracle.apply(op, result)
            acknowledged += user_bytes(op)
        elif not env.oracle.check(op, result):
            failures.append(f"wrong answer to {op[0]} {op[1]!r}")
            continue
        samples.append((latency * 1e3, write))
    if outcome.key_conflicts:
        failures.append(f"{outcome.key_conflicts} writes sent while another "
                        "write to the same (object, label) was in flight")
    return Verdict(len(outcome.ops), len(failures), len(outcome.ops), failures,
                   acknowledged, samples,
                   sorted(ms for ms, write in samples if not write),
                   sorted(ms for ms, write in samples if write))


def audit_crash_image(env: Env, verdict: Verdict, seed: int) -> None:
    """Mount what has reached the device *now* — no close, so the unsynced
    journal tail is lost by construction — and require every acknowledged
    mutation in it."""
    mounted = HFADFileSystem.mount(clone(env.fs.device.dump()))
    checks, wrong = audit(mounted, env.oracle, seed)
    verdict.attempted += checks
    verdict.failures.extend(f"crash image: {what}" for what in wrong)


# ---------------------------------------------------------------- metrics

def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_mounts(image: Dict[int, bytes],
                   repeats: int = MOUNT_REPEATS) -> Tuple[float, int]:
    """Median scaled ``mount`` time over fresh clones, and the blocks one
    mount reads."""
    times, blocks_read = [], 0
    for _ in range(repeats):
        device = clone(image)
        gc.collect()
        before = yardstick.spin(3)
        began = time.perf_counter()
        HFADFileSystem.mount(device)
        elapsed = time.perf_counter() - began
        times.append(elapsed * 1e3 * yardstick.factor(before, yardstick.spin(3)))
        blocks_read = device.stats.blocks_read
    return statistics.median(times), blocks_read


def latency_percentiles(verdict: Verdict, slices: int) -> Dict[str, float]:
    """p50 and p95 of each class: over the pooled samples, or (``slices`` > 1)
    the median of what each of that many consecutive slices of the run gives."""
    columns: Dict[str, List[float]] = {}
    size = -(-len(verdict.samples) // slices)
    for at in range(0, len(verdict.samples), size):
        part = verdict.samples[at:at + size]
        for label, wanted in (("read", False), ("write", True)):
            values = sorted(ms for ms, write in part if write is wanted)
            columns.setdefault(f"{label}_p50_ms", []).append(percentile(values, 50))
            columns.setdefault(f"{label}_p95_ms", []).append(tail(values, 95))
    return {name: statistics.median(values) for name, values in columns.items()}


def end_to_end(setup_s: float, outcome: Outcome, verdict: Verdict,
               moved: Dict[str, float], peak_rss_mb: float, stored_bytes: int,
               live_bytes: int, mount_ms: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_s": (verdict.ops - verdict.failed_ops) / outcome.wall,
        **latency_percentiles(verdict, OPEN_LOOP_SLICES if outcome.late else 1),
        "wal_bytes_per_user_byte": _per(moved["recovery.journal_bytes_appended"],
                                        verdict.user_bytes),
        "device_blocks_written_per_op": _per(moved["device.blocks_written"],
                                             len(outcome.ops)),
        "stored_bytes_per_user_byte": _per(stored_bytes, live_bytes),
        "mount_ms": mount_ms,
        "peak_rss_mb": peak_rss_mb,
    }


def _count(ops: List[tuple], *kinds: str) -> int:
    return sum(op[0] in kinds for op in ops)


def per_layer(outcome: Outcome, verdict: Verdict, moved: Dict[str, float],
              mount_blocks_read: int, traced: Outcome, tracer, layers,
              reference_wall: float) -> Dict[str, float]:
    """The ledger.  Counter metrics (``moved``, latencies) come from the
    untraced pass over the whole op list, time metrics from the traced pass
    over its first quarter; README.md says which end-to-end metric each
    should move, on which workload."""
    ops = len(outcome.ops)
    writes = _count(outcome.ops, *WRITE_KINDS)
    ranks = _count(outcome.ops, "rank")
    t_ops = len(traced.ops)
    t_writes = _count(traced.ops, *WRITE_KINDS)
    t_creates = _count(traced.ops, "create")

    # Everything the traced pass timed, scaled by how that pass as a whole
    # was (its segments' scales, weighted by their length).
    speed = traced.wall / traced.raw_wall

    def self_us(*names: str) -> float:
        return sum(layers.get(name, (0, 0))[1] for name in names) / 1e3 * speed

    def ratio(hits: str, misses: str) -> float:
        return _per(moved[hits], moved[hits] + moved[misses])

    acks = moved.get("batcher.acks_immediate", 0) + moved.get("batcher.acks_batched", 0)
    over_limit = (sum(ms > READ_LIMIT_MS for ms in verdict.reads_ms)
                  + sum(ms > WRITE_LIMIT_MS for ms in verdict.writes_ms))
    checkpoints_ms = [ns / 1e6 * speed for ns in tracer.durations["recovery.checkpoint"]]
    parks_ms = sorted(ns / 1e6 * speed for ns in tracer.durations["serve.batcher"])
    replays_ms = [ns / 1e6 * speed for ns in tracer.durations["recovery.replay"]]
    scored = moved["ranked.documents_scored"]
    return {
        "serve.protocol.self_us_per_op": _per(self_us("serve.protocol"), t_ops),
        "serve.server.self_us_per_op": _per(self_us("serve.server"), t_ops),
        "serve.session.self_us_per_op": _per(self_us("serve.session"), t_ops),
        "loadgen.self_us_per_op": _per(traced.loadgen_cpu * 1e6 * speed, t_ops),
        "serve.batcher.park_ms_p50": percentile(parks_ms, 50) if parks_ms else 0.0,
        "serve.batcher.acks_batched_frac": _per(moved.get("batcher.acks_batched", 0), acks),
        "serve.wal_syncs_per_ack": (_per(moved["recovery.journal_syncs"], acks)),
        "serve.shed_frac": _per(moved.get("serve.sheds_overload", 0)
                                + moved.get("serve.sheds_unhealthy", 0),
                                moved.get("serve.requests", 0)),
        "serve.slo_miss_frac": _per(over_limit + verdict.failed_ops, ops),
        "serve.read_p99_ms": tail(verdict.reads_ms, 99),
        "serve.write_p99_ms": tail(verdict.writes_ms, 99),
        "loadgen.late_p95_ms": (tail(sorted(s * 1e3 for s in outcome.late), 95)
                                if outcome.late else 0.0),
        "core.facade.self_us_per_op": _per(self_us("core.facade"), t_ops),
        "core.naming.self_us_per_op": _per(self_us("core.naming"), t_ops),
        "core.planner.memo_hit_ratio": ratio("planner.memo_hits", "planner.memo_misses"),
        "cache.query_cache.hit_ratio": ratio("query_cache.hits", "query_cache.misses"),
        "cache.ranked_cache.hit_ratio": ratio("ranked_cache.hits", "ranked_cache.misses"),
        "cache.pool.hit_ratio": ratio("pool.hits", "pool.misses"),
        "cache.pool.misses_per_op": _per(moved["pool.misses"], ops),
        "cache.pool.evictions_per_op": _per(moved["pool.evictions"], ops),
        "cache.pool.writebacks_per_op": _per(moved["pool.writebacks"], ops),
        "cache.pool.self_us_per_op": _per(self_us("cache.pool"), t_ops),
        "query.cursors.self_us_per_op": _per(self_us("query.cursors"), t_ops),
        "query.postings_scanned_per_query": _per(
            moved["postings_scanned"], _count(outcome.ops, "query", "search", "rank")),
        "query.kv_entries_scanned_per_find": _per(
            moved["kv_scanned"], _count(outcome.ops, "find", "query")),
        "query.scored.self_ms_per_rank": _per(self_us("query.scored") / 1e3,
                                              _count(traced.ops, "rank")),
        "query.docs_scored_per_rank": _per(scored, ranks),
        "query.wand_scored_frac": _per(scored, scored + moved["ranked.candidates_pruned"]),
        "query.blocks_skipped_per_rank": _per(moved["ranked.blocks_skipped"], ranks),
        "fulltext.index_write_self_ms_per_create": _per(
            self_us("fulltext.write") / 1e3, t_creates),
        "fulltext.analyze_us_per_create": _per(self_us("fulltext.analyze"), t_creates),
        "fulltext.read_self_us_per_query": _per(
            self_us("fulltext.read"), _count(traced.ops, "query", "search", "rank")),
        "index.keyvalue.self_us_per_op": _per(self_us("index.keyvalue"), t_ops),
        "btree.self_us_per_op": _per(self_us("btree"), t_ops),
        "btree.page_accesses_per_op": _per(moved["pool.hits"] + moved["pool.misses"], ops),
        "osd.self_us_per_op": _per(self_us("osd"), t_ops),
        "recovery.pages_logged_per_write": _per(moved["recovery.pages_logged"], writes),
        "recovery.wal_bytes_per_write": _per(moved["recovery.journal_bytes_appended"], writes),
        "recovery.txn_self_us_per_write": _per(self_us("recovery"), t_writes),
        "recovery.checkpoints": moved["recovery.checkpoints"],
        "recovery.checkpoint_ms_total": sum(checkpoints_ms),
        "recovery.checkpoint_ms_max": max(checkpoints_ms, default=0.0),
        "recovery.mount_replay_ms": replays_ms[-1] if replays_ms else 0.0,
        "recovery.mount_blocks_read": mount_blocks_read,
        "storage.journal.self_us_per_write": _per(self_us("storage.journal"), t_writes),
        "storage.journal.syncs_per_write": _per(moved["recovery.journal_syncs"], writes),
        "storage.device.blocks_read_per_op": _per(moved["device.blocks_read"], ops),
        "storage.device.write_requests_per_op": _per(moved["device.writes"], ops),
        "storage.device.self_us_per_op": _per(self_us("storage.device"), t_ops),
        "integrity.verifications_per_op": _per(moved["integrity.checksum_verifications"], ops),
        "integrity.self_us_per_op": _per(self_us("integrity"), t_ops),
        "concurrency.lock_wait_us_per_op": _per(moved["lock_wait_us"], ops),
        "process.cpu_ms_per_op": _per(moved["cpu_s"] * 1e3, ops),
        "process.gc_collections": moved["gc_collections"],
        "trace.overhead_ratio": _per(traced.wall, reference_wall),
        "yardstick.spin_ms": statistics.median(outcome.spins) * 1e3,
    }


# ---------------------------------------------------------------- runs

def _measured_pass(env: Env, seed: int):
    """gc → counters → measured phase → RSS → counters → oracle → audit."""
    gc.collect()
    before = counters(env)
    outcome = env.measure()
    peak_rss_mb = _peak_rss_mb()
    moved = _delta(counters(env), before)
    verdict = verify(env, outcome)
    audit_crash_image(env, verdict, seed)
    return outcome, verdict, moved, peak_rss_mb


def _result(verdict: Verdict, values: Dict[str, float], log) -> dict:
    for line in verdict.failures[:20]:
        print(f"FAILED {line}", file=log)
    return {"correct": not verdict.failures, "attempted": verdict.attempted,
            "failed": len(verdict.failures), "values": values}


def run_untraced(workload: str, seed: int, seconds: float, import_s: float,
                 log=sys.stderr) -> dict:
    base = base_image(workload, seed, seconds)
    env, setups = None, []
    for _ in range(SETUP_REPEATS):
        if env is not None:
            env.close()
        before = yardstick.spin(3)
        began = time.perf_counter()
        env = Env(workload, seed, seconds, base)
        elapsed = time.perf_counter() - began
        setups.append(elapsed * yardstick.factor(before, yardstick.spin(3)))
    outcome, verdict, moved, peak_rss_mb = _measured_pass(env, seed)
    env.close()
    image = env.fs.device.dump()
    mount_ms, _blocks = measure_mounts(image)
    values = end_to_end(
        import_s + statistics.median(setups), outcome, verdict, moved, peak_rss_mb,
        len(image) * env.fs.device.block_size, env.oracle.live_user_bytes(), mount_ms)
    print(f"{workload}: {verdict.ops} ops in {outcome.raw_wall:.2f}s "
          f"({outcome.wall:.2f}s scaled; median yardstick spin "
          f"{statistics.median(outcome.spins) * 1e3:.2f} ms against the reference "
          f"{yardstick.REFERENCE_S * 1e3:.2f}), {len(verdict.reads_ms)} read and "
          f"{len(verdict.writes_ms)} write samples", file=log)
    return _result(verdict, values, log)


def run_traced(workload: str, seed: int, seconds: float, log=sys.stderr) -> dict:
    from perfbench.trace import Tracer

    base = base_image(workload, seed, seconds)
    env = Env(workload, seed, seconds, base)
    outcome, verdict, moved, _rss = _measured_pass(env, seed)
    env.close()
    _ms, mount_blocks_read = measure_mounts(env.fs.device.dump(), repeats=1)
    # What the traced pass is compared with: the same ops, untraced, driven
    # the same way — for the served workloads that is one request in flight
    # per connection, which the full pass does not do.
    reference_wall = outcome.quarter_wall
    if env.plan.served:
        reference = Env(workload, seed, seconds, base, quarter=True)
        reference_wall = reference.measure(window=1).wall
        reference.close()
    tracer = Tracer().install()
    try:
        traced_env = Env(workload, seed, seconds, base, quarter=True, tracer=tracer)
        tracer.reset()  # set-up is not the measured phase
        gc.collect()
        traced = traced_env.measure(window=1)
        layers = tracer.layers()
        traced_verdict = verify(traced_env, traced)
        # Mounting what has reached the device replays the journal tail.
        HFADFileSystem.mount(clone(traced_env.fs.device.dump()))
        traced_env.close()
    finally:
        tracer.uninstall()
    verdict.attempted += traced_verdict.attempted
    verdict.failures.extend(f"traced pass: {line}" for line in traced_verdict.failures)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(ROOT, OUT_DIR, f"trace_{workload}.json"),
                 workload=workload, seed=seed, seconds=seconds, ops=len(traced.ops),
                 wall_s=traced.raw_wall, scaled_wall_s=traced.wall,
                 untraced_scaled_wall_s=reference_wall)
    values = per_layer(outcome, verdict, moved, mount_blocks_read, traced, tracer,
                       layers, reference_wall)
    return _result(verdict, values, log)
