"""Seeded input generator: the engine sees nothing but what this emits.

Every op list is a pure function of ``(workload, seed, seconds)`` and is
built in full before a measured phase starts.  ``repro.workloads`` is not
used: its 25-word body vocabulary makes every posting list the whole corpus.

Vocabulary: 4,000 tokens ``t0000..t3999`` (no stop words, no stemmable
suffixes) drawn Zipf(s=1.05); a token's frequency rank and its place in name
order are unrelated, as for real words.  (Named in rank order, the frequent
terms' dictionary records share a few B-tree leaves, whose sizes freeze —
once the vocabulary has been seen — wherever the seed's first splits left
them: WAL bytes per user byte then differ by ±12 % from seed to seed, against
±1.5 % this way.)  A document has a body of 40-200 tokens and
five names: an owner out of 16 users, ``PROJECT`` out of 200 values,
``KIND`` out of 4, ``YEAR`` out of 10, and the path ``/c/<kind>/d<i>``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List

from perfbench.oracle import Oracle

WORKLOADS = ("ingest", "query_cold", "serve_closed", "serve_open")

#: by frequency rank; 1237 is coprime to 4,000, so every name is used once.
VOCAB = [f"t{(rank * 1237 + 571) % 4000:04d}" for rank in range(4000)]
_CUM_WEIGHTS = list(itertools.accumulate(1.0 / (rank + 1) ** 1.05
                                         for rank in range(len(VOCAB))))
USERS, PROJECTS, KINDS, YEARS = 16, 200, 4, 10
KV_TAGS = ("PROJECT", "KIND", "YEAR")

#: served reads and label writes target this many objects, so that a clean
#: ``close()`` flushes a bounded number of access times (see README, "known
#: engine issues").
HOT_SET = 256
QUERY_POOL = 32
CONNECTIONS = 2
OPEN_LOOP_RATE = 400.0  # requests per second

#: operations per second of ``--seconds``.  A run executes a *fixed* number
#: of operations, so that counters repeat exactly; these rates size it to
#: last about ``--seconds`` on the 2-core reference box.
OPS_PER_SECOND = {
    "ingest": 45,           # iterations of create + read + find (+ extras)
    "query_cold": 800,
    # The served workloads leave checkpoints to the journal, which takes one
    # whenever 1 MB of WAL (half its 511 blocks) has gathered, at ~730 bytes
    # a write.  A run that ends where the next is about to fall due counts
    # its blocks or not as the seed decides (device_blocks_written_per_op
    # then comes in two clusters, 20 % apart closed and 45 % open), so
    # these sizes end 2.5 and 1.5 checkpoints in at --seconds 7.
    "serve_closed": 1050,   # per connection
    # Three times as long as the others, too, because queueing delays come
    # in clumps: an open loop's percentiles need more requests than a closed
    # loop's to settle.
    "serve_open": 3 * OPEN_LOOP_RATE,
}


def size(workload: str, seconds: float) -> int:
    return max(8, round(OPS_PER_SECOND[workload] * seconds))


@dataclass
class Plan:
    workload: str
    seed: int
    #: the op list that builds the base image B (``ingest``'s measured ops).
    base_ops: List[tuple]
    #: measured ops: one list per load-generating connection (one in all for
    #: the engine-direct workloads).
    ops: List[List[tuple]]
    #: open loop only: when each request is due, seconds from the start; the
    #: i-th request is ``ops[i % CONNECTIONS][i // CONNECTIONS]``.
    schedule: List[float] = field(default_factory=list)
    #: served only: ops that warm the caches through the server.
    warmup: List[tuple] = field(default_factory=list)

    @property
    def served(self) -> bool:
        return self.workload.startswith("serve_")

    def quarter(self) -> "Plan":
        """The first quarter of every op list (what the traced pass runs)."""
        ops = [conn[:max(1, len(conn) // 4)] for conn in self.ops]
        return Plan(self.workload, self.seed, self.base_ops, ops,
                    self.schedule[:sum(map(len, ops))], self.warmup)


class _Source:
    def __init__(self, seed: int, stream: str) -> None:
        self.rng = random.Random(f"{seed}/{stream}")

    def words(self, count: int) -> List[str]:
        return self.rng.choices(VOCAB, cum_weights=_CUM_WEIGHTS, k=count)

    def text(self, count: int) -> str:
        return " ".join(self.words(count))


def _ingest(seed: int, seconds: float, model: Oracle) -> List[tuple]:
    src = _Source(seed, "ingest")
    rng = src.rng
    ops: List[tuple] = []
    live: List[int] = []

    def emit(op: tuple) -> None:
        ops.append(op)
        model.apply(op)

    for i in range(size("ingest", seconds)):
        kind = rng.randrange(KINDS)
        emit(("create", i, src.text(rng.randint(40, 200)).encode(),
              f"/c/k{kind}/d{i}", f"u{rng.randrange(USERS)}",
              (f"PROJECT/p{rng.randrange(PROJECTS)}", f"KIND/k{kind}",
               f"YEAR/y{rng.randrange(YEARS)}")))
        live.append(i)
        ops.append(("read", rng.choice(live)))
        ops.append(("find", (f"PROJECT/p{rng.randrange(PROJECTS)}",), 20))
        if i % 10 == 4:
            emit(("append", rng.choice(live), (" " + src.text(20)).encode()))
        if i % 10 == 9:
            doc, value = rng.choice(live), f"l{rng.randrange(8)}"
            emit(("untag" if model.has_label(doc, value) else "tag", doc, value))
        if i % 20 == 19:
            doc = rng.choice(live)
            live.remove(doc)
            emit(("delete", doc))
    return ops


def _query_cold(seed: int, seconds: float, model: Oracle) -> List[tuple]:
    src = _Source(seed, "query_cold")
    rng = src.rng
    live = sorted(model.docs)
    ops: List[tuple] = []
    for _ in range(size("query_cold", seconds)):
        draw = rng.random()
        if draw < 0.25:
            doc = rng.choice(live)
            op = ("untag" if model.has_label(doc, "q") else "tag", doc, "q")
            model.apply(op)
        elif draw < 0.35:
            op = ("read", rng.choice(live))
        elif draw < 0.45:
            op = ("find", (f"PROJECT/p{rng.randrange(PROJECTS)}",
                           f"YEAR/y{rng.randrange(YEARS)}"), 20)
        elif draw < 0.675:
            a, b = src.words(2)
            kind, user = f"k{rng.randrange(KINDS)}", f"u{rng.randrange(USERS)}"
            op = ("query", f"FULLTEXT/{a} AND (KIND/{kind} OR FULLTEXT/{b}) "
                           f"AND NOT USER/{user}", 20, (a, kind, b, user))
        elif draw < 0.90:
            op = ("search", src.text(2), 20)
        else:
            op = ("rank", src.text(3), 10)
        ops.append(op)
    return ops


def _served(plan: Plan, seconds: float, model: Oracle) -> None:
    """Fill in ``ops``/``schedule``/``warmup`` of a served workload.

    Mix per connection: 25 % label writes, 75 % reads (of those 50 % ``read``
    of a hot object, 35 % ``find(PROJECT=x)``, 8 % ``search`` and 7 %
    ``rank`` from a pool of 32 strings).  Connection ``c`` writes only the
    label ``s<c>`` and walks a shuffled ring of the hot objects, tagging on
    even laps and untagging on odd ones: two writes to one (object, label)
    are a whole lap apart, far more than are ever in flight, so their order
    (and the oracle's final state) does not depend on timing.
    """
    src = _Source(plan.seed, plan.workload)
    rng = src.rng
    hot = sorted(model.docs)[:HOT_SET]
    pool = [src.text(2) for _ in range(QUERY_POOL)]
    projects = [(f"PROJECT/p{p}",) for p in range(PROJECTS)]
    plan.warmup = ([("search", text, 20) for text in pool]
                   + [("rank", text, 10) for text in pool]
                   + [("find", pairs, 20) for pairs in projects]
                   + [("read", doc) for doc in hot])
    for conn in range(CONNECTIONS):
        ring = hot[:]
        rng.shuffle(ring)
        ops: List[tuple] = []
        writes = 0
        for _ in range(size(plan.workload, seconds) // (
                CONNECTIONS if plan.workload == "serve_open" else 1)):
            draw = rng.random()
            if draw < 0.25:
                lap, slot = divmod(writes, len(ring))
                ops.append(("untag" if lap % 2 else "tag", ring[slot], f"s{conn}"))
                writes += 1
            elif draw < 0.625:
                ops.append(("read", rng.choice(hot)))
            elif draw < 0.8875:
                ops.append(("find", rng.choice(projects), 20))
            elif draw < 0.9475:
                ops.append(("search", rng.choice(pool), 20))
            else:
                ops.append(("rank", rng.choice(pool), 10))
        plan.ops.append(ops)
    if plan.workload == "serve_open":
        due = 0.0
        for _ in range(sum(map(len, plan.ops))):
            due += rng.expovariate(OPEN_LOOP_RATE)
            plan.schedule.append(due)


def plan(workload: str, seed: int, seconds: float) -> Plan:
    """The complete inputs of one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    model = Oracle()
    base_ops = _ingest(seed, seconds, model)
    result = Plan(workload, seed, base_ops, [])
    if workload == "ingest":
        result.ops.append(base_ops)
    elif workload == "query_cold":
        result.ops.append(_query_cold(seed, seconds, model))
    else:
        _served(result, seconds, model)
    return result
