"""Randomized concurrent-vs-serial equivalence.

N writer threads and M query threads run against one WAL filesystem; the
suite proves two things:

* **Snapshot answers are serializable.**  Every query runs inside a read
  view, and every answer must equal the answer some *serial prefix* of
  that writer's operation log would give: writers create documents in
  strictly increasing sequence, so a view that returns ``c`` documents for
  a writer must return exactly documents ``0..c-1`` — no torn view can
  show document 7 without document 6.  Repeating the query inside the same
  view must return the identical answer (generation stability).

* **The final state is bit-identical to a serial replay.**  After the
  threads join, the same per-writer operation logs are replayed
  single-threaded into a fresh filesystem; boolean queries, ranked
  queries (scores included) and object contents must agree exactly —
  also when the posting backlog settles every few documents while the
  threads run.

Seeds are pinned via ``CONCURRENCY_SEEDS`` (comma-separated) so the CI
torture lane replays known interleaving-rich schedules.
"""

import os
import random
import threading

import pytest

from repro.core import HFADFileSystem
from repro.fulltext import persistent_index

SEEDS = [int(s) for s in os.environ.get("CONCURRENCY_SEEDS", "1,2").split(",")]

WORDS = (
    "amber basalt cedar dune ember fjord grove harbor inlet juniper krill "
    "lagoon mesa nectar opal pumice quartz ridge summit tundra umber vale"
).split()

WRITERS = 3
DOCS_PER_WRITER = 18
QUERY_THREADS = 2


def make_fs(**overrides):
    options = dict(
        num_blocks=1 << 16,
        query_cache_entries=0,
    )
    options.update(overrides)
    return HFADFileSystem(**options)


def writer_ops(seed, writer_id):
    """The deterministic operation log of one writer (used live and replayed)."""
    rng = random.Random(seed * 1009 + writer_id)
    ops = []
    for index in range(DOCS_PER_WRITER):
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 10)))
        ops.append(("create", index, f"w{writer_id} doc {index} {words}"))
        if index >= 2 and rng.random() < 0.4:
            target = rng.randrange(index)
            ops.append(("append", target, f" extra {rng.choice(WORDS)}"))
        if rng.random() < 0.3:
            ops.append(("tag", index, f"topic-{rng.randrange(4)}"))
    return ops


def apply_ops(fs, writer_id, ops, track=None):
    oids = {}
    for op, index, arg in ops:
        if op == "create":
            oid = fs.create(
                content=arg.encode(), owner=f"w{writer_id}",
                path=f"/w{writer_id}/doc{index}.txt",
            )
            oids[index] = oid
            fs.tag(oid, "UDEF", f"w{writer_id}-doc{index}")
        elif op == "append":
            fs.append(oids[index], arg.encode())
        elif op == "tag":
            fs.tag(oids[index], "APP", arg)
        if track is not None:
            track.append((op, index))
    return oids


def doc_label(fs, oid):
    """The document's stable identity (creation-order independent)."""
    labels = [pair.value for pair in fs.names_for(oid)
              if pair.tag == "UDEF" and pair.value.startswith("w")]
    assert len(labels) == 1, f"oid {oid} has UDEF names {labels}"
    return labels[0]


def state_fingerprint(fs):
    """Everything observable, keyed by stable labels instead of oids."""
    fingerprint = {}
    for writer_id in range(WRITERS):
        for oid in fs.find(("USER", f"w{writer_id}")):
            label = doc_label(fs, oid)
            names = sorted(
                f"{pair.tag}/{pair.value}" for pair in fs.names_for(oid)
                if pair.tag in ("USER", "UDEF", "APP"))
            fingerprint[label] = (fs.read(oid).decode(), names)
    return fingerprint


def query_fingerprint(fs):
    """Boolean and ranked answers, mapped to stable labels."""
    out = {}
    for word in WORDS[:8]:
        out[f"search:{word}"] = sorted(
            doc_label(fs, oid) for oid in fs.search_text(word))
        out[f"rank:{word}"] = sorted(
            (doc_label(fs, hit.doc_id), round(hit.score, 9))
            for hit in fs.rank(word, limit=None))
    for topic in range(4):
        out[f"topic:{topic}"] = sorted(
            doc_label(fs, oid) for oid in fs.find(("APP", f"topic-{topic}")))
    return out


# The second arm settles the posting backlog every few documents, so deferred
# posting application races the writers and readers too; the default
# threshold never trips on a corpus this small.
@pytest.mark.parametrize("seed,settle_keys", [
    pytest.param(seed, keys, id=f"{seed}{label}")
    for seed in SEEDS
    for keys, label in ((persistent_index.SETTLE_KEYS, ""), (16, "-settle16"))
])
def test_concurrent_matches_serial_replay(seed, settle_keys, monkeypatch):
    monkeypatch.setattr(persistent_index, "SETTLE_KEYS", settle_keys)
    fs = make_fs()
    logs = {w: writer_ops(seed, w) for w in range(WRITERS)}
    barrier = threading.Barrier(WRITERS + QUERY_THREADS)
    done = threading.Event()
    errors = []

    def writer(writer_id):
        barrier.wait()
        try:
            apply_ops(fs, writer_id, logs[writer_id])
        except Exception as error:  # noqa: BLE001 — surfaced after join
            errors.append(("writer", writer_id, error))

    def querier(thread_id):
        rng = random.Random(seed * 31 + thread_id)
        barrier.wait()
        try:
            while not done.is_set():
                writer_id = rng.randrange(WRITERS)
                with fs.read_view():
                    first = fs.find(("USER", f"w{writer_id}"))
                    again = fs.find(("USER", f"w{writer_id}"))
                    # generation stability inside one view
                    assert first == again, (first, again)
                    # serial-prefix proof: a view with c documents shows
                    # exactly documents 0..c-1 — creation is in sequence
                    # and each create transaction is atomic.
                    indexes = sorted(
                        int(fs.read(oid).decode().split()[2]) for oid in first)
                    assert indexes == list(range(len(first))), indexes
        except Exception as error:  # noqa: BLE001 — surfaced after join
            errors.append(("querier", thread_id, error))

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)]
    threads += [threading.Thread(target=querier, args=(q,))
                for q in range(QUERY_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads[:WRITERS]:
        thread.join()
    done.set()
    for thread in threads[WRITERS:]:
        thread.join()
    assert not errors, errors
    if settle_keys == 16:
        assert fs.stats()["persistent_index"]["fulltext_settles"] > 5

    monkeypatch.undo()  # the reference replay settles only at its checkpoint
    serial = make_fs()
    for writer_id in range(WRITERS):
        apply_ops(serial, writer_id, logs[writer_id])

    assert state_fingerprint(fs) == state_fingerprint(serial)
    assert query_fingerprint(fs) == query_fingerprint(serial)
    # The WAL engine must come out healthy, not just equal: a checkpoint
    # (full quiescence) still works after the concurrent episode.
    fs.checkpoint()
    fs.close()
    serial.close()
