"""Randomized crash-injection torture: no committed op lost, no torn op leaked.

The contract under test is the one the recovery subsystem exists for:

* every operation that **returned** before the crash (its commit marker is
  durable — ``group_commit=1``) is fully visible after re-mount;
* every operation that did not complete — including whole ``fs.begin()``
  groups — has vanished *atomically* (no half-applied state);
* the re-mounted filesystem passes fsck and answers queries consistently.

The harness replays one deterministic workload per seed, first uncrashed (to
learn how many device writes it issues), then once per sampled crash point:
the device dies on the Nth write — half the time tearing the fatal
multi-block write — the surviving image is re-mounted, and the model state
is audited.  A quarter of the points run a second time with the fatal write
torn *inside* one block.  Across the default seed set this exercises 200+
distinct crash points on 512-byte blocks, where a page spans eight blocks
and its first record after a checkpoint is a full image, and as many on
4 KB blocks, where a page is one block and its first record a delta
against its home; override with ``TORTURE_SEEDS`` / ``TORTURE_POINTS``.

On 512-byte blocks replay rewrites every logged page whole, so a tear
inside a block must pass the full audit too; only a torn superblock may
refuse the mount, by its own CRC.  On 4 KB blocks a tear inside a block
breaks the block-atomic write home deltas assume.  There it must end with
the audit passing or with the damage *surfaced*: the torn page quarantined
at mount while every answer that does not fail is still the model's, or a
mount refusing with an error naming it.  Never silently wrong.
"""

import os
import random
import re

import pytest

from repro.core import HFADFileSystem
from repro.errors import CorruptionError, JournalError, RecoveryError
from repro.recovery import CrashError, CrashingBlockDevice
from repro.recovery.superblock import SUPERBLOCK_BLOCK
from repro.storage.block_device import PAGE_BYTES

SEEDS = [int(s) for s in os.environ.get("TORTURE_SEEDS", "1,2,3,4").split(",")]
POINTS_PER_SEED = int(os.environ.get("TORTURE_POINTS", "55"))
NUM_OPS = 48
#: audit full-text search (and a BM25 spot check) after every re-mount —
#: committed content must stay searchable through the persisted index.
AUDIT_SEARCH = os.environ.get("TORTURE_SEARCH", "1") not in ("", "0")

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor"
).split()


def build_fs(device):
    # The journal must fit the largest single transaction.  With the
    # persistent index, a create/edit logs its posting-tree pages inside the
    # same transaction as the extent and master-tree pages, so the region is
    # sized up from the pre-persistent 127 blocks.
    return HFADFileSystem(
        device=device,
        journal_blocks=511,
        cache_pages=48,
        query_cache_entries=0,
    )


def make_device(block_size=512):
    return CrashingBlockDevice(num_blocks=1 << 14, block_size=block_size)


def make_content(rng, min_words=3, max_words=40):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(min_words, max_words))).encode()


class Model:
    """Ground truth: the state every *completed* operation promised."""

    def __init__(self):
        self.objects = {}      # oid -> {"content", "tags", "paths"}
        self.deleted = set()   # oids whose delete completed
        self.pending = {}      # the op in flight when the crash hit

    def touch(self, kind, *oids):
        self.pending = {"kind": kind, "oids": set(oids)}

    def settle(self):
        self.pending = {}


def run_workload(fs, rng, model):
    """Deterministic op sequence; the model is updated only after each op
    returns (the user-visible durability point)."""
    counter = 0
    txn_serial = 0
    for _step in range(NUM_OPS):
        live = sorted(model.objects)
        roll = rng.random()
        if not live or roll < 0.25:
            counter += 1
            path = f"/f{counter}.txt"
            content = make_content(rng)
            model.touch("create")
            oid = fs.create(content, path=path, annotations=[f"note{counter}"])
            model.objects[oid] = {
                "content": content,
                "tags": {f"UDEF/note{counter}"},
                "paths": {path},
            }
        elif roll < 0.35:
            oid = rng.choice(live)
            extra = make_content(rng, 1, 6)
            model.touch("append", oid)
            fs.append(oid, b" " + extra)
            model.objects[oid]["content"] += b" " + extra
        elif roll < 0.45:
            oid = rng.choice(live)
            state = model.objects[oid]
            offset = rng.randint(0, len(state["content"]))
            blob = make_content(rng, 1, 4)
            model.touch("insert", oid)
            fs.insert(oid, offset, blob)
            state["content"] = state["content"][:offset] + blob + state["content"][offset:]
        elif roll < 0.53:
            oid = rng.choice(live)
            state = model.objects[oid]
            if len(state["content"]) > 4:
                offset = rng.randint(0, len(state["content"]) - 2)
                length = rng.randint(1, len(state["content"]) - offset - 1)
                model.touch("cut", oid)
                fs.truncate(oid, offset, length)
                state["content"] = state["content"][:offset] + state["content"][offset + length:]
        elif roll < 0.65:
            oid = rng.choice(live)
            value = f"v{rng.randint(0, 10 ** 6)}"
            model.touch("tag", oid)
            fs.tag(oid, "UDEF", value)
            model.objects[oid]["tags"].add(f"UDEF/{value}")
        elif roll < 0.72:
            oid = rng.choice(live)
            tags = sorted(model.objects[oid]["tags"])
            if tags:
                doomed = rng.choice(tags)
                value = doomed.split("/", 1)[1]
                model.touch("untag", oid)
                fs.untag(oid, "UDEF", value)
                model.objects[oid]["tags"].discard(doomed)
        elif roll < 0.80:
            oid = rng.choice(live)
            txn_serial += 1
            pair = (f"grp{txn_serial}a", f"grp{txn_serial}b")
            model.touch("txn", oid)
            with fs.begin():
                fs.tag(oid, "UDEF", pair[0])
                fs.tag(oid, "UDEF", pair[1])
            model.objects[oid]["tags"].update({f"UDEF/{p}" for p in pair})
        elif roll < 0.86:
            oid = rng.choice(live)
            counter += 1
            path = f"/link{counter}.txt"
            model.touch("link", oid)
            fs.link_path(path, oid)
            model.objects[oid]["paths"].add(path)
        elif roll < 0.93:
            oid = rng.choice(live)
            model.touch("delete", oid)
            fs.delete(oid)
            del model.objects[oid]
            model.deleted.add(oid)
        else:
            model.touch("checkpoint")
            fs.checkpoint()
        model.settle()


def verify(fs, model):
    """Audit a re-mounted filesystem against the model."""
    pending_kind = model.pending.get("kind")
    pending_oids = model.pending.get("oids", set())
    live = set(fs.list_objects())

    # Extra objects can only come from the one in-flight create.
    extras = live - set(model.objects) - pending_oids
    assert len(extras) <= (1 if pending_kind == "create" else 0), (
        f"unexplained objects after remount: {sorted(extras)} "
        f"(pending={model.pending})"
    )

    for oid, state in model.objects.items():
        if oid in pending_oids:
            # The crash hit mid-operation on this object: content/tags may
            # be either the old or the new version, and an in-flight delete
            # may have reached its commit marker just before the crash
            # surfaced (the object is then legitimately gone — whole).
            if pending_kind != "delete":
                assert oid in live, f"object {oid} lost to an unrelated crash"
            continue
        assert oid in live, f"committed object {oid} lost"
        assert fs.read(oid) == state["content"], f"object {oid} content diverged"
        names = {str(pair) for pair in fs.names_for(oid)}
        missing = state["tags"] - names
        assert not missing, f"object {oid} lost committed names {missing}"
        for path in state["paths"]:
            assert fs.lookup_path(path) == oid, f"path {path} no longer names {oid}"

    for oid in model.deleted:
        if oid in pending_oids:
            continue
        assert oid not in live, f"deleted object {oid} resurrected"

    # In-flight groups must be all-or-nothing.
    if pending_kind == "txn":
        for oid in pending_oids & live:
            names = {str(pair) for pair in fs.names_for(oid)}
            group = sorted(
                name for name in names
                if name.startswith("UDEF/grp") and name not in model.objects.get(oid, {}).get("tags", set())
            )
            suffixes = {name[-1] for name in group}
            assert suffixes in (set(), {"a", "b"}), (
                f"torn namespace group on {oid}: {group}"
            )

    # The USER index answers consistently with the object list.
    found = set(fs.query("USER/root"))
    expected = set(model.objects) - pending_oids
    assert expected <= found <= live | pending_oids

    # The persisted full-text index answers consistently too: every
    # committed object's content is still searchable, and BM25 ranking sees
    # the same postings (spot-checked on one object to bound audit cost).
    if AUDIT_SEARCH:
        ranked_probe_done = False
        for oid in sorted(model.objects):
            if oid in pending_oids:
                continue
            words = model.objects[oid]["content"].decode().split()
            if not words:
                continue
            assert oid in fs.search_text(words[0]), (
                f"committed content of object {oid} not searchable after remount"
            )
            if not ranked_probe_done:
                hits = {hit.doc_id for hit in fs.rank(words[0], limit=None)}
                assert oid in hits, (
                    f"object {oid} missing from BM25 results for {words[0]!r}"
                )
                # Ranked streaming after recovery: WAND top-k over the
                # replayed index must equal exhaustive BM25 exactly.
                engine = fs.fulltext_index.index
                assert fs.rank(words[0], limit=5) == engine.rank_exhaustive(
                    words[0], limit=5
                ), f"WAND != exhaustive for {words[0]!r} after recovery"
                ranked_probe_done = True
        # The persisted max-score bounds must never be stale-low after a
        # replay: for every term, bound >= the true max contribution of
        # every live posting (a stale bound lets WAND drop true results).
        engine = fs.fulltext_index.index
        if hasattr(engine, "bound_violations"):
            violations = engine.bound_violations()
            assert not violations, (
                f"stale persisted rank bounds after recovery: {violations[:3]}"
            )
        # No mount-time repair stands behind this: a document's records
        # commit with the master-tree write they belong to, so at every
        # crash point the posting tree holds exactly the documents the
        # master tree justifies — none for a dead object, one for every
        # flagged object with a token, none without a flag or manual name.
        indexed = set(engine.document_ids())
        assert indexed <= live, (
            f"postings outlived their objects: {sorted(indexed - live)}"
        )
        for oid in live:
            flagged = fs.objects.stat(oid).attributes.get("hfad.ci") == "1"
            if flagged and engine.analyzer.analyze_with_positions(fs.read(oid)):
                assert oid in indexed, f"flagged object {oid} has no document record"
            if oid in indexed:
                assert flagged or any(
                    entry.startswith("n:FULLTEXT/") for entry in fs.objects.names(oid)
                ), f"document record {oid} has neither flag nor manual name"

    report = fs.fsck()
    assert report["clean"], f"fsck after remount: {report['errors']}"

    # Post-recovery integrity audit: every reachable page on the recovered
    # device must carry a valid checksum frame.  A torn home-location write
    # is detected as torn (frame mismatch) and healed by replay — it must
    # never survive as silently-valid data, and after the mount-time
    # checkpoint nothing should be left to repair or quarantine.
    scrub = fs.scrub()
    assert scrub.complete, "post-mount scrub did not finish"
    assert scrub.quarantined == 0, (
        f"unrepairable pages after recovery: {scrub.errors}"
    )
    assert scrub.repaired == 0, (
        f"rotten pages slipped past recovery: {scrub.errors}"
    )
    assert not scrub.errors, f"post-mount scrub errors: {scrub.errors}"


def measure_workload_writes(seed, block_size=512):
    """Run the seed's workload uncrashed; returns its device-write count."""
    device = make_device(block_size)
    fs = build_fs(device)
    before = device.stats.writes
    model = Model()
    run_workload(fs, random.Random(seed), model)
    total = device.stats.writes - before
    verify_clean_run(fs, model)  # reads touch atime → more writes; not counted
    return total


def verify_clean_run(fs, model):
    """Sanity-check the model against the live (uncrashed) filesystem."""
    model.settle()
    for oid, state in model.objects.items():
        assert fs.read(oid) == state["content"]


def degraded_answers(fs, model):
    """Audit a filesystem with a quarantined page against the model.

    Every probe ``verify`` makes either answers as the model says or raises
    :class:`CorruptionError`; a search may also return a result flagged
    partial that names no object it should not.  Returns the wrong answers.
    """
    pending_oids = model.pending.get("oids", set())
    wrong = []

    def probe(name, call, ok):
        partial_before = fs.integrity.stats.partial_results
        try:
            got = call()
        except CorruptionError:
            return None
        if not ok(got, fs.integrity.stats.partial_results > partial_before):
            wrong.append((name, got))
        return got

    live = probe("list_objects", fs.list_objects, lambda got, _partial: True)
    if live is not None:
        live = set(live)
        extras = live - set(model.objects) - pending_oids
        if len(extras) > (1 if model.pending.get("kind") == "create" else 0):
            wrong.append(("unexplained objects", sorted(extras)))
        for oid in model.deleted - pending_oids:
            if oid in live:
                wrong.append(("resurrected", oid))
    for oid, state in model.objects.items():
        if oid in pending_oids:
            continue
        if live is not None and oid not in live:
            wrong.append(("lost", oid))
        probe(f"read {oid}", lambda: fs.read(oid),
              lambda got, _partial: got == state["content"])
        probe(f"names {oid}", lambda: {str(pair) for pair in fs.names_for(oid)},
              lambda got, _partial: state["tags"] <= got)
        for path in state["paths"]:
            probe(f"path {path}", lambda: fs.lookup_path(path),
                  lambda got, _partial: got == oid)
        words = state["content"].decode().split()
        if words:
            probe(f"search {words[0]!r} for {oid}", lambda: fs.search_text(words[0]),
                  lambda got, partial: oid in got or partial)
    expected = set(model.objects) - pending_oids
    probe("query USER/root", lambda: set(fs.query("USER/root")),
          lambda got, _partial: expected <= got and (
              live is None or got <= live | pending_oids))
    return wrong


def verify_surfaced(device, mounted, model):
    """A tear inside a block that recovery could not undo: the torn page
    is quarantined, fsck and the scrub report it, and nothing answers
    other than the model says."""
    assert mounted.integrity.quarantine == {device.torn_block}, (
        f"quarantined {sorted(mounted.integrity.quarantine)}, "
        f"but the tear cut block {device.torn_block}"
    )
    assert mounted.stats()["recovery"]["unresolved_pages"] == 1
    wrong = degraded_answers(mounted, model)
    assert not wrong, (
        f"silently wrong answers beside quarantined page {device.torn_block}: "
        f"{wrong[:3]}"
    )
    assert not mounted.fsck()["clean"]
    scrub = mounted.scrub()
    assert f"page {device.torn_block}: unrepairable, quarantined" in scrub.errors


def torture_once(seed, crash_after, tear, block_size=512):
    device = make_device(block_size)
    fs = build_fs(device)
    model = Model()
    device.plan_crash(
        crash_after,
        torn_rng=random.Random(crash_after * 31 + seed) if tear else None,
        tear=tear or "blocks",
    )
    try:
        run_workload(fs, random.Random(seed), model)
    except CrashError:
        pass
    else:
        device.disarm()
        return False  # the sampled point fell past the workload's writes
    # Only home deltas, on one-block pages, may leave a torn page unhealed.
    surfaces_pages = tear == "bytes" and block_size == PAGE_BYTES
    try:
        mounted = HFADFileSystem.mount(device.surviving_image())
    except (CorruptionError, JournalError, RecoveryError) as error:
        # Refused loudly: only a tear inside a block may cost a mount, and
        # the refusal names what the tear cut.
        assert device.torn_block is not None, f"mount failed: {error}"
        if device.torn_block == SUPERBLOCK_BLOCK:
            assert "superblock" in str(error), error
        else:
            assert surfaces_pages, f"mount failed: {error}"
            assert re.search(rf"(page|block) {device.torn_block}\b", str(error)), error
        return True
    if mounted.integrity.quarantine and surfaces_pages:
        verify_surfaced(device, mounted, model)
    else:
        verify(mounted, model)
    return True


def torture_seed(seed, block_size):
    total_writes = measure_workload_writes(seed, block_size)
    assert total_writes > POINTS_PER_SEED, "workload too small to sample"
    rng = random.Random(seed * 7919)
    points = sorted(rng.sample(range(total_writes), min(POINTS_PER_SEED, total_writes)))
    # Half the points tear the fatal write between blocks; every other
    # point of the rest runs again, torn inside a block.
    runs = [(point, "blocks" if index % 2 == 0 else None)
            for index, point in enumerate(points)]
    runs += [(point, "bytes") for point in points[1::4]]
    crashed = sum(torture_once(seed, point, tear, block_size) for point, tear in runs)
    # Every sampled point lies inside the workload's write window, so every
    # run must actually crash (and therefore actually audit a recovery).
    assert crashed == len(runs)


@pytest.mark.parametrize("seed", SEEDS)
def test_torture_crash_points(seed):
    torture_seed(seed, block_size=512)


@pytest.mark.parametrize("seed", SEEDS)
def test_torture_crash_points_one_block_pages(seed):
    # A page is one 4 KB block: first touches log home deltas, and replay
    # folds them from homes the crash may have caught mid-write-back.
    torture_seed(seed, block_size=PAGE_BYTES)
