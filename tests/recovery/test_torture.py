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
is audited.  Across the default seed set this exercises 200+ distinct crash
points; override with ``TORTURE_SEEDS`` / ``TORTURE_POINTS``.
"""

import os
import random

import pytest

from repro.core import HFADFileSystem
from repro.recovery import CrashError, CrashingBlockDevice

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


def make_device():
    return CrashingBlockDevice(num_blocks=1 << 14, block_size=512)


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
                hits = {hit.doc_id for hit in fs.rank_text(words[0], limit=None)}
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


def measure_workload_writes(seed):
    """Run the seed's workload uncrashed; returns its device-write count."""
    device = make_device()
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


def torture_once(seed, crash_after, torn):
    device = make_device()
    fs = build_fs(device)
    model = Model()
    device.plan_crash(
        crash_after,
        torn_rng=random.Random(crash_after * 31 + seed) if torn else None,
    )
    try:
        run_workload(fs, random.Random(seed), model)
    except CrashError:
        pass
    else:
        device.disarm()
        return False  # the sampled point fell past the workload's writes
    mounted = HFADFileSystem.mount(device.surviving_image())
    verify(mounted, model)
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_torture_crash_points(seed):
    total_writes = measure_workload_writes(seed)
    assert total_writes > POINTS_PER_SEED, "workload too small to sample"
    rng = random.Random(seed * 7919)
    points = sorted(rng.sample(range(total_writes), min(POINTS_PER_SEED, total_writes)))
    crashed = sum(
        torture_once(seed, point, torn=(index % 2 == 0))
        for index, point in enumerate(points)
    )
    # Every sampled point lies inside the workload's write window, so every
    # run must actually crash (and therefore actually audit a recovery).
    assert crashed == len(points)
