"""One torture harness: client operations and injected faults, model-checked.

:class:`TortureMachine` (512-byte blocks) and :class:`OneBlockPages` (4 KB
blocks) are one hypothesis state machine, and the test draws the same
schedules for both.  It runs client operations on one
engine and keeps a :class:`~namespace_oracle.Namespace` of what each
completed operation promised.  Between them it injects events, each played
on a copy of the device, so the engine carries on:

* **crash** — the device dies at a write since the last crash event: a
  clean cut, a tear between blocks, or a tear inside one block, aimed at
  any write or at one to the journal, a page home or the superblock.  The
  write history is replayed onto a :class:`CrashingBlockDevice`, which
  really crashes, and the surviving image is mounted and audited.  The
  operation the write belonged to must be whole or absent; every other one
  is exact.  Every schedule ends in a checkpoint swept by one crash of each
  tear kind at each region.
* **rot** — a bit flip, a burst or a garbage run lands in the frame or the
  padding of one to three reachable pages of a mounted copy whose pool was
  dropped, so the next read pages the damage in.

The audit (:func:`audit`) asks every question the oracle can answer:
objects, content, names, paths both ways (each object's paths, and every
bound path's holder), ``USER/root``, search and exact BM25 for every
vocabulary term against :class:`~namespace_oracle.BruteForceIndex`, WAND
against exhaustive ranking, the rank bounds, which objects have a document,
fsck and a scrub that finds nothing.  Where damage may remain (a 4 KB page torn inside its
block, or rot) each answer must instead be the oracle's, a ``CorruptionError``
(surfaced) or a flagged partial subset (:func:`probe`); a rot copy the scrub
heals whole is remounted and audited.  Each machine counts what it reached
in ``reach``, and the test requires the outcomes the contract names.

Intensity is a settings profile: ``TIER1`` here, or ``torture-ci``
(registered in ``conftest.py``) with ``--hypothesis-profile=torture-ci``;
the seed is ``--hypothesis-seed``.  A failure shrinks to a minimal schedule
that hypothesis prints as calls on the machine: add its steps to ``SHRUNK``
to replay it on both block sizes in every run.
"""

import random
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule, run_state_machine_as_test
from namespace_oracle import WORDS, Entry, Namespace

from repro.btree.node import decode_node
from repro.core import HFADFileSystem
from repro.errors import CorruptionError, JournalError, RecoveryError
from repro.integrity import FRAME_OVERHEAD, verify_frame
from repro.osd.extent_map import ObjectExtent
from repro.recovery import CrashError, CrashingBlockDevice
from repro.recovery.superblock import SUPERBLOCK_BLOCK, Superblock
from repro.storage import BlockDevice, Journal
from repro.storage.block_device import PAGE_BYTES
from repro.storage.journal import TYPE_REVOKE

TIER1 = settings(max_examples=28, stateful_step_count=30, deadline=None, derandomize=True,
                 phases=[Phase.generate, Phase.shrink], report_multiple_bugs=False,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
TEARS = ("clean", "blocks", "bytes")
REGIONS = ("any", "journal", "home", "superblock")
SWEEP = tuple((tear, region) for tear in TEARS for region in REGIONS[1:])
ROT = ("padding", "bit", "burst", "garbage")
DEVICE_BYTES = 8 << 20
JOURNAL_BYTES = 256 << 10


def words(seed, count):
    rng = random.Random(seed)
    return " ".join(rng.choice(WORDS) for _ in range(count)).encode()


class RecordingDevice(BlockDevice):
    """A device that keeps every write since :meth:`rebase`."""

    log = ()

    def rebase(self):
        self.base, self.log = self.dump(), []

    def write_blocks(self, block, data, nblocks=None):
        super().write_blocks(block, data, nblocks)
        if self.log != ():
            self.log.append((block, bytes(data), nblocks))

    def copy(self):
        device = BlockDevice(num_blocks=self.num_blocks, block_size=self.block_size)
        device.load(self.dump())
        return device


def observe(fs, oid):
    names = {str(pair) for pair in fs.names_for(oid)}
    return Entry(fs.read(oid), frozenset(n for n in names if n.startswith("UDEF/")),
                 frozenset(fs.paths_for(oid)))


def probe(fs, truth, skip=frozenset(), exact=False):
    """Ask the audit's questions, skipping the objects in ``skip``.  Each
    answer must be the oracle's (``identical``, or ``degraded``: served by
    the rescan fallback), a ``CorruptionError`` (``surfaced``), or a
    ``partial`` result, flagged and a subset of the oracle's; with ``exact``,
    each rank must be the oracle's hits, scores too.  Returns the wrong
    answers and a count of each outcome."""
    wrong, outcomes = [], Counter()

    def ask(what, call, want, subset=False):
        stats = fs.integrity.stats
        partial, degraded = stats.partial_results, stats.degraded_queries
        try:
            got = call()
        except CorruptionError:
            outcomes["surfaced"] += 1
            return
        outcome = ("partial" if stats.partial_results > partial
                   else "degraded" if stats.degraded_queries > degraded else "identical")
        if got != want and not (subset and outcome == "partial" and got <= want):
            wrong.append((what, got, want))
        outcomes[outcome] += 1

    expected = set(truth.objects) - skip
    ask("objects", lambda: set(fs.list_objects()) - skip, expected)
    for oid in sorted(expected):
        ask(f"object {oid}", lambda: observe(fs, oid), truth.objects[oid])
    ask("USER/root", lambda: set(fs.query("USER/root")) - skip, expected)
    bound = {(path, oid) for oid in expected for path in truth.objects[oid].paths}
    ask("paths", lambda: {(path, oid) for path, oid in fs.list_subtree("/") if oid not in skip}, bound)
    ask("lookups", lambda: {(path, fs.lookup_path(path)) for path, _oid in bound}, bound)
    for word in WORDS:
        hits = truth.postings.rank(word)
        want = {hit.doc_id for hit in hits} - skip
        ask(f"search {word}", lambda: set(fs.search_text(word)) - skip, want, subset=True)
        if exact:  # scores weigh every document, so only a whole image ranks exactly
            ask(f"rank {word}", lambda: fs.rank(word, limit=None), hits)
        else:
            ask(f"rank {word}", lambda: {hit.doc_id for hit in fs.rank(word, limit=None)} - skip,
                want, subset=True)
    return wrong, outcomes


def audit(fs, candidates, oids=frozenset()):
    """Require ``fs`` to hold exactly one of ``candidates`` (the states
    before and after the operation on ``oids``); returns it."""
    live = set(fs.list_objects())
    seen = {oid: observe(fs, oid) if oid in live else None for oid in oids}
    truth = next((ns for ns in candidates if all(ns.objects.get(oid) == seen[oid] for oid in oids)), None)
    assert truth is not None, f"half an operation on {sorted(oids)}: {seen}"
    wrong, outcomes = probe(fs, truth, exact=True)
    assert not wrong and set(outcomes) == {"identical"}, (wrong[:3], outcomes)
    engine = fs.fulltext_index.index
    for word in WORDS[:3]:  # WAND's pruning; bound_violations() covers every term's bounds
        assert fs.rank(word, limit=5) == engine.rank_exhaustive(word, limit=5), word
    assert engine.bound_violations() == []
    documents = set(engine.document_ids())
    assert {oid for oid, stream in truth.postings.docs.items() if stream} <= documents <= live
    assert all(fs.objects.stat(oid).attributes.get("hfad.ci") == "1" for oid in documents)
    report = fs.fsck()
    assert report["clean"], report["errors"]
    scrub = fs.scrub()
    assert scrub.complete and scrub.repaired == scrub.quarantined == 0 and not scrub.errors, scrub.errors
    return truth


def revoked_chunks(fs, blocks):
    """Whether a block the crash image ``blocks`` revokes holds part of one
    of ``fs``'s chunks: replay skipped a stale page image there."""
    image = BlockDevice(num_blocks=fs.device.num_blocks, block_size=fs.device.block_size)
    image.load(blocks)
    superblock = Superblock.load(image)
    journal = Journal(image, superblock.journal_start, superblock.journal_blocks)
    revoked = {record.block for _lsn, records in journal.scan() for record in records
               if record.rtype == TYPE_REVOKE}
    span = PAGE_BYTES // image.block_size
    chunks = set()
    for _key, raw in fs.objects._master.cursor(prefix=b"\xffE"):
        if not ObjectExtent.names_entry(raw):
            extent = ObjectExtent.decode(raw)
            chunks.update(range(extent.block, extent.block + extent.nblocks))
    return any(chunks.intersection(range(block, block + span)) for block in revoked)


def reachable_pages(fs):
    """pid -> (page_blocks, bytes its checksum frame covers) for every
    reachable btree page, via raw reads."""
    pages = {}
    for store, root in fs.objects.scrub_sources():
        stack = [root]
        while stack:
            pid = stack.pop()
            if pid not in pages:
                raw = fs.device.read_blocks(pid, store.page_blocks)
                payload = verify_frame(raw)
                pages[pid] = store.page_blocks, FRAME_OVERHEAD + len(payload)
                node = decode_node(payload)
                if not node.is_leaf:
                    stack.extend(node.children)
    return pages


def corrupt(device, rng, pid, page_blocks, framed, kind):
    """One bit flip, burst or garbage run in the page's first ``framed``
    bytes (its checksum frame), or a flip anywhere in its blocks (mostly
    padding)."""
    block_size = device.block_size
    if kind == "padding":
        device.flip_bit(pid + rng.randrange(page_blocks), rng.randrange(block_size * 8))
    elif kind == "garbage":  # clipped to one block
        offset = rng.randrange(framed - 8)
        block, at = pid + offset // block_size, offset % block_size
        garbage = bytes(rng.randrange(256) for _ in range(rng.randint(4, 48)))
        device.corrupt_bytes(block, at, garbage[:block_size - at])
    else:
        for _ in range(1 if kind == "bit" else rng.randint(2, 8)):
            offset = rng.randrange(framed)
            device.flip_bit(pid + offset // block_size, (offset % block_size) * 8 + rng.randrange(8))


PICK = st.integers(0, 1 << 16)
SIZE = st.one_of(st.integers(3, 40), st.integers(180, 400))  # inline, or chunks


class TortureMachine(RuleBasedStateMachine):
    """The engine on 512-byte blocks: a page spans eight, and its first
    record after a checkpoint is a full image."""

    block_size = 512

    def __init__(self, reach=None):
        super().__init__()
        self.reach = Counter() if reach is None else reach

    @initialize(corpus=st.integers(0, 20), seed=PICK)
    def mkfs(self, corpus, seed):
        """A fresh engine holding ``corpus`` objects, a third of them chunked."""
        block_size = self.block_size
        self.device = RecordingDevice(num_blocks=DEVICE_BYTES // block_size, block_size=block_size)
        self.fs = HFADFileSystem(device=self.device, journal_blocks=JOURNAL_BYTES // block_size,
                                 cache_pages=16, query_cache_entries=0)
        self.truth, self.counter = Namespace(), 0
        self.rebase()
        for at in range(corpus):
            self.create(seed + at, 200 if at % 3 == 0 else 3 + (seed + at) % 38)
        self.rebase()

    def rebase(self):
        """Start a new crash window: the device now, the oracle now."""
        self.device.rebase()
        self.states, self.ends, self.touched = [self.truth.copy()], [], []

    def done(self, *oids):
        """Close one client operation on ``oids``."""
        self.states.append(self.truth.copy())
        self.ends.append(len(self.device.log))
        self.touched.append(frozenset(oids))

    def pick(self, pick):
        live = sorted(self.truth.objects)
        return live[pick % len(live)], self.truth.objects[live[pick % len(live)]]

    def teardown(self):
        """Every schedule ends in a checkpoint that power cuts interrupt:
        each tear kind aimed at each region, at points spread over the last
        window."""
        if hasattr(self, "fs"):
            self.checkpoint()
            window = len(self.device.log)
            self.crash([(window * at // len(SWEEP), *point) for at, point in enumerate(SWEEP)])
            self.fs.close()

    # -- client operations ------------------------------------------------

    @rule(seed=PICK, size=SIZE)
    def create(self, seed, size):
        self.counter += 1
        content, path = words(seed, size), f"/f{self.counter}.txt"
        oid = self.fs.create(content, path=path, annotations=[f"note{self.counter}"])
        self.truth.put(oid, content=content, names=frozenset({f"UDEF/note{self.counter}"}),
                       paths=frozenset({path}))
        self.done(oid)

    has_objects = precondition(lambda self: self.truth.objects)

    @has_objects
    @rule(pick=PICK, seed=PICK, size=st.integers(1, 6))
    def append(self, pick, seed, size):
        oid, entry = self.pick(pick)
        extra = b" " + words(seed, size)
        self.fs.append(oid, extra)
        self.truth.put(oid, content=entry.content + extra)
        self.done(oid)

    @has_objects
    @rule(pick=PICK, at=PICK, seed=PICK, size=st.integers(1, 4))
    def insert(self, pick, at, seed, size):
        oid, entry = self.pick(pick)
        at, blob = at % (len(entry.content) + 1), words(seed, size)
        self.fs.insert(oid, at, blob)
        self.truth.put(oid, content=entry.content[:at] + blob + entry.content[at:])
        self.done(oid)

    @has_objects
    @rule(pick=PICK, at=PICK, length=PICK)
    def cut(self, pick, at, length):
        oid, entry = self.pick(pick)
        if len(entry.content) > 4:
            at = at % (len(entry.content) - 1)
            length = 1 + length % (len(entry.content) - at - 1)
            self.fs.truncate(oid, at, length)
            self.truth.put(oid, content=entry.content[:at] + entry.content[at + length:])
        self.done(oid)

    @has_objects
    @rule(pick=PICK, value=PICK)
    def tag(self, pick, value):
        oid, entry = self.pick(pick)
        self.fs.tag(oid, "UDEF", f"v{value}")
        self.truth.put(oid, names=entry.names | {f"UDEF/v{value}"})
        self.done(oid)

    @has_objects
    @rule(pick=PICK, which=PICK)
    def untag(self, pick, which):
        oid, entry = self.pick(pick)
        if entry.names:
            doomed = sorted(entry.names)[which % len(entry.names)]
            self.fs.untag(oid, "UDEF", doomed.split("/", 1)[1])
            self.truth.put(oid, names=entry.names - {doomed})
        self.done(oid)

    @has_objects
    @rule(pick=PICK)
    def group(self, pick):
        """Two tags in one ``fs.begin()``: all or nothing."""
        oid, entry = self.pick(pick)
        self.counter += 1
        pair = {f"UDEF/grp{self.counter}a", f"UDEF/grp{self.counter}b"}
        with self.fs.begin():
            for name in sorted(pair):
                self.fs.tag(oid, "UDEF", name.split("/", 1)[1])
        self.truth.put(oid, names=entry.names | pair)
        self.done(oid)

    @has_objects
    @rule(pick=PICK)
    def link(self, pick):
        oid, entry = self.pick(pick)
        self.counter += 1
        path = f"/link{self.counter}.txt"
        self.fs.link_path(path, oid)
        self.truth.put(oid, paths=entry.paths | {path})
        self.done(oid)

    @has_objects
    @rule(pick=PICK, count=st.integers(1, 8))
    def delete(self, pick, count):
        """Delete up to ``count`` objects in one ``fs.begin()``."""
        doomed = {self.pick(pick + at)[0] for at in range(count)}
        with self.fs.begin():
            for oid in sorted(doomed):
                self.fs.delete(oid)
        for oid in doomed:
            self.truth.drop(oid)
        self.done(*doomed)

    @has_objects
    @rule(pick=PICK, seed=PICK)
    def turnover(self, pick, seed):
        """Delete half the objects, then create three chunked ones: the
        freed pages' blocks may take chunk data while their revokes are
        still in the log."""
        self.delete(pick, (len(self.truth.objects) + 1) // 2)
        for at in range(3):
            self.create(seed + at, 300)

    @precondition(lambda self: self.device.log)
    @rule()
    def checkpoint(self):
        self.fs.checkpoint()
        self.done()

    # -- injected events --------------------------------------------------

    def region(self, block):
        journal = self.fs.recovery.journal
        if block == SUPERBLOCK_BLOCK:
            return "superblock"
        return "journal" if 0 <= block - journal.journal_start < journal.journal_blocks else "home"

    @precondition(lambda self: self.device.log)
    @rule(points=st.lists(st.tuples(st.integers(0, 1 << 32), st.sampled_from(TEARS),
                                    st.sampled_from(REGIONS)), min_size=1, max_size=4))
    def crash(self, points):
        """The device dies at a write since the last crash event, chosen
        among the writes to ``region`` when there are any."""
        regions = [self.region(block) for block, _data, _nblocks in self.device.log]
        for at, tear, region in points:
            aimed = [point for point, each in enumerate(regions)
                     if region in ("any", each)] or range(len(regions))
            point = aimed[at % len(aimed)]
            self.crash_at(point, tear, random.Random(f"{at}:{point}"))
        self.rebase()

    def crash_at(self, point, tear, rng):
        device = CrashingBlockDevice(num_blocks=self.device.num_blocks,
                                     block_size=self.device.block_size)
        device.load(self.device.base)
        device.plan_crash(point, torn_rng=None if tear == "clean" else rng,
                          tear="bytes" if tear == "bytes" else "blocks")
        try:
            for block, data, nblocks in self.device.log[:point + 1]:
                device.write_blocks(block, data, nblocks)
        except CrashError:
            pass
        assert device.dead, f"write {point} did not crash"
        self.reach["crashes"] += 1
        self.reach[f"tear {tear} on {device.block_size}"] += 1
        op = next(at for at, end in enumerate(self.ends) if end > point)
        candidates, oids = self.states[op:op + 2], self.touched[op]
        # Only a home delta, on a page of one block, may leave a torn page unhealed.
        surfaces = tear == "bytes" and device.block_size == PAGE_BYTES
        image = device.surviving_image()
        blocks = image.dump()  # the mount truncates the journal it replays
        try:
            mounted = HFADFileSystem.mount(image, cache_pages=16, query_cache_entries=0)
        except (CorruptionError, JournalError, RecoveryError) as error:
            # Refused by name: only a tear inside a block may cost a mount.
            assert device.torn_block is not None, f"mount failed: {error}"
            if device.torn_block == SUPERBLOCK_BLOCK:
                assert "superblock" in str(error), error
                self.reach["torn superblock refused"] += 1
            else:
                assert surfaces, f"mount failed: {error}"
                assert re.search(rf"(page|block) {device.torn_block}\b", str(error)), error
                self.reach["torn page refused"] += 1
            return
        if mounted.integrity.quarantine and surfaces:
            # Surfaced: the torn page is quarantined, reported, and no answer is wrong.
            assert mounted.integrity.quarantine == {device.torn_block}
            assert mounted.stats()["recovery"]["unresolved_pages"] == 1
            wrong, _outcomes = probe(mounted, candidates[0], skip=oids)
            assert not wrong, f"wrong answers beside torn page {device.torn_block}: {wrong[:3]}"
            assert not mounted.fsck()["clean"]
            assert f"page {device.torn_block}: unrepairable, quarantined" in mounted.scrub().errors
            self.reach["torn page surfaced"] += 1
            return
        if mounted.recovery.journal.last_replay_revoked:
            self.reach["revoked block holds chunk data"] += revoked_chunks(mounted, blocks)
        audit(mounted, candidates, oids)
        self.reach["crash audits"] += 1

    @rule(hits=st.lists(st.tuples(PICK, st.sampled_from(ROT), PICK), min_size=1, max_size=3))
    def rot(self, hits):
        """Damage reachable pages of a mounted copy, then read them back cold."""
        device = self.device.copy()
        fs = HFADFileSystem.mount(device, cache_pages=8, query_cache_entries=0)
        for store, _root in fs.objects.scrub_sources():
            store.drop_cache()
        pages = reachable_pages(fs)
        for pick, kind, seed in hits:
            pid = sorted(pages)[pick % len(pages)]
            corrupt(device, random.Random(seed), pid, *pages[pid], kind)
            self.reach["page corruptions"] += 1
        wrong, outcomes = probe(fs, self.truth)
        assert not wrong, f"silently wrong answers: {wrong[:3]}"
        self.reach.update(outcomes)
        fs.scrub()
        if not fs.integrity.quarantine:
            # Healed whole (or nothing checksummed was hit): a remount is exact.
            fs.close()
            audit(HFADFileSystem.mount(device, cache_pages=8, query_cache_entries=0), [self.truth])
            self.reach["post-repair remounts"] += 1


class OneBlockPages(TortureMachine):
    """The engine on 4 KB blocks: a page is one block, and its first record
    after a checkpoint is a delta against its home."""

    block_size = PAGE_BYTES


def test_torture():
    """Both machines at the loaded profile's intensity, and what they reached.
    One factory draws one seed, so both block sizes run the same schedules."""
    ci = settings.get_profile("torture-ci")
    reach = Counter()
    for machine in (TortureMachine, OneBlockPages):
        run_state_machine_as_test(lambda: machine(reach), settings=ci if settings.default is ci else TIER1)
    print(dict(sorted(reach.items())))
    assert reach["crashes"] >= 552
    for size in (512, PAGE_BYTES):
        for tear in TEARS:
            assert reach[f"tear {tear} on {size}"], (tear, size)
    assert reach["torn superblock refused"] and reach["revoked block holds chunk data"]
    assert reach["page corruptions"] >= 220
    assert reach["degraded"] and reach["partial"] and reach["surfaced"]
    assert reach["post-repair remounts"]



# Schedules the shrinker printed for an engine fault, each kept as a fixed
# replay on both block sizes: the fault it caught, the outcome it must
# reach, then its steps.
SHRUNK = {
    "replay-ignores-revoke": ("revoked block holds chunk data", [
        ("mkfs", {"corpus": 12, "seed": 1}), ("turnover", {"pick": 0, "seed": 0})]),
    "page-in-skips-crc": ("surfaced", [
        ("mkfs", {"corpus": 18, "seed": 0}), ("rot", {"hits": [(0, "padding", 0)]})]),
    "degraded-find-empty": ("degraded", [
        ("mkfs", {"corpus": 19, "seed": 1}), ("delete", {"count": 1, "pick": 0}),
        ("create", {"seed": 0, "size": 180}), ("rot", {"hits": [(0, "padding", 0)]}),
        ("rot", {"hits": [(0, "padding", 0)]}), ("rot", {"hits": [(1008, "padding", 1)]})]),
    "partial-unflagged": ("partial", [
        ("mkfs", {"corpus": 18, "seed": 0}), ("rot", {"hits": [(0, "padding", 0), (4, "padding", 1)]})]),
    "replay-drops-last-delta": ("crash audits", [
        ("mkfs", {"corpus": 1, "seed": 0}), ("group", {"pick": 0})]),
}


@pytest.mark.parametrize("machine", [TortureMachine, OneBlockPages], ids=["512", "4k"])
@pytest.mark.parametrize("fault", SHRUNK)
def test_shrunk_schedule(fault, machine):
    reached, steps = SHRUNK[fault]
    state = machine()
    for step, arguments in steps:
        getattr(state, step)(**arguments)
    state.teardown()
    assert state.reach[reached], dict(state.reach)
