"""Write-amplification gate: a create writes its own records, not its postings.

A create writes through its ``D`` / ``L`` / ``S`` records and one backlog
record — a handful of pages whatever its vocabulary — and its postings
reach the tree when the backlog settles, one page write per touched leaf per
*batch* of documents (``BPlusTree.apply_sorted``).  Writing a document's
postings through cost a page per distinct term (~76 here); one tree entry
per posting with per-term side records cost ~2.6 pages per term.  A page
touch added to the create path — or a settle that stops batching — lands
here, not in a benchmark.

The bounds sit just above the floors measured with byte-filled 4 KB pages
(seed 19): a create outside a settle wrote at most 9 pages and logged at most
18 (bounds 11 and 21, ~20 % headroom), and the whole run logged one page per
4.41 distinct terms (bound 4, ~10 %; it was 3.12 with 16 KB pages split at 32
keys, where rare terms sat alone in a leaf).

The second gate is the opposite corpus: a fifteen-word vocabulary puts every
posting block in one or two leaves, which an eager create spliced from first
edit to last in one ``DELTA``, every time (5.80 device blocks per operation
when creates wrote their postings through, 2.74 with one tree entry per
posting).  With the backlog those leaves are written once, by the settle:
2.08 at 300 operations (bound 2.5), and batching commit markers can only
lower it.
"""

import random

from repro import HFADFileSystem

DOCUMENTS = 300
TOKENS = 80
WARM_UP = 10  # the first creates grow a near-empty tree: splits dominate
VOCABULARY = [f"t{i:04d}" for i in range(2000)]
TINY_VOCABULARY = ("journal redo checkpoint replay durable commit tear crash "
                   "mount fsck lsn revoke").split()
METADATA_OPS = 300


def test_a_create_writes_at_most_one_index_page_per_distinct_term():
    # ... by a wide margin: a handful of pages per create, a quarter of a page
    # per distinct term once the settles are counted in.
    rng = random.Random(19)
    fs = HFADFileSystem(btree_on_device=True, num_blocks=1 << 16)
    index = fs.fulltext_index.index
    store = index.tree.store

    def pages_logged():
        return fs.stats()["recovery"]["pages_logged"]

    distinct = logged_from = 0
    for number in range(DOCUMENTS):
        # Zipf-ish: squaring a uniform draw favours the low ranks.
        words = [VOCABULARY[int(rng.random() ** 2 * len(VOCABULARY))] for _ in range(TOKENS)]
        if number == WARM_UP:
            logged_from = pages_logged()
        writes, logged, settles = store.writes, pages_logged(), index.settles
        oid = fs.create(" ".join(words).encode(), path=f"/d/{number}")
        terms = len(index.terms_for(oid))
        assert terms == len(set(words))
        if number < WARM_UP:
            continue
        distinct += terms
        if index.settles == settles:  # this create's commit tripped no settle
            assert store.writes - writes <= 11, (number, terms, store.writes - writes)
            assert pages_logged() - logged <= 21, (number, terms, pages_logged() - logged)
    assert index.settles >= 2
    # Amortised over the settles the creates paid for: a quarter of a page per
    # distinct term, not one.
    assert (pages_logged() - logged_from) * 4 <= distinct, (pages_logged() - logged_from, distinct)
    fs.close()


def _metadata_heavy_blocks_written(group_commit):
    """Creates, tags, appends and deletes over the tiny vocabulary; returns
    the device blocks written, the closing settle included."""
    rng = random.Random(11)
    fs = HFADFileSystem(btree_on_device=True, num_blocks=1 << 16, cache_pages=128,
                        query_cache_entries=0, group_commit=group_commit)
    before = fs.device.stats.snapshot()
    oids = []
    for step in range(METADATA_OPS):
        roll = rng.random()
        if not oids or roll < 0.4:
            content = " ".join(rng.choice(TINY_VOCABULARY) for _ in range(12))
            oids.append(fs.create(content.encode(), path=f"/bench/f{step}.txt"))
        elif roll < 0.6:
            fs.tag(rng.choice(oids), "UDEF", f"tag{step}")
        elif roll < 0.8:
            fs.append(rng.choice(oids), b" more words appended")
        elif roll < 0.9:
            fs.tag(rng.choice(oids), "UDEF", f"extra{step}")
        else:
            fs.delete(oids.pop(rng.randrange(len(oids))))
    fs.fulltext_index.index.settle()
    written = fs.device.stats.delta(before).blocks_written
    fs.close()
    return written


def test_a_tiny_vocabulary_costs_a_bounded_number_of_blocks_per_operation():
    synced = _metadata_heavy_blocks_written(group_commit=1)
    batched = _metadata_heavy_blocks_written(group_commit=8)
    assert synced <= 2.5 * METADATA_OPS, synced
    assert batched <= synced, (batched, synced)
