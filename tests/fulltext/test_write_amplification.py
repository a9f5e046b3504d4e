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
"""

import random

from repro import HFADFileSystem

DOCUMENTS = 300
TOKENS = 80
WARM_UP = 10  # the first creates grow a near-empty tree: splits dominate
VOCABULARY = [f"t{i:04d}" for i in range(2000)]


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
