"""Write-amplification gate: a create writes each index leaf it touches once.

The posting tree takes a document as one sorted batch
(``BPlusTree.apply_sorted``), so the page writes of a create are bounded by
the leaves its terms live in — never more than one per distinct term, plus
a few for the ``D`` / ``L`` / ``S`` records and the odd split.  One tree
entry per posting with per-term side records wrote ~2.6 pages per term; a
page touch added to the create path lands here, not in a benchmark.
"""

import random

from repro import HFADFileSystem

DOCUMENTS = 60
TOKENS = 80
WARM_UP = 10  # the first creates grow a near-empty tree: splits dominate
VOCABULARY = [f"t{i:04d}" for i in range(2000)]


def test_a_create_writes_at_most_one_index_page_per_distinct_term():
    rng = random.Random(19)
    fs = HFADFileSystem(btree_on_device=True, num_blocks=1 << 16)
    index = fs.fulltext_index.index
    store = index.tree.store
    for number in range(DOCUMENTS):
        # Zipf-ish: squaring a uniform draw favours the low ranks.
        words = [VOCABULARY[int(rng.random() ** 2 * len(VOCABULARY))] for _ in range(TOKENS)]
        writes, logged = store.writes, fs.stats()["recovery"]["pages_logged"]
        oid = fs.create(" ".join(words).encode(), path=f"/d/{number}")
        terms = len(index.terms_for(oid))
        assert terms == len(set(words))
        if number < WARM_UP:
            continue
        index_writes = store.writes - writes
        pages_logged = fs.stats()["recovery"]["pages_logged"] - logged
        assert index_writes <= terms + 8, (number, terms, index_writes)
        assert pages_logged <= terms + 24, (number, terms, pages_logged)
    fs.close()
