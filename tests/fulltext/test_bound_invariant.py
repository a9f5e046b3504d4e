"""Property test: stored WAND upper bounds dominate every live posting.

The pruning safety invariant — for every term, the stored upper-bound
inputs (max term frequency, min document length in the term's statistics
record; the exact max term frequency in each block's trailer) must yield a bound score that is ≥ every live
posting's actual BM25 contribution under the *current* corpus statistics.  Bounds are maintained monotonically, so mutations may
leave them conservative (loose) but never unsafe (tight): a violation means
WAND can silently drop a true top-k result.

Exercised under randomized write / append / unlink / retag churn, with the
invariant re-checked after every single mutation.
"""

import random
import struct

import pytest

from repro.fulltext.persistent_index import PersistentInvertedIndex

WORDS = [f"w{i}" for i in range(18)]


def random_text(rng, low=1, high=25):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(low, high)))


@pytest.mark.parametrize("seed", [5, 17, 29])
def test_bounds_dominate_under_random_mutation(seed):
    rng = random.Random(seed)
    engine = PersistentInvertedIndex()
    live = set()
    next_id = 0
    for step in range(90):
        roll = rng.random()
        if not live or roll < 0.35:
            doc_id, next_id = next_id, next_id + 1
            engine.add_document(doc_id, random_text(rng))
            live.add(doc_id)
        elif roll < 0.55:  # rewrite (shrinking or growing the document)
            engine.update_document(rng.choice(sorted(live)), random_text(rng, 1, 40))
        elif roll < 0.75:  # unlink
            doc_id = rng.choice(sorted(live))
            engine.remove_document(doc_id)
            live.discard(doc_id)
        else:  # retag: manual FULLTEXT term rides append_terms
            engine.append_terms(rng.choice(sorted(live)), rng.choice(WORDS))
        assert engine.bound_violations() == [], f"step {step}"
    # The churn must have left pruned and unpruned ranking agreeing too
    # (the invariant is what makes this equality safe).
    for word in WORDS:
        assert engine.rank(word, limit=5) == engine.rank_exhaustive(word, limit=5)


def corrupted(key_of, edit):
    """A two-document index with one record rewritten behind the engine's back."""
    persistent = PersistentInvertedIndex()
    persistent.add_document(1, "alpha alpha alpha beta")
    persistent.add_document(2, "alpha beta")
    persistent.settle()  # the corruption is of tree records
    key = key_of(persistent)
    new = edit(persistent.tree.get(key))
    if new is None:
        persistent.tree.delete(key)
    else:
        persistent.tree.put(key, new)
    return persistent.bound_violations()


def alpha_stats(persistent):
    return persistent._term_stats_key("alpha")


def alpha_block(persistent):
    return persistent._posting_prefix("alpha") + struct.pack(">Q", 0)


CORRUPTIONS = [
    # The term's max tf claims 1 (the true max is 3).
    (alpha_stats, lambda raw: raw[:8] + struct.pack(">Q", 1) + raw[16:], "max tf"),
    # The term's df claims 3 postings; its blocks hold 2 rows.
    (alpha_stats, lambda raw: struct.pack(">Q", 3) + raw[8:], "df 3 but 2 rows"),
    # The block trailer claims 2 (the rows' max tf is 3) — and 9, too loose.
    (alpha_block, lambda raw: raw[:-4] + struct.pack(">I", 2), "trailer 2"),
    (alpha_block, lambda raw: raw[:-4] + struct.pack(">I", 9), "trailer 9"),
    # Document 2 loses its D record while its rows stay.
    (lambda persistent: persistent._doc_key(2, 0), lambda raw: None, "D length None"),
    # Document 2's L slot says 5 tokens (stored + 1); its D header says 2.
    (lambda persistent: persistent._length_key(0),
     lambda raw: raw[:8] + struct.pack(">I", 6) + raw[12:], "D length 2 but L length 5"),
]


def test_violation_detector_actually_detects():
    """Sanity net for the checker itself: each deliberately corrupted record
    must be reported (the audit cannot pass vacuously)."""
    for key_of, edit, expected in CORRUPTIONS:
        assert corrupted(key_of, lambda raw: raw) == []
        violations = corrupted(key_of, edit)
        assert any(expected in violation for violation in violations), (expected, violations)
