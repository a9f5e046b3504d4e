"""Property test: stored WAND upper bounds dominate every live posting.

The pruning safety invariant — for every term, the stored upper-bound
inputs (max term frequency, min document length; per-term ``F`` fields and
per-block ``B`` records) must yield a bound score that is ≥ every live
posting's actual BM25 contribution under the *current* corpus statistics.  Bounds are maintained monotonically, so mutations may
leave them conservative (loose) but never unsafe (tight): a violation means
WAND can silently drop a true top-k result.

Exercised under randomized write / append / unlink / retag churn, with the
invariant re-checked after every single mutation.
"""

import random

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


def test_violation_detector_actually_detects():
    """Sanity net for the checker itself: a deliberately corrupted persisted
    bound must be reported (the audit cannot pass vacuously)."""
    persistent = PersistentInvertedIndex()
    persistent.add_document(1, "alpha alpha alpha beta")
    persistent.add_document(2, "alpha beta")
    key = persistent._df_key("alpha")
    raw = persistent.tree.get(key)
    # Corrupt: claim the term's max tf is 1 (the true max is 3).
    import struct

    df, _max_tf, min_len = struct.unpack(">QQQ", raw)
    persistent.tree.put(key, struct.pack(">QQQ", df, 1, min_len))
    assert any("max tf" in violation for violation in persistent.bound_violations())
