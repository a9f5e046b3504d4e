"""Randomized equivalence: persisted index == in-memory index, across remounts.

The persisted-index contract is *transparency*: the same workload run
against a WAL device with persistent index trees and against a plain
in-memory filesystem must produce identical ``query``/``search_text``/
``rank_text`` answers — before an unmount, after a re-mount, and after
continuing the workload on the re-mounted instance.  Exercised with
unlink/rename churn.
"""

import random

import pytest

from repro.core import HFADFileSystem
from repro.storage import BlockDevice

WORDS = (
    "archive braid cipher docket ember fjord gusset hollow ingot jetty "
    "kernel lagoon mantle nectar oriole plinth quartz rivet saddle tonic"
).split()

STEPS = 70


def make_ops(seed, steps=STEPS, start_step=0):
    """A deterministic op list applied identically to every filesystem."""
    rng = random.Random(seed)
    ops = []
    live = []  # op-local view: which create-serials are still live
    for step in range(start_step, start_step + steps):
        roll = rng.random()
        if not live or roll < 0.35:
            words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 25)))
            ops.append(("create", step, words, f"/docs/f{step}.txt"))
            live.append(step)
        elif roll < 0.5:
            ops.append(("append", rng.choice(live),
                        " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 5)))))
        elif roll < 0.6:
            ops.append(("tag_fulltext", rng.choice(live), rng.choice(WORDS)))
        elif roll < 0.68:
            ops.append(("untag_fulltext", rng.choice(live), rng.choice(WORDS)))
        elif roll < 0.76:
            ops.append(("rename", rng.choice(live), f"/moved/m{step}.txt"))
        elif roll < 0.82:
            ops.append(("unlink", rng.choice(live)))
        elif roll < 0.9:
            histogram = [rng.random() + 0.01 for _ in range(8)]
            ops.append(("image", rng.choice(live), histogram))
        else:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("delete", victim))
    return ops


def apply_ops(fs, ops, oid_by_serial):
    """Apply an op list; ``oid_by_serial`` maps create-serials to oids."""
    for op in ops:
        kind = op[0]
        if kind == "create":
            _, serial, words, path = op
            oid_by_serial[serial] = fs.create(words.encode(), path=path,
                                              annotations=[f"note{serial}"])
        elif kind == "append":
            fs.append(oid_by_serial[op[1]], b" " + op[2].encode())
        elif kind == "tag_fulltext":
            fs.tag(oid_by_serial[op[1]], "FULLTEXT", op[2])
        elif kind == "untag_fulltext":
            fs.untag(oid_by_serial[op[1]], "FULLTEXT", op[2])
        elif kind == "rename":
            paths = fs.paths_for(oid_by_serial[op[1]])
            if paths:
                fs.rename_path(paths[0], op[2])
        elif kind == "unlink":
            paths = fs.paths_for(oid_by_serial[op[1]])
            if paths:
                fs.unlink_path(paths[0])
        elif kind == "image":
            fs.index_image(oid_by_serial[op[1]], op[2])
        elif kind == "delete":
            fs.delete(oid_by_serial.pop(op[1]))
        else:  # pragma: no cover - op-list bug
            raise AssertionError(f"unknown op {kind}")


def assert_equivalent(reference, candidate):
    """Reference (in-memory) and candidate must answer identically."""
    assert candidate.list_objects() == reference.list_objects()
    for word in WORDS:
        assert candidate.search_text(word) == reference.search_text(word), word
        assert candidate.rank_text(word, limit=None) == reference.rank_text(word, limit=None), word
    for first, second in zip(WORDS, WORDS[1:]):
        assert candidate.search_text(f"{first} {second}") == reference.search_text(
            f"{first} {second}"
        )
        assert candidate.query(f"FULLTEXT/{first} OR FULLTEXT/{second}") == reference.query(
            f"FULLTEXT/{first} OR FULLTEXT/{second}"
        )
    for color in ("red", "green", "blue", "purple", "gray"):
        assert candidate.query(f"IMAGE/color:{color}") == reference.query(
            f"IMAGE/color:{color}"
        )
    for oid in reference.list_objects():
        assert candidate.names_for(oid) == reference.names_for(oid)
        assert sorted(candidate.paths_for(oid)) == sorted(reference.paths_for(oid))


def build_pair():
    device = BlockDevice(num_blocks=1 << 16)
    persistent = HFADFileSystem(
        device=device,
        btree_on_device=True,
        query_cache_entries=0,
    )
    reference = HFADFileSystem(query_cache_entries=0)
    return device, persistent, reference


@pytest.mark.parametrize("seed", [101, 202])
def test_persistent_equals_in_memory_across_remount(seed):
    device, persistent, reference = build_pair()
    oids_p, oids_r = {}, {}
    ops = make_ops(seed)
    apply_ops(persistent, ops, oids_p)
    apply_ops(reference, ops, oids_r)
    assert oids_p == oids_r  # identical allocation order
    assert_equivalent(reference, persistent)

    # Clean unmount, re-mount: answers must not change in any way.
    persistent.close()
    mounted = HFADFileSystem.mount(device, query_cache_entries=0)
    assert mounted.stats()["persistent_index"] is not None
    assert_equivalent(reference, mounted)

    # Continue the workload on the re-mounted instance: the persisted trees
    # must keep absorbing mutations exactly like the in-memory index.
    more = make_ops(seed + 1, steps=30, start_step=STEPS)
    apply_ops(mounted, more, oids_p)
    apply_ops(reference, more, oids_r)
    assert_equivalent(reference, mounted)
    assert mounted.fsck()["clean"]
    mounted.close()
    reference.close()
