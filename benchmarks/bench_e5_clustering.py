"""E5 — Section 2.2: is layout clustering still worth canonizing?

FFS groups a directory's files in one cylinder group so that accessing them
together is cheap — but "what if the data are accessed in different ways, or
access patterns evolve over time?", and on storage where "sequential access
may no longer be fastest ... any performance gains by such clustering may be
illusory" (Stein [22]).

The benchmark lays a photo corpus out with FFS clustering (each event
directory in its own cylinder group), then replays two access patterns over
the *data blocks* — the layout-matching pattern (whole events in order) and
an evolved, cross-cutting one (one person's photos, scattered across every
event) — under an HDD latency model and an SSD latency model.

Expected shape: on the HDD the canonical layout is clearly cheaper for the
pattern it was designed for and clearly worse for the evolved pattern; on the
SSD the difference (nearly) vanishes.  Canonizing one organization therefore
buys less and less — the paper's argument for not baking any single hierarchy
into the storage layout.
"""

from __future__ import annotations

import random

import pytest

from repro.hierarchical import FFSFileSystem
from repro.storage import BlockDevice, HDDLatencyModel, SSDLatencyModel
from repro.workloads import photo_corpus

from conftest import emit_table

PHOTO_BYTES = 32 * 1024  # pad photos so data transfer, not metadata, dominates


def _build(latency_model):
    """Lay the photo corpus out with FFS cylinder-group clustering."""
    device = BlockDevice(num_blocks=1 << 16, latency_model=latency_model)
    fs = FFSFileSystem(device=device)
    corpus = photo_corpus(count=120, seed=21)
    inode_by_path = {}
    for item in sorted(corpus, key=lambda entry: entry.path):
        parent = item.path.rsplit("/", 1)[0]
        fs.makedirs(parent)
        content = (item.content * (PHOTO_BYTES // len(item.content) + 1))[:PHOTO_BYTES]
        inode_by_path[item.path] = fs.create(item.path, content)
    return fs, corpus, inode_by_path


def _replay(fs, inodes):
    """Read every inode's data in order; returns simulated ms per file."""
    fs.device.reset_stats()
    for inode in inodes:
        fs.inodes.read(inode, 0, None)
    return fs.device.stats.simulated_us / 1000.0 / max(1, len(inodes))


def _layout_order(corpus, inode_by_path):
    """The layout-matching pattern: whole directories (events) in path order."""
    return [inode_by_path[item.path] for item in sorted(corpus, key=lambda entry: entry.path)]


def _person_order(corpus, inode_by_path, person="margo"):
    """The evolved pattern: one person's photos, scattered across every event."""
    paths = [item.path for item in corpus if ("PERSON", person) in item.tags]
    rng = random.Random(5)
    rng.shuffle(paths)
    return [inode_by_path[path] for path in paths]


def test_e5_clustering_hdd_vs_ssd():
    rows = []
    results = {}
    for model_name, model in [("HDD", HDDLatencyModel()), ("SSD", SSDLatencyModel())]:
        fs, corpus, inode_by_path = _build(model)
        by_layout = _replay(fs, _layout_order(corpus, inode_by_path))
        by_person = _replay(fs, _person_order(corpus, inode_by_path))
        results[model_name] = (by_layout, by_person)
        rows.append(
            (
                model_name,
                round(by_layout, 3),
                round(by_person, 3),
                round(by_person / max(by_layout, 1e-9), 2),
            )
        )
    hdd_layout, hdd_person = results["HDD"]
    ssd_layout, ssd_person = results["SSD"]
    # On the HDD the layout-matching pattern is clearly cheaper (clustering works)...
    hdd_penalty = hdd_person / max(hdd_layout, 1e-9)
    assert hdd_penalty > 1.5
    # ...but on the SSD the canonical layout's advantage (nearly) vanishes.
    ssd_penalty = ssd_person / max(ssd_layout, 1e-9)
    assert ssd_penalty < 1.2
    assert ssd_penalty < hdd_penalty / 2
    emit_table(
        "E5 — per-file read cost (ms, simulated) by access pattern and device",
        ["device", "layout-matching pattern", "evolved (by-person) pattern", "penalty (x)"],
        rows,
    )


@pytest.mark.parametrize("device_kind", ["hdd", "ssd"])
def test_e5_evolved_pattern_latency(benchmark, device_kind):
    model = HDDLatencyModel() if device_kind == "hdd" else SSDLatencyModel()
    fs, corpus, inode_by_path = _build(model)
    inodes = _person_order(corpus, inode_by_path)[:40]
    benchmark(lambda: [fs.inodes.read(inode, 0, 4096) for inode in inodes])
