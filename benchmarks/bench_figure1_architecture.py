"""F1 — Figure 1 reproduction: the hFAD layered architecture, traced.

Figure 1 shows index stores plus arbitrary-length extents over stable
storage, with the native naming/access APIs (and a POSIX veneer) on top.
This benchmark traces one object's life cycle — POSIX create, content
indexing, tag naming, native search, byte access, insert — and reports which
layer serviced each step and what device traffic it generated, demonstrating
that every box in the figure exists and is exercised.
"""

from __future__ import annotations


from repro.core import HFADFileSystem
from repro.posix import PosixVFS
from repro.posix.vfs import O_CREAT, O_RDWR

from conftest import emit_table


def _trace_lifecycle():
    fs = HFADFileSystem(num_blocks=1 << 15)
    vfs = PosixVFS(fs)
    steps = []

    def step(name, layer, action):
        before = fs.device.stats.snapshot()
        result = action()
        delta = fs.device.stats.delta(before)
        steps.append((name, layer, delta.reads, delta.writes))
        return result

    step("mkdir /photos", "POSIX veneer -> path index", lambda: vfs.mkdir("/photos"))
    fd = step(
        "open(O_CREAT) /photos/beach.jpg",
        "POSIX veneer -> naming (POSIX tag)",
        lambda: vfs.open("/photos/beach.jpg", O_CREAT | O_RDWR),
    )
    step(
        "write 8 KiB of content",
        "access API -> OSD extents -> buddy allocator -> device",
        lambda: vfs.write(fd, b"sunset over the beach " * 370),
    )
    oid = vfs.fs.lookup_path("/photos/beach.jpg")
    step(
        "tag UDEF/vacation + USER/margo",
        "naming API -> key/value index store",
        lambda: (fs.tag(oid, "UDEF", "vacation"), fs.tag(oid, "USER", "margo")),
    )
    step(
        "index image histogram",
        "naming API -> image index store (arbitrary index type)",
        lambda: fs.index_image(oid, [9, 1, 0, 0, 0, 0, 0, 0]),
    )
    step(
        "search FULLTEXT/sunset AND UDEF/vacation",
        "naming API -> fulltext + key/value stores (conjunction)",
        lambda: fs.find(("FULLTEXT", "sunset"), ("UDEF", "vacation")),
    )
    step(
        "read 4 KiB by object id",
        "access API -> extent map (master btree) -> device",
        lambda: fs.read(oid, 0, 4096),
    )
    step(
        "insert into the middle",
        "access API -> extent map (key shift, no copy)",
        lambda: fs.insert(oid, 100, b"[inserted]"),
    )
    vfs.close(fd)
    fs.close()
    return steps, oid


def test_figure1_architecture_trace():
    steps, oid = _trace_lifecycle()
    assert len(steps) == 8
    # Data-path steps touched the device; pure naming steps did not need to.
    write_step = dict((name, (reads, writes)) for name, _layer, reads, writes in steps)
    assert write_step["write 8 KiB of content"][1] > 0
    assert write_step["read 4 KiB by object id"][0] > 0
    emit_table(
        "Figure 1 — one object traced through every architectural layer",
        ["step", "layer exercised", "device reads", "device writes"],
        steps,
    )


def test_figure1_lifecycle_latency(benchmark):
    benchmark(_trace_lifecycle)
