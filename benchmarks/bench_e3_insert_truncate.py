"""E3 — Section 3.1.2: insert and truncate in the middle of objects.

"The use of btrees gives us the capability to insert and truncate with little
implementation effort" — and, more importantly, with little *data movement*.
A POSIX application must read and rewrite the tail of the file to do the same
thing.

The benchmark inserts (and removes) a small payload at the midpoint of files
of increasing size on both systems and reports the device blocks written per
operation.  Expected shape: hFAD's cost stays flat as the file grows (only
the new bytes and some btree keys move); the FFS rewrite cost grows linearly
with file size, so the gap widens by orders of magnitude at tens of MiB.
"""

from __future__ import annotations

import pytest

from repro.core import HFADFileSystem
from repro.hierarchical import FFSFileSystem

from conftest import emit_table, scaled

FILE_SIZES = [64 * 1024, 512 * 1024, 2 * 1024 * 1024, 8 * 1024 * 1024]
PAYLOAD = b"[*** inserted by the benchmark ***]"


def _hfad_insert_cost(size):
    fs = HFADFileSystem(num_blocks=1 << 17)
    oid = fs.create(b"", index_content=False)
    fs.write(oid, 0, bytes(size))
    before = fs.device.stats.snapshot()
    fs.insert(oid, size // 2, PAYLOAD)
    insert_writes = fs.device.stats.delta(before).blocks_written
    before = fs.device.stats.snapshot()
    fs.truncate(oid, size // 4, len(PAYLOAD))
    truncate_writes = fs.device.stats.delta(before).blocks_written
    fs.close()
    return insert_writes, truncate_writes


def _ffs_insert_cost(size):
    fs = FFSFileSystem(num_blocks=1 << 17)
    fs.create("/victim", bytes(size))
    before = fs.device.stats.snapshot()
    fs.insert_via_rewrite("/victim", size // 2, PAYLOAD)
    insert_writes = fs.device.stats.delta(before).blocks_written
    before = fs.device.stats.snapshot()
    fs.remove_range_via_rewrite("/victim", size // 4, len(PAYLOAD))
    truncate_writes = fs.device.stats.delta(before).blocks_written
    return insert_writes, truncate_writes


def test_e3_insert_truncate_cost_scaling():
    rows = []
    previous_ratio = 0.0
    for size in FILE_SIZES:
        hfad_insert, hfad_truncate = _hfad_insert_cost(size)
        ffs_insert, ffs_truncate = _ffs_insert_cost(size)
        ratio = ffs_insert / max(1, hfad_insert)
        rows.append(
            (
                size // 1024,
                hfad_insert,
                ffs_insert,
                round(ratio),
                hfad_truncate,
                ffs_truncate,
            )
        )
        # hFAD's cost must not grow with file size; the baseline's must.
        assert hfad_insert <= 4
        assert ffs_insert >= size // 2 // 4096
        assert ratio > previous_ratio  # the gap widens as files grow
        previous_ratio = ratio
    emit_table(
        "E3 — device blocks written for a mid-file insert/remove (hFAD vs POSIX rewrite)",
        ["file size (KiB)", "hFAD insert", "FFS insert", "ratio (x)", "hFAD remove", "FFS remove"],
        rows,
    )


@pytest.mark.parametrize("system", ["hfad", "ffs"])
def test_e3_midfile_insert_latency(benchmark, system):
    size = 512 * 1024
    if system == "hfad":
        fs = HFADFileSystem(num_blocks=1 << 17)
        oid = fs.create(b"", index_content=False)
        fs.write(oid, 0, bytes(size))
        offset = [size // 2]

        def insert_hfad():
            fs.insert(oid, offset[0], PAYLOAD)
            offset[0] += 1

        # Fixed rounds: every insert adds an extent, so unbounded calibration
        # rounds would measure a growing object rather than the operation.
        benchmark.pedantic(insert_hfad, rounds=scaled(50, 10), iterations=1)
        fs.close()
    else:
        fs = FFSFileSystem(num_blocks=1 << 18)
        fs.create("/victim", bytes(size))

        def insert_ffs():
            fs.insert_via_rewrite("/victim", size // 2, PAYLOAD)

        benchmark.pedantic(insert_ffs, rounds=scaled(50, 10), iterations=1)
