"""E2 — Section 2.3: the shared-ancestor concurrency bottleneck.

"/home/nick and /home/margo are functionally unrelated most of the time, yet
accessing them requires synchronizing read access through a shared ancestor
directory."

Three schedules (disjoint home directories, one shared project directory, a
metadata-heavy scan) are replayed under hierarchical path locking and under
hFAD's flat per-object locking.  Expected shape: for disjoint working sets
the hierarchy synchronizes constantly on "/" and "/home" while flat locking
synchronizes on nothing; when the data really is shared both systems contend,
so the difference disappears — showing the hotspot is an artifact of the
namespace, not of the workload.

The real-thread lock profile, the buffer-pool lock-split ablation and the
closed-loop throughput curves this file used to carry are frozen in README
"Retired configurations"; perfbench's ``serve_closed`` / ``serve_open``
workloads and ``concurrency.lock_wait_us_per_op`` measure the served engine.
"""

from __future__ import annotations

import pytest

from repro.concurrency import (
    home_directory_workload,
    metadata_scan_workload,
    shared_project_workload,
)
from repro.hierarchical.locking import FlatLockManager, HierarchicalLockManager

from conftest import emit_table, scaled

CONCURRENCY = scaled(8, 4)


def _schedules():
    return [
        home_directory_workload(users=scaled(16, 4), operations_per_user=scaled(60, 15), write_fraction=0.3, seed=1),
        shared_project_workload(users=scaled(16, 4), operations_per_user=scaled(60, 15), write_fraction=0.5, seed=2),
        metadata_scan_workload(directories=scaled(12, 4), files_per_directory=scaled(24, 8), scanners=scaled(6, 3), seed=3),
    ]


def test_e2_contention_report():
    rows = []
    for schedule in _schedules():
        hier = HierarchicalLockManager.simulate_schedule(schedule.path_operations, CONCURRENCY)
        flat = FlatLockManager.simulate_schedule(schedule.flat_operations(), CONCURRENCY)
        hottest = hier.hottest_synchronized(1)
        rows.append(
            (
                schedule.name,
                len(schedule),
                hier.synchronizations,
                flat.synchronizations,
                hier.conflicts,
                flat.conflicts,
                hottest[0][0] if hottest else "-",
            )
        )
        if schedule.name == "home-directories":
            # Disjoint working sets: the hierarchy manufactures the hotspot.
            assert flat.synchronizations == 0
            assert hier.synchronizations > len(schedule)
            assert dict(hier.hottest_synchronized()).keys() & {"/", "/home"}
        if schedule.name == "shared-project":
            # Inherently shared data: both sides contend.
            assert flat.conflicts > 0
        if schedule.name == "metadata-scan":
            assert flat.conflicts == 0
    emit_table(
        "E2 — lock synchronizations/conflicts: hierarchical path locks vs flat (per schedule)",
        ["schedule", "ops", "hier syncs", "flat syncs", "hier conflicts", "flat conflicts", "hottest resource"],
        rows,
    )


@pytest.mark.parametrize("manager", ["hierarchical", "flat"])
def test_e2_simulation_latency(benchmark, manager):
    schedule = home_directory_workload(users=16, operations_per_user=60, write_fraction=0.3, seed=1)
    if manager == "hierarchical":
        benchmark(lambda: HierarchicalLockManager.simulate_schedule(schedule.path_operations, CONCURRENCY))
    else:
        benchmark(lambda: FlatLockManager.simulate_schedule(schedule.flat_operations(), CONCURRENCY))
