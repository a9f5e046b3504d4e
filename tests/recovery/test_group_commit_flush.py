"""The stranded-commit gap and its fix: time-based group-commit flush.

With ``group_commit > 1`` a commit marker sits buffered until the batch
fills.  Before the fix, a *lone* commit — no follow-up writers — stayed
buffered indefinitely: the operation had returned to its caller, yet a
crash any time later lost it.  ``sync_interval_ms`` bounds that window
with an idle flusher; these tests pin both halves:

* the gap itself, with the flusher explicitly disabled (the pre-fix
  behaviour, kept as a regression oracle for the loss mode), and
* the fix: a lone commit becomes durable within the interval and survives
  a crash/remount, without waiting for another writer.
"""

import pytest

from repro.core import HFADFileSystem
from repro.recovery import CrashingBlockDevice
from repro.recovery.manager import DEFAULT_SYNC_INTERVAL_MS


def build_fs(device, sync_interval_ms):
    return HFADFileSystem(
        device=device, btree_on_device=True,
        journal_blocks=511, group_commit=4,
        sync_interval_ms=sync_interval_ms,
    )


def make_device():
    return CrashingBlockDevice(num_blocks=1 << 14, block_size=512)


def test_lone_commit_stranded_without_flusher():
    """The bug, preserved under a knob: flusher off, lone commit lost."""
    device = make_device()
    fs = build_fs(device, sync_interval_ms=0.0)
    oid = fs.create(b"precious lone write", owner="solo", path="/solo/doc.txt")
    journal = fs.recovery.journal
    # The create returned, but its commit marker is still buffered: the
    # durable horizon has not reached the marker's LSN.
    assert journal.durable_lsn < journal.last_lsn, (
        "commit unexpectedly synced; the stranded-commit scenario needs a "
        "buffered marker")
    # Crash now (imaging the device without closing IS the crash): replay
    # never sees the commit marker, so the acked create is gone.
    mounted = HFADFileSystem.mount(device.surviving_image())
    assert oid not in mounted.find(("USER", "solo")), (
        "expected the stranded commit to be lost — the gap this PR fixes "
        "no longer reproduces with the flusher disabled")
    mounted.close()
    fs.recovery.stop_flusher()


def test_idle_flush_makes_lone_commit_durable():
    """The fix: within sync_interval_ms the lone commit is on the device."""
    device = make_device()
    fs = build_fs(device, sync_interval_ms=5.0)
    oid = fs.create(b"precious lone write", owner="solo", path="/solo/doc.txt")
    journal = fs.recovery.journal
    # No other writer ever shows up; the idle flusher must cover the tail.
    assert fs.recovery.wait_durable(journal.last_lsn, timeout=10.0), (
        "idle flusher did not sync the lone commit within its interval")
    assert fs.recovery.stats.idle_flushes >= 1
    mounted = HFADFileSystem.mount(device.surviving_image())
    assert oid in mounted.find(("USER", "solo"))
    assert mounted.read(oid) == b"precious lone write"
    mounted.close()
    fs.recovery.stop_flusher()


def test_default_interval_auto_enabled_with_group_commit():
    fs = HFADFileSystem(btree_on_device=True,
                        journal_blocks=255, group_commit=4)
    try:
        assert fs.recovery.sync_interval_ms == DEFAULT_SYNC_INTERVAL_MS
    finally:
        fs.close()
    # group_commit=1 syncs every commit: no flusher needed, none configured.
    fs = HFADFileSystem(btree_on_device=True,
                        journal_blocks=255, group_commit=1)
    try:
        assert fs.recovery.sync_interval_ms == 0.0
    finally:
        fs.close()


def test_negative_interval_rejected():
    with pytest.raises(ValueError):
        HFADFileSystem(btree_on_device=True,
                       journal_blocks=255, group_commit=4,
                       sync_interval_ms=-1.0)


def test_flush_commits_manual_and_wait_durable():
    device = make_device()
    fs = build_fs(device, sync_interval_ms=0.0)  # no flusher: manual control
    fs.create(b"first", owner="manual")
    journal = fs.recovery.journal
    target = journal.last_lsn
    assert journal.durable_lsn < target
    assert not fs.recovery.wait_durable(target, timeout=0.05), (
        "wait_durable returned before anything synced the tail")
    assert fs.recovery.flush_commits() is True
    assert journal.durable_lsn >= target
    assert fs.recovery.wait_durable(target, timeout=0.0)
    # Idempotent: nothing left to flush.
    assert fs.recovery.flush_commits() is False
    fs.close()


def test_close_flushes_buffered_tail():
    device = make_device()
    fs = build_fs(device, sync_interval_ms=0.0)
    oid = fs.create(b"closing flushes me", owner="closer")
    fs.close()
    mounted = HFADFileSystem.mount(device)
    assert oid in mounted.find(("USER", "closer"))
    assert mounted.read(oid) == b"closing flushes me"
    mounted.close()


def test_durable_listener_fires_on_advance():
    device = make_device()
    fs = build_fs(device, sync_interval_ms=0.0)
    advances = []
    fs.recovery.add_durable_listener(advances.append)
    fs.create(b"listener", owner="hook")
    fs.recovery.flush_commits()
    assert advances, "durable listener never fired on a tail sync"
    assert advances[-1] == fs.recovery.journal.durable_lsn
    fs.recovery.remove_durable_listener(advances.append)
    fs.close()
