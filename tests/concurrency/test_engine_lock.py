"""The engine lock: transactions hold it exclusively, read views shared."""

import threading

import pytest

from repro.concurrency.lock_manager import LockMode
from repro.errors import RecoveryError
from repro.recovery import RecoveryManager
from repro.storage import BlockDevice


@pytest.fixture()
def manager():
    return RecoveryManager(BlockDevice(num_blocks=1 << 10, block_size=512),
                           journal_start=1, journal_blocks=32)


def held(manager):
    """How the calling thread holds the engine lock: ``(mode, depth)``."""
    return manager._txn.lock_mode, manager._txn.lock_depth


def takes_the_lock_exclusively(manager, timeout):
    """Whether another thread's transaction gets in within ``timeout``."""
    entered = threading.Event()

    def writer():
        with manager.transaction():
            entered.set()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    got_in = entered.wait(timeout)
    return thread, got_in


def test_exclusive_holds_are_reentrant(manager):
    with manager.transaction():
        with manager.transaction():
            assert held(manager) == (LockMode.EXCLUSIVE, 1)
        assert held(manager) == (LockMode.EXCLUSIVE, 1)
    assert held(manager) == (None, 0)
    # Released in full: another thread's transaction gets straight in.
    thread, got_in = takes_the_lock_exclusively(manager, 2.0)
    assert got_in
    thread.join(2.0)


def test_a_read_view_reenters_the_threads_transaction(manager):
    with manager.transaction():
        with manager.read_view():
            with manager.read_view():
                assert held(manager) == (LockMode.EXCLUSIVE, 3)
        assert held(manager) == (LockMode.EXCLUSIVE, 1)
    assert held(manager) == (None, 0)


def test_nested_read_views_share_the_hold(manager):
    with manager.read_view():
        with manager.read_view():
            assert held(manager) == (LockMode.SHARED, 2)
        assert held(manager) == (LockMode.SHARED, 1)
    assert held(manager) == (None, 0)
    assert not manager.lock_manager.locked("engine")


def test_a_transaction_inside_a_read_view_is_refused(manager):
    with manager.read_view():
        with pytest.raises(RecoveryError, match="inside a read view"):
            manager.begin()
        with pytest.raises(RecoveryError, match="read view"):
            manager.checkpoint()
        assert held(manager) == (LockMode.SHARED, 1)
    assert held(manager) == (None, 0)
    assert not manager.in_transaction
    with manager.transaction():  # the refusal left nothing behind
        pass


def test_readers_overlap_readers_and_block_writers(manager):
    reader_in, release_reader = threading.Event(), threading.Event()

    def reader():
        with manager.read_view():
            reader_in.set()
            release_reader.wait(5.0)

    first = threading.Thread(target=reader, daemon=True)
    first.start()
    assert reader_in.wait(2.0)
    with manager.read_view():  # a second reader gets in beside the first
        pass
    writer, got_in = takes_the_lock_exclusively(manager, 0.05)
    assert not got_in, "a transaction overlapped a read view"
    release_reader.set()
    first.join(2.0)
    writer.join(2.0)
    assert not writer.is_alive(), "the transaction never got the lock"
