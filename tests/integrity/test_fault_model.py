"""The richer device fault model and the bounded retry path."""

import random

import pytest

from repro.errors import CorruptionError, DeviceError, TransientDeviceError
from repro.integrity import IntegrityContext, RetryPolicy, retrying
from repro.storage import BlockDevice, FaultPlan


class TestTransientReadFaults:
    def test_first_n_touches_fail_then_succeed(self):
        dev = BlockDevice(num_blocks=64)
        dev.write_block(7, b"payload")
        dev.fault_plan = FaultPlan(transient_read_faults={7: 2})
        for _ in range(2):
            with pytest.raises(TransientDeviceError):
                dev.read_block(7)
        assert dev.read_block(7).startswith(b"payload")

    def test_fault_consumed_once_per_request(self):
        # A multi-block read touching the flaky block consumes exactly one
        # failure — retries of the same request make progress.
        dev = BlockDevice(num_blocks=64)
        dev.fault_plan = FaultPlan(transient_read_faults={5: 1})
        with pytest.raises(TransientDeviceError):
            dev.read_blocks(4, 4)
        assert dev.read_blocks(4, 4) is not None

    def test_other_blocks_unaffected(self):
        dev = BlockDevice(num_blocks=64)
        dev.fault_plan = FaultPlan(transient_read_faults={7: 5})
        dev.read_block(6)
        dev.read_block(8)

    def test_intermittent_blocks_fail_probabilistically(self):
        dev = BlockDevice(num_blocks=64)
        dev.fault_plan = FaultPlan(
            intermittent_read_blocks={3: 0.5}, rng=random.Random(42)
        )
        outcomes = []
        for _ in range(40):
            try:
                dev.read_block(3)
                outcomes.append(True)
            except TransientDeviceError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)

    def test_intermittent_certain_failure(self):
        dev = BlockDevice(num_blocks=64)
        dev.fault_plan = FaultPlan(
            intermittent_read_blocks={3: 1.0}, rng=random.Random(1)
        )
        with pytest.raises(TransientDeviceError):
            dev.read_block(3)


class TestCorruptionHelpers:
    def test_flip_bit_changes_exactly_one_bit(self):
        dev = BlockDevice(num_blocks=8)
        dev.write_block(2, bytes(range(64)))
        before = dev.read_block(2)
        dev.flip_bit(2, 13)
        after = dev.read_block(2)
        diff = [a ^ b for a, b in zip(before, after)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_corrupt_bytes_overwrites_at_offset(self):
        dev = BlockDevice(num_blocks=8)
        dev.write_block(2, b"A" * 32)
        dev.corrupt_bytes(2, 4, b"XYZ")
        assert dev.read_block(2)[:8] == b"AAAAXYZA"

    def test_corruption_does_not_count_as_io(self):
        dev = BlockDevice(num_blocks=8)
        dev.write_block(2, b"A" * 32)
        writes = dev.stats.writes
        dev.flip_bit(2, 0)
        dev.corrupt_bytes(2, 0, b"B")
        assert dev.stats.writes == writes


class TestRetrying:
    def _policy(self):
        return RetryPolicy(max_attempts=4, base_delay=0.001, multiplier=2.0,
                           max_delay=0.005)

    def test_recovers_after_transient_faults(self):
        attempts = []

        def op():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientDeviceError("flaky")
            return "ok"

        sleeps = []
        assert retrying(op, self._policy(), sleep=sleeps.append) == "ok"
        assert len(attempts) == 3
        assert sleeps == [0.001, 0.002]

    def test_backoff_is_capped(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.002, multiplier=4.0,
                             max_delay=0.005)

        def op():
            raise TransientDeviceError("always")

        with pytest.raises(TransientDeviceError):
            retrying(op, policy, sleep=sleeps.append)
        assert sleeps == [0.002, 0.005, 0.005, 0.005]

    def test_exhaustion_reraises_transient(self):
        def op():
            raise TransientDeviceError("always")

        with pytest.raises(TransientDeviceError):
            retrying(op, self._policy(), sleep=lambda _s: None)

    def test_hard_device_errors_not_retried(self):
        attempts = []

        def op():
            attempts.append(1)
            raise DeviceError("dead")

        with pytest.raises(DeviceError):
            retrying(op, self._policy(), sleep=lambda _s: None)
        assert len(attempts) == 1

    def test_corruption_not_retried(self):
        attempts = []

        def op():
            attempts.append(1)
            raise CorruptionError("rot")

        with pytest.raises(CorruptionError):
            retrying(op, self._policy(), sleep=lambda _s: None)
        assert len(attempts) == 1


class TestIntegrityContextReads:
    def test_counters_track_recovery(self):
        dev = BlockDevice(num_blocks=64)
        dev.write_block(7, b"payload")
        dev.fault_plan = FaultPlan(transient_read_faults={7: 2})
        ctx = IntegrityContext(sleep=lambda _s: None)
        raw = ctx.read_blocks(dev, 7, 1)
        assert raw.startswith(b"payload")
        assert ctx.stats.transient_errors == 2
        assert ctx.stats.retries == 2
        assert ctx.stats.transient_recovered == 1
        assert ctx.stats.retry_exhausted == 0

    def test_counters_track_exhaustion(self):
        dev = BlockDevice(num_blocks=64)
        dev.fault_plan = FaultPlan(transient_read_faults={7: 100})
        ctx = IntegrityContext(
            retry_policy=RetryPolicy(max_attempts=3), sleep=lambda _s: None
        )
        with pytest.raises(TransientDeviceError):
            ctx.read_blocks(dev, 7, 1)
        assert ctx.stats.retry_exhausted == 1
        assert ctx.stats.transient_errors == 3

    def test_quarantine_lifecycle(self):
        ctx = IntegrityContext()
        assert not ctx.is_quarantined(9)
        assert ctx.quarantine_page(9)
        assert not ctx.quarantine_page(9)  # already there
        assert ctx.is_quarantined(9)
        assert ctx.release_page(9)
        assert not ctx.release_page(9)


class TestFilesystemRetryPath:
    def test_page_in_retries_through_transient_faults(self, extent_leaf):
        from repro.core import HFADFileSystem

        dev = BlockDevice(num_blocks=1 << 14)
        fs = HFADFileSystem(device=dev)
        fs.integrity.sleep = lambda _s: None  # no real sleeping in tests
        oid = fs.create(b"transient fault survivor", path="/t.txt")
        fs.checkpoint()
        leaf, _oids = extent_leaf(fs, oid)
        # Evict so the next read must hit the device, then make that read of
        # the object's extent leaf transiently fail twice.
        fs.objects._master.store._consumer.drop_all(write_back=True)
        dev.fault_plan = FaultPlan(transient_read_faults={leaf: 2})
        assert fs.read(oid) == b"transient fault survivor"
        stats = fs.stats()["integrity"]
        assert stats["transient_recovered"] >= 1
        assert stats["retries"] >= 2
        fs.close()
