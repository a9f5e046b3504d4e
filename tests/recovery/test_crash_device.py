"""The crash-injection device: countdown, death, torn writes, imaging."""

import random

import pytest

from repro.recovery import CrashError, CrashingBlockDevice


def make_device(**kwargs):
    kwargs.setdefault("num_blocks", 256)
    kwargs.setdefault("block_size", 512)
    return CrashingBlockDevice(**kwargs)


class TestCountdown:
    def test_unarmed_device_behaves_normally(self):
        device = make_device()
        device.write_block(10, b"fine")
        assert device.read_block(10).startswith(b"fine")

    def test_crash_on_nth_write(self):
        device = make_device()
        device.plan_crash(2)
        device.write_block(1, b"a")
        device.write_block(2, b"b")
        with pytest.raises(CrashError):
            device.write_block(3, b"c")
        assert device.dead

    def test_fatal_write_applies_nothing_without_torn_rng(self):
        device = make_device()
        device.plan_crash(0)
        with pytest.raises(CrashError):
            device.write_blocks(5, b"x" * 2048, nblocks=4)
        image = device.surviving_image()
        assert image.read_blocks(5, 4) == bytes(4 * 512)

    def test_dead_device_rejects_all_io(self):
        device = make_device()
        device.plan_crash(0)
        with pytest.raises(CrashError):
            device.write_block(1, b"x")
        with pytest.raises(CrashError):
            device.write_block(2, b"y")
        with pytest.raises(CrashError):
            device.read_block(1)

    def test_disarm_cancels_the_crash(self):
        device = make_device()
        device.plan_crash(0)
        device.disarm()
        device.write_block(1, b"survives")
        assert not device.dead


class TestTornWrites:
    def test_torn_write_applies_a_prefix(self):
        # With a seeded rng, find a crash that tears mid-request.
        for seed in range(50):
            device = make_device()
            device.plan_crash(0, torn_rng=random.Random(seed))
            data = b"".join(bytes([i]) * 512 for i in range(1, 5))  # 4 distinct blocks
            with pytest.raises(CrashError):
                device.write_blocks(8, data, nblocks=4)
            if device.torn_blocks:
                image = device.surviving_image()
                survived = image.read_blocks(8, 4)
                # The prefix made it, the tail did not.
                for i in range(device.torn_blocks):
                    assert survived[i * 512:(i + 1) * 512] == bytes([i + 1]) * 512
                assert survived[device.torn_blocks * 512:] == bytes(
                    (4 - device.torn_blocks) * 512
                )
                return
        pytest.fail("no torn write produced in 50 seeds")


    def test_byte_tear_cuts_inside_one_block(self):
        old = b"".join(bytes([0xA0 + i]) * 512 for i in range(4))
        new = b"".join(bytes([i + 1]) * 512 for i in range(4))
        cuts = set()
        for seed in range(20):
            device = make_device()
            device.write_blocks(8, old, nblocks=4)
            device.plan_crash(0, torn_rng=random.Random(seed), tear="bytes")
            with pytest.raises(CrashError):
                device.write_blocks(8, new, nblocks=4)
            survived = device.surviving_image().read_blocks(8, 4)
            torn = device.torn_block - 8
            assert torn == device.torn_blocks
            # Whole new blocks, then one block cut between new and old
            # bytes, then the old blocks untouched.
            cut = next(i for i in range(512)
                       if survived[torn * 512 + i] != new[torn * 512 + i])
            assert 0 < cut < 512
            assert survived[:torn * 512 + cut] == new[:torn * 512 + cut]
            assert survived[torn * 512 + cut:] == old[torn * 512 + cut:]
            cuts.add((torn, cut))
        assert len(cuts) > 10

    def test_byte_tear_of_a_one_block_write(self):
        device = make_device()
        device.write_block(3, b"o" * 512)
        device.plan_crash(0, torn_rng=random.Random(7), tear="bytes")
        with pytest.raises(CrashError):
            device.write_block(3, b"n" * 512)
        assert device.torn_block == 3
        survived = device.surviving_image().read_block(3)
        assert survived.strip(b"n").strip(b"o") == b""
        assert survived.startswith(b"n") and survived.endswith(b"o")

    def test_unknown_tear_is_refused(self):
        with pytest.raises(ValueError):
            make_device().plan_crash(0, torn_rng=random.Random(1), tear="sectors")


class TestImaging:
    def test_surviving_image_is_independent_and_healthy(self):
        device = make_device()
        device.write_block(3, b"before crash")
        device.plan_crash(0)
        with pytest.raises(CrashError):
            device.write_block(4, b"never lands")
        image = device.surviving_image()
        assert image.read_block(3).startswith(b"before crash")
        assert image.read_block(4) == bytes(512)
        image.write_block(4, b"alive again")  # the clone is a healthy device
        assert image.read_block(4).startswith(b"alive again")
